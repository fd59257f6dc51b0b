// Scheduler strategy tests: execution, mutual exclusion, reentrancy,
// cross-replica determinism under timing perturbation, condition
// variables, timed waits, nested invocations, and strategy-specific
// behaviour (SAT single-active, MAT concurrency, LSA leader/follower,
// PDS rounds and pool resizing).
#include <gtest/gtest.h>

#include <atomic>
#include <iostream>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/lsa.hpp"
#include "sched/pds.hpp"
#include "sched_harness.hpp"

namespace adets::testing {
namespace {

using common::Duration;
using common::paper_ms;
using sched::SchedulerKind;

std::chrono::milliseconds ms(int n) { return std::chrono::milliseconds(n); }

class SchedTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.05);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }
  double saved_scale_ = 1.0;
};

// --- parameterized over every scheduler kind ---------------------------------

class AllSchedulers : public SchedTestBase,
                      public ::testing::WithParamInterface<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, AllSchedulers,
                         ::testing::Values(SchedulerKind::kSeq, SchedulerKind::kSl,
                                           SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa, SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(AllSchedulers, ExecutesAllRequestsOnAllReplicas) {
  SchedulerCluster cluster(GetParam(), 3);
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      ctx.lock(0);
      ctx.trace("r" + std::to_string(i));
      ctx.unlock(0);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));
  const auto reference = cluster.trace(0);
  EXPECT_EQ(reference.size(), kRequests);
  for (int r = 1; r < 3; ++r) EXPECT_EQ(cluster.trace(r), reference) << "replica " << r;
}

TEST_P(AllSchedulers, MutualExclusionHolds) {
  SchedulerCluster cluster(GetParam(), 2);
  std::vector<std::unique_ptr<std::atomic<int>>> in_section;
  std::atomic<bool> violation{false};
  for (int r = 0; r < 2; ++r) in_section.push_back(std::make_unique<std::atomic<int>>(0));

  constexpr int kRequests = 10;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [&, i](BodyCtx& ctx) {
      ctx.compute(ms(1));
      ctx.lock(5);
      if (in_section[ctx.replica()]->fetch_add(1) != 0) violation.store(true);
      ctx.compute(ms(2));
      in_section[ctx.replica()]->fetch_sub(1);
      ctx.unlock(5);
      (void)i;
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));
  EXPECT_FALSE(violation.load());
}

TEST_P(AllSchedulers, ReentrantLocksDoNotSelfDeadlock) {
  SchedulerCluster cluster(GetParam(), 2);
  for (int i = 0; i < 4; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      ctx.lock(1);
      ctx.lock(1);  // recursive acquisition by the same logical thread
      ctx.lock(1);
      ctx.trace("in" + std::to_string(i));
      ctx.unlock(1);
      ctx.unlock(1);
      ctx.unlock(1);
    });
  }
  for (int i = 0; i < 4; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(4));
  EXPECT_EQ(cluster.trace(0), cluster.trace(1));
}

TEST_P(AllSchedulers, DeterministicUnderTimingPerturbation) {
  SchedulerCluster cluster(GetParam(), 3);
  // Adversarial per-replica delays: replica r delays request q by a
  // pseudo-random amount, so physical interleavings differ wildly.
  cluster.set_perturbation([](int replica, std::uint64_t request) {
    common::Rng rng(static_cast<std::uint64_t>(replica) * 7919 + request);
    common::Clock::sleep_real(ms(static_cast<int>(rng.uniform(0, 4))));
  });
  constexpr int kRequests = 16;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      common::Rng rng(static_cast<std::uint64_t>(i));
      const std::uint64_t m = 1 + rng.uniform(0, 2);  // mutexes 1..3
      ctx.compute(ms(static_cast<int>(rng.uniform(0, 2))));
      ctx.lock(m);
      ctx.trace("m" + std::to_string(m) + ":r" + std::to_string(i));
      ctx.unlock(m);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));

  // State-access order must agree per mutex.
  auto project = [](const std::vector<std::string>& trace) {
    std::map<std::string, std::vector<std::string>> by_mutex;
    for (const auto& entry : trace) {
      by_mutex[entry.substr(0, entry.find(':'))].push_back(entry);
    }
    return by_mutex;
  };
  const auto reference = project(cluster.trace(0));
  for (int r = 1; r < 3; ++r) EXPECT_EQ(project(cluster.trace(r)), reference);
  // Lock-grant order must agree per mutex.
  const auto grants = sched::per_mutex_decisions(cluster.replica(0).decision_trace());
  for (int r = 1; r < 3; ++r) {
    EXPECT_EQ(sched::per_mutex_decisions(cluster.replica(r).decision_trace()), grants)
        << "replica " << r;
  }
}

TEST_P(AllSchedulers, NestedInvocationUnblocksOnReply) {
  SchedulerCluster cluster(GetParam(), 2);
  cluster.set_auto_reply(ms(3));
  cluster.set_body(1, [](BodyCtx& ctx) {
    ctx.lock(0);
    ctx.trace("before");
    ctx.unlock(0);
    ctx.nested_call(100);
    ctx.lock(0);
    ctx.trace("after");
    ctx.unlock(0);
  });
  cluster.submit(1);
  ASSERT_TRUE(cluster.wait_completed(1));
  EXPECT_EQ(cluster.trace(0), (std::vector<std::string>{"before", "after"}));
  EXPECT_EQ(cluster.trace(1), cluster.trace(0));
}

TEST_P(AllSchedulers, CapabilitiesReportIsConsistent) {
  SchedulerCluster cluster(GetParam(), 1);
  const auto caps = cluster.replica(0).capabilities();
  EXPECT_FALSE(caps.coordination.empty());
  EXPECT_FALSE(caps.multithreading.empty());
  if (GetParam() == SchedulerKind::kSeq || GetParam() == SchedulerKind::kSl) {
    EXPECT_FALSE(caps.condition_variables);
    EXPECT_FALSE(caps.true_multithreading);
  } else {
    EXPECT_TRUE(caps.condition_variables);
    EXPECT_TRUE(caps.timed_wait);
    EXPECT_TRUE(caps.reentrant_locks);
  }
  EXPECT_EQ(caps.needs_communication, GetParam() == SchedulerKind::kLsa);
}

// --- condition-variable capable schedulers ------------------------------------

class CvSchedulers : public SchedTestBase,
                     public ::testing::WithParamInterface<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, CvSchedulers,
                         ::testing::Values(SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa, SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(CvSchedulers, ProducerConsumerHandoff) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 4;
  SchedulerCluster cluster(GetParam(), 3, config);
  // Per-replica shared buffer, guarded by mutex 2 / condvar 9.
  struct State {
    std::vector<int> buffer;
  };
  std::vector<State> states(3);

  constexpr int kConsumers = 3;
  for (int c = 0; c < kConsumers; ++c) {
    cluster.set_body(c, [&states, c](BodyCtx& ctx) {
      ctx.lock(2);
      auto& buffer = states[ctx.replica()].buffer;
      while (buffer.empty()) ctx.wait(2, 9);
      const int item = buffer.front();
      buffer.erase(buffer.begin());
      ctx.trace("consume" + std::to_string(c) + "=" + std::to_string(item));
      ctx.unlock(2);
    });
  }
  for (int p = 0; p < kConsumers; ++p) {
    cluster.set_body(100 + p, [&states, p](BodyCtx& ctx) {
      ctx.lock(2);
      states[ctx.replica()].buffer.push_back(p);
      ctx.trace("produce" + std::to_string(p));
      ctx.notify_one(2, 9);
      ctx.unlock(2);
    });
  }
  for (int c = 0; c < kConsumers; ++c) cluster.submit(c);
  common::Clock::sleep_real(ms(20));  // let consumers block first
  for (int p = 0; p < kConsumers; ++p) cluster.submit(100 + p);
  ASSERT_TRUE(cluster.wait_completed(2 * kConsumers));
  const auto reference = cluster.trace(0);
  EXPECT_EQ(reference.size(), 2u * kConsumers);
  for (int r = 1; r < 3; ++r) EXPECT_EQ(cluster.trace(r), reference);
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(states[r].buffer.empty());
}

TEST_P(CvSchedulers, NotifyAllWakesEveryWaiter) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 5;
  SchedulerCluster cluster(GetParam(), 2, config);
  std::vector<std::unique_ptr<std::atomic<bool>>> gate;
  for (int r = 0; r < 2; ++r) gate.push_back(std::make_unique<std::atomic<bool>>(false));

  constexpr int kWaiters = 4;
  for (int w = 0; w < kWaiters; ++w) {
    cluster.set_body(w, [&gate, w](BodyCtx& ctx) {
      ctx.lock(3);
      while (!gate[ctx.replica()]->load()) ctx.wait(3, 4);
      ctx.trace("woke" + std::to_string(w));
      ctx.unlock(3);
    });
  }
  cluster.set_body(50, [&gate](BodyCtx& ctx) {
    ctx.lock(3);
    gate[ctx.replica()]->store(true);
    ctx.notify_all(3, 4);
    ctx.unlock(3);
  });
  for (int w = 0; w < kWaiters; ++w) cluster.submit(w);
  common::Clock::sleep_real(ms(20));
  cluster.submit(50);
  ASSERT_TRUE(cluster.wait_completed(kWaiters + 1));
  EXPECT_EQ(cluster.trace(0).size(), kWaiters);
  EXPECT_EQ(cluster.trace(0), cluster.trace(1));
}

TEST_P(CvSchedulers, TimedWaitTimesOutDeterministically) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  SchedulerCluster cluster(GetParam(), 3, config);
  cluster.set_body(1, [](BodyCtx& ctx) {
    ctx.lock(6);
    const bool notified = ctx.wait_for(6, 7, paper_ms(40));  // 2ms real
    ctx.trace(notified ? "notified" : "timeout");
    ctx.unlock(6);
  });
  cluster.submit(1);
  ASSERT_TRUE(cluster.wait_completed(1));
  const auto reference = cluster.trace(0);
  EXPECT_EQ(reference, (std::vector<std::string>{"timeout"}));
  for (int r = 1; r < 3; ++r) EXPECT_EQ(cluster.trace(r), reference);
}

TEST_P(CvSchedulers, TimeoutVersusNotifyRaceIsConsistent) {
  // The timeout of a bounded wait races a notify() issued at roughly the
  // same moment (paper Sec. 4: "the order in which the two happen is
  // non-deterministic" — but it must be *consistent* across replicas).
  for (int attempt = 0; attempt < 3; ++attempt) {
    sched::SchedulerConfig config;
    config.pds_thread_pool = 3;
    SchedulerCluster cluster(GetParam(), 3, config);
    cluster.set_body(1, [](BodyCtx& ctx) {
      ctx.lock(6);
      const bool notified = ctx.wait_for(6, 7, paper_ms(60));  // 3ms real
      ctx.trace(notified ? "notified" : "timeout");
      ctx.unlock(6);
    });
    cluster.set_body(2, [](BodyCtx& ctx) {
      ctx.lock(6);
      ctx.notify_one(6, 7);
      ctx.unlock(6);
    });
    cluster.submit(1);
    common::Clock::sleep_real(ms(3));  // land near the timeout instant
    cluster.submit(2);
    ASSERT_TRUE(cluster.wait_completed(2));
    const auto reference = cluster.trace(0);
    ASSERT_EQ(reference.size(), 1u);
    for (int r = 1; r < 3; ++r) {
      EXPECT_EQ(cluster.trace(r), reference) << "attempt " << attempt;
    }
  }
}

TEST_P(CvSchedulers, StaleTimeoutHasNoEffect) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  SchedulerCluster cluster(GetParam(), 2, config);
  std::vector<std::unique_ptr<std::atomic<bool>>> ready;
  for (int r = 0; r < 2; ++r) ready.push_back(std::make_unique<std::atomic<bool>>(false));
  // Waiter is notified well before its long timeout; the late timer must
  // not wake the *next* wait on the same condvar.
  cluster.set_body(1, [&ready](BodyCtx& ctx) {
    ctx.lock(6);
    const bool first = ctx.wait_for(6, 7, paper_ms(400));
    ctx.trace(first ? "first-notified" : "first-timeout");
    ready[ctx.replica()]->store(true);
    // Second wait on the same condvar: only request 3's notify may end it.
    const bool second = ctx.wait(6, 7);
    ctx.trace(second ? "second-notified" : "second-timeout");
    ctx.unlock(6);
  });
  cluster.set_body(2, [](BodyCtx& ctx) {
    ctx.lock(6);
    ctx.notify_one(6, 7);
    ctx.unlock(6);
  });
  cluster.set_body(3, [](BodyCtx& ctx) {
    ctx.lock(6);
    ctx.notify_one(6, 7);
    ctx.unlock(6);
  });
  cluster.submit(1);
  common::Clock::sleep_real(ms(5));
  cluster.submit(2);  // notifies first wait quickly
  while (!ready[0]->load() || !ready[1]->load()) common::Clock::sleep_real(ms(1));
  common::Clock::sleep_real(ms(30));  // let the stale timer fire (20ms real)
  cluster.submit(3);
  const bool done = cluster.wait_completed(3, std::chrono::seconds(10));
  if (!done) {
    for (int r = 0; r < 2; ++r) {
      auto* base = dynamic_cast<sched::SchedulerBase*>(&cluster.replica(r));
      std::cerr << "replica " << r
                << " completed=" << cluster.replica(r).completed_requests() << " "
                << (base != nullptr ? base->debug_dump() : std::string("?")) << "\n";
    }
  }
  ASSERT_TRUE(done);
  const std::vector<std::string> expected{"first-notified", "second-notified"};
  EXPECT_EQ(cluster.trace(0), expected);
  EXPECT_EQ(cluster.trace(1), expected);
}

TEST_P(CvSchedulers, StopEndsALockWaitBeforeItsCriticalSection) {
  // These four strategies run a second request while the first is parked
  // in a nested call.  A holds mutex 1 through a call nobody answers, and
  // B blocks on lock(1).  stop() ends B's wait without the mutex, so B
  // must leave before its critical section.
  SchedulerCluster cluster(GetParam(), 1);
  std::atomic<bool> b_locking{false};
  cluster.set_body(1, [](BodyCtx& ctx) {
    ctx.lock(1);
    ctx.trace("A holds");
    ctx.nested_call(100);  // never answered
    ctx.unlock(1);
  });
  cluster.set_body(2, [&b_locking](BodyCtx& ctx) {
    b_locking.store(true);
    ctx.lock(1);
    ctx.trace("B holds");
    ctx.unlock(1);
  });
  const auto deadline = common::Clock::now() + std::chrono::seconds(10);
  cluster.submit(1);
  while (cluster.trace(0).empty() && common::Clock::now() < deadline) {
    common::Clock::sleep_real(ms(1));
  }
  ASSERT_EQ(cluster.trace(0), std::vector<std::string>{"A holds"});
  cluster.submit(2);
  while (!b_locking.load() && common::Clock::now() < deadline) {
    common::Clock::sleep_real(ms(1));
  }
  ASSERT_TRUE(b_locking.load());
  common::Clock::sleep_real(ms(20));  // B parks in lock(1)
  cluster.stop();
  EXPECT_EQ(cluster.trace(0), std::vector<std::string>{"A holds"});
}

// --- strategy-specific behaviour ------------------------------------------------

TEST_F(SchedTestBase, SeqRunsRequestsStrictlySequentially) {
  SchedulerCluster cluster(SchedulerKind::kSeq, 1);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 6; ++i) {
    cluster.set_body(i, [&](BodyCtx& ctx) {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      ctx.compute(ms(3));
      concurrent.fetch_sub(1);
    });
  }
  for (int i = 0; i < 6; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(6));
  EXPECT_EQ(peak.load(), 1);
}

TEST_F(SchedTestBase, SeqBlocksNewRequestsDuringNestedCall) {
  SchedulerCluster cluster(SchedulerKind::kSeq, 1);
  cluster.set_body(1, [](BodyCtx& ctx) {
    ctx.lock(0);
    ctx.trace("r1-start");
    ctx.unlock(0);
    ctx.nested_call(500);
    ctx.lock(0);
    ctx.trace("r1-end");
    ctx.unlock(0);
  });
  cluster.set_body(2, [](BodyCtx& ctx) {
    ctx.lock(0);
    ctx.trace("r2");
    ctx.unlock(0);
  });
  cluster.submit(1);
  common::Clock::sleep_real(ms(10));
  cluster.submit(2);
  common::Clock::sleep_real(ms(10));
  cluster.deliver_reply(500);
  ASSERT_TRUE(cluster.wait_completed(2));
  EXPECT_EQ(cluster.trace(0),
            (std::vector<std::string>{"r1-start", "r1-end", "r2"}));
}

TEST_F(SchedTestBase, SatUsesNestedIdleTime) {
  SchedulerCluster cluster(SchedulerKind::kSat, 1);
  cluster.set_body(1, [](BodyCtx& ctx) {
    ctx.lock(0);
    ctx.trace("r1-start");
    ctx.unlock(0);
    ctx.nested_call(500);
    ctx.lock(0);
    ctx.trace("r1-end");
    ctx.unlock(0);
  });
  cluster.set_body(2, [](BodyCtx& ctx) {
    ctx.lock(0);
    ctx.trace("r2");
    ctx.unlock(0);
  });
  cluster.submit(1);
  common::Clock::sleep_real(ms(10));
  cluster.submit(2);  // runs while request 1 waits for its reply
  common::Clock::sleep_real(ms(10));
  cluster.deliver_reply(500);
  ASSERT_TRUE(cluster.wait_completed(2));
  EXPECT_EQ(cluster.trace(0),
            (std::vector<std::string>{"r1-start", "r2", "r1-end"}));
}

TEST_F(SchedTestBase, SatNeverRunsTwoThreadsAtOnce) {
  SchedulerCluster cluster(SchedulerKind::kSat, 1);
  std::atomic<int> concurrent{0};
  std::atomic<bool> overlap{false};
  for (int i = 0; i < 5; ++i) {
    cluster.set_body(i, [&](BodyCtx& ctx) {
      if (concurrent.fetch_add(1) != 0) overlap.store(true);
      ctx.compute(ms(3));
      concurrent.fetch_sub(1);
    });
  }
  for (int i = 0; i < 5; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(5));
  EXPECT_FALSE(overlap.load());
}

TEST_F(SchedTestBase, SlExecutesCallbackOnAdditionalThread) {
  SchedulerCluster cluster(SchedulerKind::kSl, 1);
  cluster.set_body(1, [](BodyCtx& ctx) {
    ctx.trace("r1-start");
    ctx.nested_call(500);
    ctx.trace("r1-end");
  });
  // Callback: led back into the group by request 1's nested call 500.
  cluster.set_body(77, [](BodyCtx& ctx) { ctx.trace("callback"); });
  cluster.submit(1);
  common::Clock::sleep_real(ms(10));
  cluster.submit_callback(77, /*logical_id=*/1, /*callback_of=*/500);
  ASSERT_TRUE(cluster.wait_completed(1));  // callback completed counts too
  common::Clock::sleep_real(ms(5));
  cluster.deliver_reply(500);
  ASSERT_TRUE(cluster.wait_completed(2));
  EXPECT_EQ(cluster.trace(0),
            (std::vector<std::string>{"r1-start", "callback", "r1-end"}));
}

TEST_F(SchedTestBase, MatRunsComputationsConcurrently) {
  SchedulerCluster cluster(SchedulerKind::kMat, 1);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 4; ++i) {
    cluster.set_body(i, [&](BodyCtx& ctx) {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      ctx.compute(ms(10));
      concurrent.fetch_sub(1);
      ctx.lock(1);
      ctx.unlock(1);
    });
  }
  for (int i = 0; i < 4; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(4));
  EXPECT_GE(peak.load(), 2);
}

TEST_F(SchedTestBase, MatSerializesLockFirstPatterns) {
  // Paper Fig. 4(c): lock-compute-unlock degenerates to sequential.
  SchedulerCluster cluster(SchedulerKind::kMat, 1);
  std::atomic<int> concurrent{0};
  std::atomic<bool> overlap{false};
  for (int i = 0; i < 4; ++i) {
    cluster.set_body(i, [&, i](BodyCtx& ctx) {
      ctx.lock(10 + i);  // distinct mutexes — MAT still serialises
      if (concurrent.fetch_add(1) != 0) overlap.store(true);
      ctx.compute(ms(4));
      concurrent.fetch_sub(1);
      ctx.unlock(10 + i);
    });
  }
  for (int i = 0; i < 4; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(4));
  EXPECT_FALSE(overlap.load());
}

TEST_F(SchedTestBase, MatYieldRestoresConcurrencyForLockFirstPatterns) {
  // The paper's proposed optimisation: yield() after the critical
  // section lets the next thread lock while we still compute.
  SchedulerCluster cluster(SchedulerKind::kMat, 1);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 4; ++i) {
    cluster.set_body(i, [&, i](BodyCtx& ctx) {
      ctx.lock(10 + i);
      ctx.unlock(10 + i);
      ctx.yield();
      const int now = concurrent.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      ctx.compute(ms(10));
      concurrent.fetch_sub(1);
    });
  }
  for (int i = 0; i < 4; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(4));
  EXPECT_GE(peak.load(), 2);
}

TEST_F(SchedTestBase, LsaLeaderRoleFollowsViewOrder) {
  SchedulerCluster cluster(SchedulerKind::kLsa, 3);
  auto& leader = dynamic_cast<sched::LsaScheduler&>(cluster.replica(0));
  auto& follower = dynamic_cast<sched::LsaScheduler&>(cluster.replica(1));
  EXPECT_TRUE(leader.is_leader());
  EXPECT_FALSE(follower.is_leader());
}

TEST_F(SchedTestBase, LsaFollowersReplayLeaderGrantOrder) {
  SchedulerCluster cluster(SchedulerKind::kLsa, 3);
  cluster.set_perturbation([](int replica, std::uint64_t request) {
    common::Rng rng(static_cast<std::uint64_t>(replica) * 31 + request);
    common::Clock::sleep_real(ms(static_cast<int>(rng.uniform(0, 3))));
  });
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      ctx.lock(42);
      ctx.trace("r" + std::to_string(i));
      ctx.unlock(42);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));
  // The leader's real-time order (whatever it was) is replayed exactly.
  const auto leader_trace = cluster.trace(0);
  EXPECT_EQ(leader_trace.size(), kRequests);
  EXPECT_EQ(cluster.trace(1), leader_trace);
  EXPECT_EQ(cluster.trace(2), leader_trace);
}

TEST_F(SchedTestBase, LsaDynamicMutexIdsBindInProgramOrder) {
  // Threads lock several previously unregistered mutexes; followers must
  // learn the leader-assigned ids purely from the table stream.
  SchedulerCluster cluster(SchedulerKind::kLsa, 3);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      const std::uint64_t first = 1000 + (i % 3);
      const std::uint64_t second = 2000 + (i % 2);
      ctx.lock(first);
      ctx.trace("a" + std::to_string(first) + ":r" + std::to_string(i));
      ctx.lock(second);
      ctx.trace("b" + std::to_string(second) + ":r" + std::to_string(i));
      ctx.unlock(second);
      ctx.unlock(first);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));
  auto project = [](const std::vector<std::string>& trace) {
    std::map<std::string, std::vector<std::string>> by_mutex;
    for (const auto& e : trace) by_mutex[e.substr(0, e.find(':'))].push_back(e);
    return by_mutex;
  };
  const auto reference = project(cluster.trace(0));
  EXPECT_EQ(project(cluster.trace(1)), reference);
  EXPECT_EQ(project(cluster.trace(2)), reference);
}

TEST_F(SchedTestBase, LsaFollowersApplyTablesInLeaderOrderWhenReordered) {
  // Every two mutex tables reach the follower swapped; it must still
  // replay the leader's grant order rather than the arrival order.
  SchedulerCluster cluster(SchedulerKind::kLsa, 2);
  cluster.set_swap_broadcasts(true);
  constexpr int kRequests = 6;  // one table per grant, an even count
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      ctx.lock(42);
      ctx.trace("r" + std::to_string(i));
      ctx.unlock(42);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests, ms(5000)));
  EXPECT_EQ(cluster.trace(1), cluster.trace(0));
}

/// Waits until replica `r` has traced `n` entries.
bool wait_trace(const SchedulerCluster& cluster, int r, std::size_t n) {
  const auto deadline = common::Clock::now() + ms(5000);
  while (cluster.trace(r).size() < n) {
    if (common::Clock::now() > deadline) return false;
    common::Clock::sleep_real(ms(1));
  }
  return true;
}

/// Replica 1 starts the originator late, so the callback reaches it
/// before the originator has taken mutex 7.  The callback re-enters 7,
/// which the originator holds across the call, so it must not run until
/// the originator is parked in that call, and the call must not return
/// before it finished.
void expect_callback_waits_for_its_caller(SchedulerKind kind) {
  SchedulerCluster cluster(kind, 2);
  cluster.set_perturbation([](int replica, std::uint64_t request) {
    if (replica == 1 && request == 1) common::Clock::sleep_real(ms(30));
  });
  cluster.set_body(1, [](BodyCtx& ctx) {
    ctx.lock(7);
    ctx.trace("start");
    ctx.nested_call(500);
    ctx.trace("resumed");
    ctx.unlock(7);
  });
  cluster.set_body(77, [](BodyCtx& ctx) {
    ctx.lock(7);
    ctx.trace("callback");
    ctx.unlock(7);
  });
  cluster.submit(1);
  ASSERT_TRUE(wait_trace(cluster, 0, 1));
  cluster.submit_callback(77, /*logical_id=*/1, /*callback_of=*/500);
  ASSERT_TRUE(wait_trace(cluster, 0, 2));
  cluster.deliver_reply(500);
  ASSERT_TRUE(cluster.wait_completed(2, ms(5000)));
  const std::vector<std::string> expected{"start", "callback", "resumed"};
  EXPECT_EQ(cluster.trace(0), expected);
  EXPECT_EQ(cluster.trace(1), expected);
}

TEST_F(SchedTestBase, LsaCallbackWaitsForItsCallerToReachTheCall) {
  expect_callback_waits_for_its_caller(SchedulerKind::kLsa);
}

TEST_F(SchedTestBase, SlCallbackWaitsForItsCallerToReachTheCall) {
  expect_callback_waits_for_its_caller(SchedulerKind::kSl);
}

/// Waits until replica `r` has at least `n` threads in `state`, as its
/// debug dump names it ("blk-lock", "blk-nested", ...).
bool wait_threads_in(SchedulerCluster& cluster, int r, const std::string& state,
                     std::size_t n) {
  const auto& scheduler = dynamic_cast<const sched::SchedulerBase&>(cluster.replica(r));
  const std::string tag = ":" + state + "]";
  const auto deadline = common::Clock::now() + ms(5000);
  while (true) {
    const std::string dump = scheduler.debug_dump();
    std::size_t count = 0;
    for (auto at = dump.find(tag); at != std::string::npos; at = dump.find(tag, at + 1)) {
      count++;
    }
    if (count >= n) return true;
    if (common::Clock::now() > deadline) return false;
    common::Clock::sleep_real(ms(1));
  }
}

TEST_F(SchedTestBase, LsaWaitersOfOneMutexSleepThroughAnotherMutexsGrants) {
  // Eight threads wait for mutex 1, which request 0 holds across a
  // nested call.  Twenty requests on mutex 2 meanwhile unlock it and, on
  // the follower, apply its tables.  Each of those events may wake the
  // one thread that takes mutex 2 next, never a waiter of mutex 1: at
  // most one wake-up per request on the follower (the requester itself,
  // when its table arrives) and none on the leader.
  SchedulerCluster cluster(SchedulerKind::kLsa, 2);
  constexpr int kWaiters = 8;
  constexpr int kOthers = 20;
  cluster.set_body(0, [](BodyCtx& ctx) {
    ctx.lock(1);
    ctx.nested_call(900);
    ctx.unlock(1);
  });
  for (int i = 1; i <= kWaiters + kOthers; ++i) {
    const std::uint64_t m = i <= kWaiters ? 1 : 2;
    cluster.set_body(i, [m](BodyCtx& ctx) {
      ctx.lock(m);
      ctx.unlock(m);
    });
  }
  // Request 0 holds mutex 1 in its call before the waiters arrive, so
  // mutex 1 is bound on the follower and no wake-up of the set-up is
  // still to come once they all wait.
  cluster.submit(0);
  for (int r = 0; r < 2; ++r) ASSERT_TRUE(wait_threads_in(cluster, r, "blk-nested", 1)) << r;
  for (int i = 1; i <= kWaiters; ++i) cluster.submit(i);
  for (int r = 0; r < 2; ++r) {
    ASSERT_TRUE(wait_threads_in(cluster, r, "blk-lock", kWaiters)) << r;
  }
  const std::uint64_t before[2] = {cluster.replica(0).stats().wakeups,
                                   cluster.replica(1).stats().wakeups};
  for (int i = 1; i <= kOthers; ++i) {
    cluster.submit(kWaiters + i);
    ASSERT_TRUE(cluster.wait_completed(i));
  }
  EXPECT_EQ(cluster.replica(0).stats().wakeups - before[0], 0u) << "leader";
  EXPECT_LE(cluster.replica(1).stats().wakeups - before[1],
            static_cast<std::uint64_t>(kOthers))
      << "follower";
  cluster.deliver_reply(900);
  ASSERT_TRUE(cluster.wait_completed(1 + kWaiters + kOthers));
}

TEST_F(SchedTestBase, LsaFreshLeaderQueuesReplayWaitersOnceRecordedGrantsDrain) {
  // The leader records grants of mutex 5 to requests 1 and 2 (in the
  // order they raced for it), then fails.  On the surviving follower,
  // request 3 blocks on mutex 5 before 1 and 2 get there, so it waits
  // for its recorded turn.  As the new leader, the survivor honours the
  // two recorded grants, and the second of them must send request 3 to
  // the new leader's own queue: nothing else would wake it.
  SchedulerCluster cluster(SchedulerKind::kLsa, 2);
  for (int i = 0; i <= 3; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      ctx.lock(5);
      ctx.trace("r" + std::to_string(i));
      ctx.unlock(5);
    });
  }
  cluster.submit(0);  // binds mutex 5 on both replicas
  ASSERT_TRUE(cluster.wait_completed(1));
  cluster.set_perturbation([](int replica, std::uint64_t request) {
    if (replica == 1 && (request == 1 || request == 2)) common::Clock::sleep_real(ms(200));
  });
  cluster.submit(1);
  cluster.submit(2);
  ASSERT_TRUE(wait_trace(cluster, 0, 3));
  // The leader crashes with its tables for 1 and 2 already sent.
  cluster.replica(0).stop();
  cluster.submit(3);
  ASSERT_TRUE(wait_threads_in(cluster, 1, "blk-lock", 1));
  cluster.replica(1).on_view_change({common::NodeId(1)});
  const auto deadline = common::Clock::now() + ms(5000);
  while (cluster.replica(1).completed_requests() < 4 && common::Clock::now() < deadline) {
    common::Clock::sleep_real(ms(1));
  }
  std::vector<std::string> expected = cluster.trace(0);  // r0 and the recorded two
  expected.push_back("r3");
  EXPECT_EQ(cluster.trace(1), expected);
}

TEST_F(SchedTestBase, LsaFreshLeaderNumbersNewMutexesPastTheOldLeadersIds) {
  // The old leader bound mutex 10 to table id 1 before it failed.  A
  // fresh leader that numbered new mutexes from its own count would bind
  // mutex 20 to id 1 again; replica 2, which knows id 1 as mutex 10,
  // would queue the grant there, and request 1 would wait on replica 2
  // for a binding of mutex 20 that never comes.
  SchedulerCluster cluster(SchedulerKind::kLsa, 3);
  const auto locks = [](std::uint64_t m) {
    return [m](BodyCtx& ctx) {
      ctx.lock(m);
      ctx.trace("m" + std::to_string(m));
      ctx.unlock(m);
    };
  };
  cluster.set_body(0, locks(10));
  cluster.set_body(1, locks(20));
  cluster.submit(0);  // binds mutex 10 on every replica
  ASSERT_TRUE(cluster.wait_completed(1));
  cluster.replica(0).stop();
  const std::vector<common::NodeId> survivors{common::NodeId(1), common::NodeId(2)};
  cluster.replica(1).on_view_change(survivors);
  cluster.replica(2).on_view_change(survivors);
  cluster.submit(1);  // mutex 20: nobody has bound it yet
  const auto deadline = common::Clock::now() + ms(3000);
  for (const int r : {1, 2}) {
    while (cluster.replica(r).completed_requests() < 2 && common::Clock::now() < deadline) {
      common::Clock::sleep_real(ms(1));
    }
    EXPECT_EQ(cluster.replica(r).completed_requests(), 2u) << "replica " << r;
  }
  EXPECT_EQ(cluster.trace(1), cluster.trace(2));
  EXPECT_EQ(sched::per_mutex_decisions(cluster.replica(1).decision_trace()),
            sched::per_mutex_decisions(cluster.replica(2).decision_trace()));
}

TEST_F(SchedTestBase, LsaReleasesPerThreadStateWhenThreadsFinish) {
  // A thread's lock-operation count and its callback and binding entries
  // belong to that thread.  None of it may outlive the thread, or a long
  // run grows LSA's bookkeeping by one entry per request on every replica.
  SchedulerCluster cluster(SchedulerKind::kLsa, 3);
  constexpr int kRequests = 500;
  constexpr int kWave = 50;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      const std::uint64_t m = 1 + i % 4;  // first uses bind dynamically
      ctx.lock(m);
      ctx.unlock(m);
    });
  }
  for (int i = 0; i < kRequests; ++i) {
    cluster.submit(i);
    if ((i + 1) % kWave == 0) {
      ASSERT_TRUE(cluster.wait_completed(i + 1));
    }
  }
  for (int r = 0; r < cluster.size(); ++r) {
    auto& lsa = dynamic_cast<sched::LsaScheduler&>(cluster.replica(r));
    // A request counts as completed just before its thread finishes.
    const auto deadline = common::Clock::now() + ms(5000);
    while (lsa.tracked_threads() > 0 && common::Clock::now() < deadline) {
      common::Clock::sleep_real(ms(1));
    }
    EXPECT_EQ(lsa.tracked_threads(), 0u) << "replica " << r;
  }
}

TEST_F(SchedTestBase, PdsExecutesRoundsAndStaysConsistent) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 4;
  SchedulerCluster cluster(SchedulerKind::kPds, 2, config);
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      ctx.compute(ms(1));
      ctx.lock(3);
      ctx.trace("r" + std::to_string(i));
      ctx.unlock(3);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));
  EXPECT_EQ(cluster.trace(0), cluster.trace(1));
  auto& pds = dynamic_cast<sched::PdsScheduler&>(cluster.replica(0));
  EXPECT_GT(pds.rounds(), 0u);
}

TEST_F(SchedTestBase, PdsIdlePoolBroadcastsNoNoops) {
  // An artificial request exists to start a round that a suspended
  // worker waits for.  With nobody waiting, the pool stays silent, so no
  // no-op precedes the first request in the total order.
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  SchedulerCluster cluster(SchedulerKind::kPds, 1, config);
  common::Clock::sleep_real(ms(30));
  EXPECT_EQ(cluster.replica(0).stats().broadcasts, 0u);
}

TEST_F(SchedTestBase, PdsArrivalWakesOnlyTheWorkerThatFetchesIt) {
  // Only the queue-mutex holder fetches, so an arrival wakes it alone;
  // the other workers get the queue mutex from the round machinery.  Fed
  // one request at a time, an idle pool of 4 makes two wake-ups per
  // request: the holder, and the worker the queue mutex goes to next.
  sched::SchedulerConfig config;
  config.pds_thread_pool = 4;
  SchedulerCluster cluster(SchedulerKind::kPds, 1, config);
  constexpr std::uint64_t kRequests = 40;
  cluster.submit(0);
  ASSERT_TRUE(cluster.wait_completed(1));
  const std::uint64_t before = cluster.replica(0).stats().wakeups;
  for (std::uint64_t i = 1; i <= kRequests; ++i) {
    cluster.submit(i);
    ASSERT_TRUE(cluster.wait_completed(i + 1));
  }
  EXPECT_LE(cluster.replica(0).stats().wakeups - before, 2 * kRequests);
}

TEST_F(SchedTestBase, Pds2NeedsFewerRoundsThanPds1ForTwoLockWork) {
  auto run = [&](int variant) {
    sched::SchedulerConfig config;
    config.pds_thread_pool = 4;
    config.pds_variant = variant;
    SchedulerCluster cluster(SchedulerKind::kPds, 1, config);
    constexpr int kRequests = 12;
    for (int i = 0; i < kRequests; ++i) {
      cluster.set_body(i, [i](BodyCtx& ctx) {
        ctx.lock(100 + (i % 4));
        ctx.lock(200 + (i % 4));
        ctx.unlock(200 + (i % 4));
        ctx.unlock(100 + (i % 4));
      });
    }
    for (int i = 0; i < kRequests; ++i) cluster.submit(i);
    EXPECT_TRUE(cluster.wait_completed(kRequests));
    return dynamic_cast<sched::PdsScheduler&>(cluster.replica(0)).rounds();
  };
  const auto rounds_pds1 = run(1);
  const auto rounds_pds2 = run(2);
  EXPECT_LT(rounds_pds2, rounds_pds1);
}

TEST_F(SchedTestBase, Pds2GrantsSecondRequestsInTheSameOrderOnEveryReplica) {
  // PDS-2 lets a worker take a second mutex within its round.  Whether
  // that mutex is free when the worker asks depends on how far the other
  // workers got, which is timing, so the grant waits for the mid-round
  // pass, when every worker is suspended.  Here each replica runs every
  // body at its own pace before and between the two locks.
  sched::SchedulerConfig config;
  config.pds_thread_pool = 4;
  config.pds_variant = 2;
  SchedulerCluster cluster(SchedulerKind::kPds, 3, config);
  cluster.set_perturbation([](int replica, std::uint64_t request) {
    common::Rng rng(static_cast<std::uint64_t>(replica) * 7919 + request);
    common::Clock::sleep_real(ms(static_cast<int>(rng.uniform(0, 2))));
  });
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      common::Rng rng(static_cast<std::uint64_t>(ctx.replica()) * 104729 + i);
      const std::uint64_t first = 100 + i % 4;
      const std::uint64_t second = 200 + i % 2;
      ctx.lock(first);
      ctx.compute(ms(static_cast<int>(rng.uniform(0, 2))));
      ctx.lock(second);
      ctx.unlock(second);
      ctx.unlock(first);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));
  const auto grants = sched::per_mutex_decisions(cluster.replica(0).decision_trace());
  for (int r = 1; r < 3; ++r) {
    EXPECT_EQ(sched::per_mutex_decisions(cluster.replica(r).decision_trace()), grants)
        << "replica " << r;
  }
}

TEST_F(SchedTestBase, PdsPoolGrowsOutOfAllWaitingDeadlock) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 2;
  SchedulerCluster cluster(SchedulerKind::kPds, 2, config);
  std::vector<std::unique_ptr<std::atomic<bool>>> ready;
  for (int r = 0; r < 2; ++r) ready.push_back(std::make_unique<std::atomic<bool>>(false));
  // Both initial workers block in wait(); without resizing the notify
  // request could never be executed.
  for (int w = 0; w < 2; ++w) {
    cluster.set_body(w, [&ready, w](BodyCtx& ctx) {
      ctx.lock(1);
      while (!ready[ctx.replica()]->load()) ctx.wait(1, 2);
      ctx.trace("woke" + std::to_string(w));
      ctx.unlock(1);
    });
  }
  cluster.set_body(9, [&ready](BodyCtx& ctx) {
    ctx.lock(1);
    ready[ctx.replica()]->store(true);
    ctx.notify_all(1, 2);
    ctx.unlock(1);
  });
  cluster.submit(0);
  cluster.submit(1);
  common::Clock::sleep_real(ms(30));
  cluster.submit(9);
  ASSERT_TRUE(cluster.wait_completed(3));
  EXPECT_EQ(cluster.trace(0), cluster.trace(1));
}

TEST_F(SchedTestBase, PdsRoundRobinAssignmentStaysConsistent) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  config.pds_round_robin_assignment = true;
  SchedulerCluster cluster(SchedulerKind::kPds, 2, config);
  constexpr int kRequests = 9;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      ctx.lock(4);
      ctx.trace("r" + std::to_string(i));
      ctx.unlock(4);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));
  EXPECT_EQ(cluster.trace(0), cluster.trace(1));
  EXPECT_EQ(sched::per_mutex_decisions(cluster.replica(0).decision_trace()),
            sched::per_mutex_decisions(cluster.replica(1).decision_trace()));
}

/// Paper Fig. 1: ADETS-LSA timeout handling.  The TO-thread (with its
/// derived deterministic id) locks the guarding mutex through the
/// scheduler; whichever of notify/timeout wins on the leader is replayed
/// by the followers.
TEST_F(SchedTestBase, LsaTimeoutTrace) {
  SchedulerCluster cluster(SchedulerKind::kLsa, 3);
  cluster.set_body(1, [](BodyCtx& ctx) {
    ctx.lock(6);
    const bool notified = ctx.wait_for(6, 7, paper_ms(60));  // 3ms real
    ctx.trace(notified ? "notified" : "timeout");
    ctx.unlock(6);
  });
  cluster.set_body(2, [](BodyCtx& ctx) {
    ctx.lock(6);
    ctx.notify_one(6, 7);
    ctx.unlock(6);
  });
  cluster.submit(1);
  common::Clock::sleep_real(ms(3));
  cluster.submit(2);
  ASSERT_TRUE(cluster.wait_completed(2));
  common::Clock::sleep_real(ms(30));  // let TO-threads run everywhere
  // All replicas agree on the race outcome.
  const auto reference = cluster.trace(0);
  ASSERT_EQ(reference.size(), 1u);
  for (int r = 1; r < 3; ++r) EXPECT_EQ(cluster.trace(r), reference);
  // The TO-thread construct was exercised: some grant of mutex 6 went to
  // a thread with a derived (high-bit) id, on every replica, in the same
  // per-mutex position.
  const auto grants = sched::per_mutex_decisions(cluster.replica(0).decision_trace());
  bool saw_to_thread = false;
  for (const auto thread : grants.at(6)) {
    if (thread & (1ULL << 63)) saw_to_thread = true;
  }
  EXPECT_TRUE(saw_to_thread);
  for (int r = 1; r < 3; ++r) {
    EXPECT_EQ(sched::per_mutex_decisions(cluster.replica(r).decision_trace()), grants);
  }
}

/// Paper Fig. 2: ADETS-PDS condition-variable handling — a notified
/// waiter must first reacquire the guarding mutex, which postpones it to
/// the start of the next round.
TEST_F(SchedTestBase, PdsCondVarRounds) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  SchedulerCluster cluster(SchedulerKind::kPds, 2, config);
  std::vector<std::unique_ptr<std::atomic<bool>>> flag;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> round_at_notify;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> round_at_resume;
  for (int r = 0; r < 2; ++r) {
    flag.push_back(std::make_unique<std::atomic<bool>>(false));
    round_at_notify.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    round_at_resume.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  auto rounds_of = [&cluster](int replica) {
    return dynamic_cast<sched::PdsScheduler&>(cluster.replica(replica)).rounds();
  };
  cluster.set_body(1, [&](BodyCtx& ctx) {
    ctx.lock(6);
    while (!flag[ctx.replica()]->load()) ctx.wait(6, 7);
    round_at_resume[ctx.replica()]->store(rounds_of(ctx.replica()));
    ctx.trace("resumed");
    ctx.unlock(6);
  });
  cluster.set_body(2, [&](BodyCtx& ctx) {
    ctx.lock(6);
    flag[ctx.replica()]->store(true);
    ctx.notify_one(6, 7);
    round_at_notify[ctx.replica()]->store(rounds_of(ctx.replica()));
    ctx.unlock(6);
  });
  cluster.submit(1);
  common::Clock::sleep_real(ms(20));
  cluster.submit(2);
  ASSERT_TRUE(cluster.wait_completed(2));
  for (int r = 0; r < 2; ++r) {
    // The waiter resumed in a strictly later round than the notify.
    EXPECT_GT(round_at_resume[r]->load(), round_at_notify[r]->load())
        << "replica " << r;
  }
  EXPECT_EQ(cluster.trace(0), cluster.trace(1));
}

/// ADETS-LSA with batched mutex tables must stay deterministic; only
/// the communication pattern changes.
TEST_F(SchedTestBase, LsaBatchedTablesStayDeterministic) {
  sched::SchedulerConfig config;
  config.lsa_batch_grants = 4;
  SchedulerCluster cluster(SchedulerKind::kLsa, 3, config);
  cluster.set_perturbation([](int replica, std::uint64_t request) {
    common::Rng rng(static_cast<std::uint64_t>(replica) * 17 + request);
    common::Clock::sleep_real(ms(static_cast<int>(rng.uniform(0, 2))));
  });
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [i](BodyCtx& ctx) {
      ctx.lock(3);
      ctx.trace("r" + std::to_string(i));
      ctx.unlock(3);
    });
  }
  for (int i = 0; i < kRequests; ++i) cluster.submit(i);
  ASSERT_TRUE(cluster.wait_completed(kRequests));
  EXPECT_EQ(cluster.trace(1), cluster.trace(0));
  EXPECT_EQ(cluster.trace(2), cluster.trace(0));
}

/// The decision ring keeps every decision while set_trace(true) is on,
/// and only the newest kDecisionRingCapacity otherwise; grant_trace() is
/// its lock grants.
TEST_F(SchedTestBase, DecisionRingKeepsEveryDecisionOnlyWhileTraced) {
  constexpr std::uint64_t kCapacity = sched::kDecisionRingCapacity;
  constexpr std::uint64_t kGrants = kCapacity + 44;  // per request; a multiple of 3
  SchedulerCluster cluster(SchedulerKind::kSat, 1);  // traced, as every harness replica
  sched::Scheduler& scheduler = cluster.replica(0);
  for (std::uint64_t request = 0; request < 3; ++request) {
    cluster.set_body(request, [](BodyCtx& ctx) {
      for (std::uint64_t i = 0; i < kGrants; ++i) {
        ctx.lock(i % 3);
        ctx.unlock(i % 3);
      }
    });
  }
  std::uint64_t completed = 0;
  const auto run_next = [&] {
    cluster.submit(completed);
    ASSERT_TRUE(cluster.wait_completed(++completed));
  };
  // The ring holds decisions first..last, in order: the grants of
  // mutex seq % 3, which grant_trace() returns.
  const auto expect_ring = [&scheduler](std::uint64_t first, std::uint64_t last) {
    const auto decisions = scheduler.decision_trace();
    ASSERT_EQ(decisions.size(), last - first + 1);
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      ASSERT_EQ(decisions[i].seq, first + i) << "entry " << i;
      ASSERT_EQ(decisions[i].kind, sched::Decision::Kind::kLockGrant) << "entry " << i;
      ASSERT_EQ(decisions[i].mutex.value(), decisions[i].seq % 3) << "entry " << i;
      ASSERT_EQ(decisions[i].ordinal, decisions[i].seq / 3) << "entry " << i;
    }
    EXPECT_EQ(scheduler.grant_trace(), sched::grant_records(decisions));
  };

  run_next();
  expect_ring(0, kGrants - 1);
  scheduler.set_trace(false);
  expect_ring(kGrants - kCapacity, kGrants - 1);
  run_next();
  expect_ring(2 * kGrants - kCapacity, 2 * kGrants - 1);
  scheduler.set_trace(true);
  run_next();
  expect_ring(2 * kGrants - kCapacity, 3 * kGrants - 1);
}

}  // namespace
}  // namespace adets::testing
