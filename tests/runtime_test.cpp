// End-to-end runtime tests: client invocations through the GCS into
// scheduled replicas, nested invocations across groups, callbacks,
// blocking condition-variable methods, consistency across replicas, and
// LSA leader fail-over.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/watchdog.hpp"
#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "sched/lsa.hpp"
#include "sched/pds.hpp"
#include "workload/objects.hpp"

namespace adets::runtime {
namespace {

using common::Bytes;
using common::GroupId;
using sched::SchedulerKind;
using workload::pack_u64;
using workload::unpack_u64;

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
  }
  void TearDown() override {
    common::Clock::set_scale(saved_scale_);
    watchdog_.reset();
  }

  /// Aborts the test binary with `label` unless the test body and its
  /// TearDown finish within `limit`.
  void arm_watchdog(const std::string& label, std::chrono::milliseconds limit) {
    watchdog_.emplace(label, limit);
  }

  double saved_scale_ = 1.0;
  std::optional<common::Watchdog> watchdog_;
};

sched::SchedulerConfig pds_pool(std::size_t n) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = n;
  return config;
}

TEST_F(RuntimeTest, ClientInvokeRoundTrip) {
  Cluster cluster;
  const GroupId group = cluster.create_group(
      3, SchedulerKind::kSeq, [] { return std::make_unique<workload::EchoService>(); });
  Client& client = cluster.create_client();
  const Bytes args = pack_u64(1234);
  EXPECT_EQ(client.invoke(group, "echo", args), args);
}

class RuntimeAllSchedulers : public RuntimeTest,
                             public ::testing::WithParamInterface<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, RuntimeAllSchedulers,
                         ::testing::Values(SchedulerKind::kSeq, SchedulerKind::kSl,
                                           SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa, SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(RuntimeAllSchedulers, ConcurrentClientsStayConsistent) {
  Cluster cluster;
  const GroupId bank = cluster.create_group(
      3, GetParam(), [] { return std::make_unique<workload::BankAccounts>(4); },
      pds_pool(4));
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 10;
  std::vector<Client*> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(&cluster.create_client());

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kOpsPerClient; ++i) {
        clients[c]->invoke(bank, "deposit", pack_u64((c + i) % 4, 10));
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(cluster.wait_drained(bank, kClients * kOpsPerClient));

  const auto report = repl::check_group(cluster, bank);
  EXPECT_TRUE(report.consistent()) << report.detail;
  // Total money deposited must be visible on every replica.
  Client& probe = cluster.create_client();
  std::uint64_t total = 0;
  for (int a = 0; a < 4; ++a) {
    total += unpack_u64(probe.invoke(bank, "balance", pack_u64(a)))[0];
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kClients * kOpsPerClient * 10));
}

TEST_P(RuntimeAllSchedulers, NestedInvocationAcrossGroups) {
  Cluster cluster;
  const GroupId callee = cluster.create_group(
      3, SchedulerKind::kSat, [] { return std::make_unique<workload::EchoService>(); });
  const GroupId caller = cluster.create_group(
      3, GetParam(), [] { return std::make_unique<workload::NestedPatterns>(); },
      pds_pool(3));
  Client& client = cluster.create_client();
  constexpr int kCalls = 5;
  for (int i = 0; i < kCalls; ++i) {
    client.invoke(caller, "NCS", pack_u64(callee.value(), 1, 2, 1, 2));
  }
  ASSERT_TRUE(cluster.wait_drained(caller, kCalls));
  EXPECT_TRUE(repl::check_group(cluster, caller).consistent());
  // At-most-once at the callee: each nested invocation executed exactly
  // once despite three replicas submitting it (calls_ is the hash).
  ASSERT_TRUE(cluster.wait_drained(callee, kCalls));
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.replica(callee, r).state_hash(), kCalls) << "replica " << r;
  }
}

/// Test object whose "start" method triggers a callback chain:
/// A.start -> B.callback -> A.__cb (same logical thread).
class CallbackOrigin : public ReplicatedObject {
 public:
  explicit CallbackOrigin(GroupId peer, GroupId self) : peer_(peer), self_(self) {}
  Bytes dispatch(const std::string& method, const Bytes& args, SyncContext& ctx) override {
    if (method == "start") {
      return ctx.invoke(peer_, "callback", pack_u64(self_.value()));
    }
    if (method == "__cb") {
      cb_count_++;
      return pack_u64(42);
    }
    (void)args;
    throw std::invalid_argument("unknown method " + method);
  }
  [[nodiscard]] std::uint64_t state_hash() const override { return cb_count_; }

 private:
  GroupId peer_;
  GroupId self_;
  std::uint64_t cb_count_ = 0;
};

class CallbackSchedulers : public RuntimeTest,
                           public ::testing::WithParamInterface<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, CallbackSchedulers,
                         ::testing::Values(SchedulerKind::kSl, SchedulerKind::kSat,
                                           SchedulerKind::kMat, SchedulerKind::kLsa),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(CallbackSchedulers, CallbackChainDoesNotDeadlock) {
  Cluster cluster;
  // Groups are created in dependency order; ids are assigned 1, 2.
  const GroupId callee_id(2);
  const GroupId caller_id(1);
  const GroupId caller = cluster.create_group(
      3, GetParam(),
      [=] { return std::make_unique<CallbackOrigin>(callee_id, caller_id); });
  const GroupId callee = cluster.create_group(
      3, SchedulerKind::kSat, [] { return std::make_unique<workload::EchoService>(); });
  ASSERT_EQ(caller, caller_id);
  ASSERT_EQ(callee, callee_id);
  Client& client = cluster.create_client();
  const Bytes result = client.invoke(caller, "start", {});
  EXPECT_EQ(unpack_u64(result)[0], 42u);
  // "start" and the nested "__cb" both count as applied requests, and a
  // lagging replica can finish "start" before its own "__cb" thread runs.
  ASSERT_TRUE(cluster.wait_drained(caller, 2));
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.replica(caller, r).state_hash(), 1u);
  }
}

/// The "+L" in SA+L: a callback shares the logical thread of its
/// originating request and may re-enter locks that request holds.
class ReentrantCallbackOrigin : public ReplicatedObject {
 public:
  explicit ReentrantCallbackOrigin(GroupId peer, GroupId self)
      : peer_(peer), self_(self) {}
  Bytes dispatch(const std::string& method, const Bytes& args, SyncContext& ctx) override {
    (void)args;
    if (method == "start") {
      DetLock lock(ctx, common::MutexId(7));  // held across the nested call
      return ctx.invoke(peer_, "callback", pack_u64(self_.value()));
    }
    if (method == "__cb") {
      DetLock lock(ctx, common::MutexId(7));  // reentrant: same logical thread
      cb_count_++;
      return pack_u64(cb_count_);
    }
    throw std::invalid_argument("unknown method " + method);
  }
  [[nodiscard]] std::uint64_t state_hash() const override { return cb_count_; }

 private:
  GroupId peer_;
  GroupId self_;
  std::uint64_t cb_count_ = 0;
};

TEST_P(CallbackSchedulers, CallbackReentersLockHeldByOriginator) {
  Cluster cluster;
  const GroupId callee_id(2);
  const GroupId caller_id(1);
  const GroupId caller = cluster.create_group(
      3, GetParam(),
      [=] { return std::make_unique<ReentrantCallbackOrigin>(callee_id, caller_id); });
  const GroupId callee = cluster.create_group(
      3, SchedulerKind::kMat, [] { return std::make_unique<workload::EchoService>(); });
  ASSERT_EQ(caller, caller_id);
  ASSERT_EQ(callee, callee_id);
  Client& client = cluster.create_client();
  const Bytes result = client.invoke(caller, "start", {});
  EXPECT_EQ(unpack_u64(result)[0], 1u);
  // Two requests flow through the caller group: "start" and the nested
  // "callback".  A replica can report "start" complete while its local
  // "callback" execution (which mutates the state hash) still lags, so
  // drain both before comparing hashes.
  ASSERT_TRUE(cluster.wait_drained(caller, 2));
  EXPECT_TRUE(repl::check_group(cluster, caller).consistent());
}

class CvRuntimeSchedulers : public RuntimeTest,
                            public ::testing::WithParamInterface<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, CvRuntimeSchedulers,
                         ::testing::Values(SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa, SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(CvRuntimeSchedulers, BlockingConsumerIsWokenByProducer) {
  Cluster cluster;
  const GroupId buffer = cluster.create_group(
      3, GetParam(), [] { return std::make_unique<workload::UnboundedBuffer>(); },
      pds_pool(3));
  Client& consumer = cluster.create_client();
  Client& producer = cluster.create_client();

  std::thread consume_thread([&] {
    const Bytes result = consumer.invoke(buffer, "consume", {});
    EXPECT_EQ(unpack_u64(result)[0], 77u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  producer.invoke(buffer, "produce", pack_u64(77));
  consume_thread.join();
  ASSERT_TRUE(cluster.wait_drained(buffer, 2));
  EXPECT_TRUE(repl::check_group(cluster, buffer).consistent());
}

TEST_P(CvRuntimeSchedulers, TimedWithdrawTimesOutWithoutFunds) {
  Cluster cluster;
  const GroupId bank = cluster.create_group(
      3, GetParam(), [] { return std::make_unique<workload::BankAccounts>(2); },
      pds_pool(3));
  Client& client = cluster.create_client();
  // 100 paper-ms timeout = 1ms real at scale 0.01.
  const Bytes result = client.invoke(bank, "withdraw", pack_u64(0, 50, 100));
  EXPECT_EQ(unpack_u64(result)[0], 0u);
  ASSERT_TRUE(cluster.wait_drained(bank, 1));
  EXPECT_TRUE(repl::check_group(cluster, bank).consistent());
}

TEST_P(CvRuntimeSchedulers, BlockedWithdrawSucceedsAfterDeposit) {
  Cluster cluster;
  const GroupId bank = cluster.create_group(
      3, GetParam(), [] { return std::make_unique<workload::BankAccounts>(2); },
      pds_pool(3));
  Client& withdrawer = cluster.create_client();
  Client& depositor = cluster.create_client();
  std::thread blocked([&] {
    const Bytes result = withdrawer.invoke(bank, "withdraw", pack_u64(1, 30));
    EXPECT_EQ(unpack_u64(result)[0], 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  depositor.invoke(bank, "deposit", pack_u64(1, 30));
  blocked.join();
  ASSERT_TRUE(cluster.wait_drained(bank, 2));
  const auto report = repl::check_group(cluster, bank);
  EXPECT_TRUE(report.consistent()) << report.detail;
}

TEST_P(CvRuntimeSchedulers, TeardownEndsConsumerWaitingOnEmptyBuffer) {
  // The consumer's `while (empty) wait()` loop must end when the replicas
  // stop; otherwise it spins and stopping the scheduler joins it forever.
  arm_watchdog("teardown with a waiting consumer, " + sched::to_string(GetParam()),
               std::chrono::seconds(60));
  Cluster cluster;
  const GroupId buffer = cluster.create_group(
      3, GetParam(), [] { return std::make_unique<workload::BoundedBuffer>(2); },
      pds_pool(3));
  Client& client = cluster.create_client();
  client.invoke_async(buffer, "consume", {}, [](const Bytes&) {});
  const auto waiting = [&] {
    for (int i = 0; i < cluster.group_size(buffer); ++i) {
      if (cluster.replica(buffer, i).scheduler().stats().waits == 0) return false;
    }
    return true;
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!waiting() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(waiting()) << "the consume never reached its wait on every replica";
  // Leaving the scope destroys the cluster under the waiting consumer.
}

/// "hold" keeps mutex 0 through a long computation; "enter" takes it
/// and counts it as shared if a "hold" of the same replica is still
/// inside.
class HeldMutex : public ReplicatedObject {
 public:
  struct Probe {
    std::atomic<int> holding{0};
    std::atomic<int> entering{0};
    std::atomic<int> shared{0};
  };
  explicit HeldMutex(std::shared_ptr<Probe> probe) : probe_(std::move(probe)) {}

  Bytes dispatch(const std::string& method, const Bytes&, SyncContext& ctx) override {
    if (method == "enter") probe_->entering++;
    const DetLock lock(ctx, common::MutexId(0));
    if (method == "hold") {
      inside_.store(true);
      probe_->holding++;
      ctx.compute(common::paper_ms(50000));  // 500 ms real at scale 0.01
      inside_.store(false);
    } else if (inside_.load()) {
      probe_->shared++;
    }
    return {};
  }
  [[nodiscard]] std::uint64_t state_hash() const override { return 0; }

 private:
  const std::shared_ptr<Probe> probe_;
  std::atomic<bool> inside_{false};
};

class LockingSchedulers : public RuntimeTest,
                          public ::testing::WithParamInterface<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, LockingSchedulers,
                         ::testing::Values(SchedulerKind::kMat, SchedulerKind::kLsa,
                                           SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(LockingSchedulers, StopEndsALockWaitWithoutTheMutex) {
  // A replica that stops ends the wait of a thread blocked in lock.  That
  // thread must not go on as if it held the mutex while its holder is
  // still inside.
  arm_watchdog("lock wait at stop, " + sched::to_string(GetParam()), std::chrono::seconds(60));
  const auto probe = std::make_shared<HeldMutex::Probe>();
  {
    Cluster cluster;
    const GroupId group = cluster.create_group(
        3, GetParam(), [probe] { return std::make_unique<HeldMutex>(probe); }, pds_pool(3));
    Client& client = cluster.create_client();
    client.invoke_async(group, "hold", {}, [](const Bytes&) {});
    const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (probe->holding.load() < 3 && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(probe->holding.load(), 3);
    client.invoke_async(group, "enter", {}, [](const Bytes&) {});
    while (probe->entering.load() < 3 && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(probe->entering.load(), 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // blocked in lock
    // Leaving the scope stops the replicas while every "hold" computes.
  }
  EXPECT_EQ(probe->shared.load(), 0) << "a stopped lock wait entered the critical section";
}

TEST_F(RuntimeTest, SeqPollingBufferVariantWorks) {
  Cluster cluster;
  const GroupId buffer = cluster.create_group(
      3, SchedulerKind::kSeq, [] { return std::make_unique<workload::UnboundedBuffer>(); });
  Client& client = cluster.create_client();
  EXPECT_EQ(unpack_u64(client.invoke(buffer, "poll_consume", {}))[0], 0u);
  client.invoke(buffer, "produce", pack_u64(5));
  const auto result = unpack_u64(client.invoke(buffer, "poll_consume", {}));
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], 1u);
  EXPECT_EQ(result[1], 5u);
}

TEST_F(RuntimeTest, LsaLeaderCrashFailsOverAndStaysConsistent) {
  Cluster cluster;
  const GroupId bank = cluster.create_group(
      3, SchedulerKind::kLsa, [] { return std::make_unique<workload::BankAccounts>(4); });
  Client& client = cluster.create_client();
  for (int i = 0; i < 10; ++i) client.invoke(bank, "deposit", pack_u64(i % 4, 5));

  // Kill the leader (lowest node id = replica 0).
  cluster.crash_replica(bank, 0);

  // Keep working through the fail-over; the client may need the
  // retransmission machinery while the view change settles.
  for (int i = 0; i < 10; ++i) {
    client.invoke(bank, "deposit", pack_u64(i % 4, 5),
                  std::chrono::seconds(30));
  }
  // The new leader must be replica 1 (next lowest id).
  auto& new_leader =
      dynamic_cast<sched::LsaScheduler&>(cluster.replica(bank, 1).scheduler());
  EXPECT_TRUE(new_leader.is_leader());

  // Survivors agree on the final state.
  std::uint64_t total = 0;
  for (int a = 0; a < 4; ++a) {
    total += unpack_u64(client.invoke(bank, "balance", pack_u64(a)))[0];
  }
  EXPECT_EQ(total, 100u);
  // The client's reply comes from the first survivor to finish; wait for
  // both (20 deposits + 4 balance reads) before comparing their states.
  ASSERT_TRUE(cluster.wait_drained(bank, 24));
  EXPECT_EQ(cluster.replica(bank, 1).state_hash(), cluster.replica(bank, 2).state_hash());
}

TEST_F(RuntimeTest, LsaMutexFirstLockedAfterLeaderCrashIsBoundByTheNewLeader) {
  arm_watchdog("LSA binding after a leader crash", std::chrono::seconds(120));
  // Accounts 0-3 are bound by the first leader; accounts 4-7 are first
  // locked after it crashed, so the new leader binds their mutexes and
  // must number them past every table id the old leader used.
  Cluster cluster;
  const GroupId bank = cluster.create_group(
      3, SchedulerKind::kLsa, [] { return std::make_unique<workload::BankAccounts>(8); });
  Client& client = cluster.create_client();
  for (int i = 0; i < 8; ++i) client.invoke(bank, "deposit", pack_u64(i % 4, 5));
  cluster.crash_replica(bank, 0);
  for (int i = 0; i < 8; ++i) {
    client.invoke(bank, "deposit", pack_u64(4 + i % 4, 5), std::chrono::seconds(30));
  }
  ASSERT_TRUE(cluster.wait_drained(bank, 16));
  const auto report = repl::check_group(cluster, bank);
  EXPECT_TRUE(report.consistent()) << report.detail;
  EXPECT_GT(report.grants_compared, 0u);
}

// No method name is special: "__poison" is an unknown method like any
// other, so a client cannot shrink a PDS pool by calling it.
TEST_F(RuntimeTest, PoisonMethodLeavesPdsPoolIntact) {
  Cluster cluster;
  sched::SchedulerConfig config = pds_pool(2);
  const GroupId group = cluster.create_group(
      3, SchedulerKind::kPds, [] { return std::make_unique<workload::EchoService>(); },
      config);
  Client& client = cluster.create_client();
  client.invoke(group, "echo", pack_u64(1));
  for (int i = 0; i < 2; ++i) client.invoke_oneway(group, "__poison", {});
  EXPECT_EQ(client.invoke(group, "echo", pack_u64(2), std::chrono::seconds(3)),
            pack_u64(2));
  EXPECT_TRUE(cluster.wait_drained(group, 4, std::chrono::seconds(3)));
  for (int r = 0; r < 3; ++r) {
    const auto& pds =
        dynamic_cast<const sched::PdsScheduler&>(cluster.replica(group, r).scheduler());
    EXPECT_EQ(pds.pool_size(), 2u) << "replica " << r;
  }
}

TEST_F(RuntimeTest, DirectoryResolvesGroupsForNestedCalls) {
  Cluster cluster;
  const GroupId g1 = cluster.create_group(
      1, SchedulerKind::kSeq, [] { return std::make_unique<workload::EchoService>(); });
  EXPECT_EQ(cluster.directory()->members(g1).size(), 1u);
  EXPECT_TRUE(cluster.directory()->members(GroupId(99)).empty());
}

}  // namespace
}  // namespace adets::runtime
