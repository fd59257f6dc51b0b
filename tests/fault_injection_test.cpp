// Fault-injection tests: the FaultPlan layer must be reproducible, and
// the middleware must converge under every fault it models — duplicated,
// delayed and reordered messages are absorbed by the GCS, a crashed and
// restarted replica catches up through NACK repair, and a delayed
// timeout announcement still resolves every bounded wait identically on
// every replica (stale generations no-op).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/serialization.hpp"
#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "sched_harness.hpp"
#include "transport/fault.hpp"
#include "transport/network.hpp"
#include "workload/kvstore.hpp"
#include "workload/scenario.hpp"

namespace adets {
namespace {

using common::paper_ms;
using common::paper_us;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }

 private:
  double saved_scale_ = 1.0;
};

transport::FaultPlan chaos_plan(std::uint64_t seed) {
  return transport::FaultPlan{}
      .with_seed(seed)
      .duplicate(0.2)
      .delay(paper_us(100), paper_ms(3))
      .reorder(0.15, 4);
}

// --- reproducibility -------------------------------------------------------

TEST_F(FaultInjectionTest, DecideFaultIsPureFunction) {
  const auto plan = transport::FaultPlan{}.with_seed(42).drop(0.3).duplicate(0.3).delay(
      paper_us(0), paper_ms(10));
  const common::NodeId src(1);
  const common::NodeId dst(2);
  for (std::uint64_t counter = 0; counter < 64; ++counter) {
    EXPECT_EQ(decide_fault(plan, src, dst, counter),
              decide_fault(plan, src, dst, counter));
  }
  // The stream is not constant: with p=0.3 over 64 draws, both outcomes occur.
  int drops = 0;
  for (std::uint64_t counter = 0; counter < 64; ++counter) {
    drops += decide_fault(plan, src, dst, counter).dropped ? 1 : 0;
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 64);
}

TEST_F(FaultInjectionTest, FaultScheduleReproducibleAcrossNetworks) {
  const auto plan = chaos_plan(7).drop(0.1);
  transport::FaultTrace traces[2];
  std::uint64_t digests[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    transport::SimNetwork net;
    std::vector<common::NodeId> nodes;
    for (int i = 0; i < 3; ++i) nodes.push_back(net.create_node());
    net.set_fault_plan(plan);
    // A fixed message sequence: every (src, dst) pair, 40 messages each.
    for (int round = 0; round < 40; ++round) {
      for (const auto src : nodes) {
        for (const auto dst : nodes) {
          if (src == dst) continue;
          net.send(src, dst, common::Bytes{static_cast<std::uint8_t>(round)});
        }
      }
    }
    traces[run] = net.fault_trace();
    digests[run] = transport::fault_trace_digest(traces[run]);
    net.stop();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(digests[0], digests[1]);
  // The plan actually did something on at least one link.
  bool any_fault = false;
  for (const auto& [link, decisions] : traces[0]) {
    for (const auto& d : decisions) {
      any_fault |= d.dropped || d.duplicated || d.reordered || d.extra_delay_ns > 0;
    }
  }
  EXPECT_TRUE(any_fault);
}

TEST_F(FaultInjectionTest, SingleClientScenarioReproducibleAcrossRuns) {
  workload::ScenarioConfig config;
  config.clients = 1;  // total order == program order: hash is seed-determined
  config.requests_per_client = 20;
  config.faults = chaos_plan(11);
  const auto first = run_scenario(sched::SchedulerKind::kSat, config);
  const auto second = run_scenario(sched::SchedulerKind::kSat, config);
  ASSERT_TRUE(first.drained);
  ASSERT_TRUE(second.drained);
  EXPECT_TRUE(first.converged);
  EXPECT_TRUE(second.converged);
  ASSERT_FALSE(first.consistency.state_hashes.empty());
  EXPECT_EQ(first.consistency.state_hashes[0], second.consistency.state_hashes[0]);
}

// --- tolerance -------------------------------------------------------------

TEST_F(FaultInjectionTest, DuplicationAbsorbedByAtMostOnceDelivery) {
  workload::ScenarioConfig config;
  config.faults = transport::FaultPlan{}.with_seed(3).duplicate(0.3);
  const auto result = run_scenario(sched::SchedulerKind::kSat, config);
  ASSERT_TRUE(result.drained);
  EXPECT_TRUE(result.converged) << result.consistency.detail;
  EXPECT_GT(result.net.messages_duplicated, 0u);
}

TEST_F(FaultInjectionTest, ReorderingAndDelayRepairedByHoldback) {
  workload::ScenarioConfig config;
  config.faults =
      transport::FaultPlan{}.with_seed(5).delay(paper_us(100), paper_ms(3)).reorder(0.25, 4);
  const auto result = run_scenario(sched::SchedulerKind::kMat, config);
  ASSERT_TRUE(result.drained);
  EXPECT_TRUE(result.converged) << result.consistency.detail;
  EXPECT_GT(result.net.messages_reordered, 0u);
  EXPECT_GT(result.net.messages_fault_delayed, 0u);
}

TEST_F(FaultInjectionTest, CrashedReplicaCatchesUpAfterRestart) {
  runtime::Cluster cluster;
  const auto group = cluster.create_group(3, sched::SchedulerKind::kSat, [] {
    return std::make_unique<workload::KvStore>();
  });
  auto& client = cluster.create_client();
  const auto members = cluster.members(group);
  ASSERT_EQ(members.size(), 3u);

  // Crash the third replica almost immediately, restart it well before
  // the 150 ms (real-time) suspect timeout, so no view change occurs and
  // the missed suffix must be repaired by NACK/retransmission.
  cluster.network().set_fault_plan(transport::FaultPlan{}
                                       .crash_at(paper_ms(5), members[2])
                                       .restart_at(paper_ms(3000), members[2]));

  for (int i = 0; i < 15; ++i) {
    client.invoke(group, "put",
                  workload::KvStore::pack_put("k" + std::to_string(i % 4),
                                              "a" + std::to_string(i)));
  }
  // Let the scheduled restart fire (paper 3000 ms = 30 ms real at 0.01),
  // then issue more traffic so the revived replica notices its gap.
  common::Clock::sleep_real(std::chrono::milliseconds(50));
  for (int i = 0; i < 10; ++i) {
    client.invoke(group, "put",
                  workload::KvStore::pack_put("k" + std::to_string(i % 4),
                                              "b" + std::to_string(i)));
  }

  ASSERT_TRUE(cluster.wait_drained(group, 25, std::chrono::seconds(60)));
  const auto report = repl::check_group(cluster, group);
  EXPECT_TRUE(report.consistent()) << report.detail;
  EXPECT_EQ(report.state_hashes.size(), 3u);  // the restarted replica is back
  const auto stats = cluster.network().stats();
  EXPECT_EQ(stats.node_crashes, 1u);
  EXPECT_EQ(stats.node_restarts, 1u);
}

TEST_F(FaultInjectionTest, ScenarioLetsARestartAfterTheWorkloadFire) {
  // The restart is due long after two short clients are done.  The run
  // must still play it out, and the drain then waits for the revived
  // replica to repair its missed suffix.
  workload::ScenarioConfig config;
  config.requests_per_client = 2;
  config.faults = transport::FaultPlan{}
                      .crash_at(paper_ms(1), common::NodeId(2))
                      .restart_at(paper_ms(3000), common::NodeId(2));
  const auto result = run_scenario(sched::SchedulerKind::kSat, config);
  EXPECT_EQ(result.net.node_crashes, 1u);
  EXPECT_EQ(result.net.node_restarts, 1u);
  ASSERT_TRUE(result.drained);
  EXPECT_TRUE(result.converged) << result.consistency.detail;
  EXPECT_EQ(result.consistency.state_hashes.size(), 3u);
}

// --- timed waits under injected delay -------------------------------------

TEST_F(FaultInjectionTest, WatchTimeoutResolvesIdenticallyUnderDelay) {
  for (const auto kind : workload::all_scheduler_kinds()) {
    if (!sched::make_scheduler(kind)->capabilities().timed_wait) continue;
    SCOPED_TRACE(to_string(kind));

    runtime::Cluster cluster;
    const auto group = cluster.create_group(
        3, kind, [] { return std::make_unique<workload::KvStore>(); });
    auto& client = cluster.create_client();
    cluster.network().set_fault_plan(
        transport::FaultPlan{}.with_seed(9).delay(paper_us(200), paper_ms(2)));

    // Nobody touches the key, so the bounded watch must expire — on
    // every replica, even though each replica's timeout announcement
    // reaches the others late.
    const auto reply = client.invoke(
        group, "watch", workload::KvStore::pack_watch("idle-key", 50));
    common::Reader r(reply);
    EXPECT_FALSE(r.boolean());

    ASSERT_TRUE(cluster.wait_drained(group, 1, std::chrono::seconds(30)));
    const auto report = repl::check_group(cluster, group);
    EXPECT_TRUE(report.consistent()) << report.detail;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(cluster.replica(group, i).scheduler().stats().timeouts_fired, 1u);
    }
  }
}

TEST_F(FaultInjectionTest, StaleGenerationTimeoutIsNoOp) {
  testing::SchedulerCluster cluster(sched::SchedulerKind::kSat, 2);

  // Request 1 starts a long bounded wait (paper 5000 ms = 50 ms real);
  // request 2 notifies it long before that expires.
  cluster.set_body(1, [](testing::BodyCtx& ctx) {
    ctx.lock(1);
    const bool notified = ctx.wait_for(1, 7, paper_ms(5000));
    ctx.trace(notified ? "notified" : "timeout");
    ctx.unlock(1);
  });
  cluster.set_body(2, [](testing::BodyCtx& ctx) {
    ctx.lock(1);
    ctx.notify_all(1, 7);
    ctx.unlock(1);
  });

  cluster.submit(1);
  common::Clock::sleep_real(std::chrono::milliseconds(20));  // let it block
  cluster.submit(2);
  ASSERT_TRUE(cluster.wait_completed(2));

  // The armed timer still fires after the wait already resumed; its
  // (delayed) announcement carries a stale generation.  Inject one more
  // stale announcement explicitly, as a badly delayed duplicate would.
  common::Clock::sleep_real(std::chrono::milliseconds(60));
  common::Writer w;
  w.u8('T');
  w.id(common::ThreadId(0));   // request 1's deterministically assigned thread
  w.id(common::MutexId(1));
  w.id(common::CondVarId(7));
  w.u64(1);                    // that thread's first (long finished) wait
  cluster.broadcast_from(0, w.take());
  common::Clock::sleep_real(std::chrono::milliseconds(20));

  for (int i = 0; i < cluster.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(cluster.trace(i), std::vector<std::string>{"notified"});
    EXPECT_EQ(cluster.replica(i).stats().timeouts_fired, 0u);
    const auto decisions = cluster.replica(i).decision_trace();
    bool saw_stale = false;
    for (const auto& d : decisions) {
      saw_stale |= d.kind == sched::Decision::Kind::kStaleTimeout;
    }
    EXPECT_TRUE(saw_stale);
  }
}

}  // namespace
}  // namespace adets
