// Divergence tests of the cross-replica consistency check.
//
// check_group's contract has two sides: every stock strategy must sail
// through fault-heavy runs without a divergence report, and a scheduler
// that actually breaks the determinism contract must be caught — with a
// decision-trace diff naming the first disagreeing lock grant, not just
// a pair of unequal hashes.  The negative control is RacyScheduler
// (tests/racy_scheduler.hpp), which grants locks in real-time order
// perturbed by a replica-local stagger.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/serialization.hpp"
#include "racy_scheduler.hpp"
#include "replication/consistency.hpp"
#include "replication/statehash.hpp"
#include "runtime/cluster.hpp"
#include "runtime/context.hpp"
#include "runtime/object.hpp"
#include "workload/scenario.hpp"

namespace adets {
namespace {

using common::paper_ms;
using common::paper_us;

class DivergenceAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }

 private:
  double saved_scale_ = 1.0;
};

/// Order-sensitive replicated object: the state hash mixes entries in
/// append order, so ANY cross-replica disagreement on the interleaving
/// of concurrent appends diverges the hashes (a last-writer-wins map
/// could mask all but the final race).
class AppendLog : public runtime::ReplicatedObject {
 public:
  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override {
    if (method != "append") throw std::invalid_argument("unknown method: " + method);
    common::Reader r(args);
    const std::string entry = r.str();
    runtime::DetLock lock(ctx, common::MutexId(0));
    log_.push_back(entry);
    return {};
  }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return repl::StateHash{}.mix_range(log_).digest();
  }

 private:
  std::vector<std::string> log_;
};

common::Bytes pack_entry(const std::string& entry) {
  common::Writer w;
  w.str(entry);
  return w.take();
}

/// Two client threads racing appends into one group.
void race_appends(runtime::Cluster& cluster, common::GroupId group,
                  int appends_per_client) {
  runtime::Client* clients[2] = {&cluster.create_client(), &cluster.create_client()};
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < appends_per_client; ++i) {
        clients[c]->invoke(group, "append",
                           pack_entry("c" + std::to_string(c) + "-" +
                                      std::to_string(i)));
      }
    });
  }
  for (auto& t : threads) t.join();
}

// --- positive side: stock strategies never trip the check -----------------

TEST_F(DivergenceAuditTest, StockSchedulersConvergeUnderFaultPlans) {
  for (const auto kind : workload::all_scheduler_kinds()) {
    for (const std::uint64_t seed : {3ULL, 11ULL}) {
      SCOPED_TRACE(to_string(kind) + " seed=" + std::to_string(seed));
      workload::ScenarioConfig config;
      config.requests_per_client = 10;
      config.workload_seed = seed;
      config.faults = transport::FaultPlan{}
                          .with_seed(seed)
                          .duplicate(0.2)
                          .delay(paper_us(100), paper_ms(2))
                          .reorder(0.1, 3);
      const auto result = run_scenario(kind, config);
      ASSERT_TRUE(result.drained);
      EXPECT_TRUE(result.converged) << result.consistency.detail;
      EXPECT_TRUE(result.consistency.detail.empty());
      EXPECT_TRUE(result.artifact_path.empty()) << result.artifact_path;
    }
  }
}

TEST_F(DivergenceAuditTest, StockSchedulerPassesTheRacyWorkload) {
  runtime::Cluster cluster;
  const auto group = cluster.create_group(3, sched::SchedulerKind::kSat,
                                          [] { return std::make_unique<AppendLog>(); });
  race_appends(cluster, group, 20);
  ASSERT_TRUE(cluster.wait_drained(group, 40, std::chrono::seconds(60)));
  const auto report = repl::check_group(cluster, group);
  EXPECT_TRUE(report.consistent()) << report.detail;
}

TEST_F(DivergenceAuditTest, UndrainedRunIsNotCheckedAndWritesNoArtifact) {
  // Total loss starves every client, so the group never drains.  A
  // replica that lags is not a divergence: the run reports drained=false
  // and skips the check instead of comparing replicas mid-run.
  workload::ScenarioConfig config;
  config.requests_per_client = 2;
  config.faults = transport::FaultPlan{}.drop(1.0);
  config.invoke_timeout = std::chrono::milliseconds(100);
  config.drain_timeout = std::chrono::milliseconds(200);
  const auto result = run_scenario(sched::SchedulerKind::kSat, config);
  EXPECT_FALSE(result.drained);
  EXPECT_GT(result.clients_failed, 0u);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.consistency.state_hashes.empty());
  EXPECT_TRUE(result.artifact_path.empty()) << result.artifact_path;
}

// --- negative control: a broken scheduler must be flagged -----------------

TEST_F(DivergenceAuditTest, RacySchedulerIsCaughtWithDecisionTraceDiff) {
  runtime::Cluster cluster;
  const auto group = cluster.create_group(
      3, [] { return std::make_unique<testing::RacyScheduler>(); },
      [] { return std::make_unique<AppendLog>(); });

  race_appends(cluster, group, 20);
  ASSERT_TRUE(cluster.wait_drained(group, 40, std::chrono::seconds(60)));

  const auto report = repl::check_group(cluster, group);
  ASSERT_FALSE(report.consistent())
      << "racy scheduler produced identical replicas by chance";
  EXPECT_FALSE(report.grant_orders_match);
  ASSERT_EQ(report.state_hashes.size(), 3u);

  // The diagnostic names the divergence, dumps every replica's recent
  // decisions and pinpoints where the lock grant streams parted ways.
  EXPECT_NE(report.detail.find("DIVERGENCE"), std::string::npos) << report.detail;
  EXPECT_NE(report.detail.find("decision-trace diff"), std::string::npos)
      << report.detail;
  for (int replica = 0; replica < 3; ++replica) {
    EXPECT_NE(report.detail.find("replica " + std::to_string(replica) + " (state hash"),
              std::string::npos)
        << report.detail;
  }
  EXPECT_NE(report.detail.find("grant m0 -> t"), std::string::npos) << report.detail;
}

// --- projection helper ----------------------------------------------------

TEST_F(DivergenceAuditTest, PerMutexProjectionKeepsOnlyApplicationGrants) {
  const auto grant = [](std::uint64_t seq, std::uint64_t mutex, std::uint64_t thread) {
    return sched::Decision{sched::Decision::Kind::kLockGrant, seq,
                           common::MutexId(mutex), common::CondVarId::invalid(),
                           common::ThreadId(thread), 0};
  };
  std::vector<sched::Decision> decisions;
  decisions.push_back(grant(0, 5, 1));
  decisions.push_back(grant(1, sched::kFirstInternalMutexId + 3, 9));
  decisions.push_back(sched::Decision{sched::Decision::Kind::kNotify, 2,
                                      common::MutexId(5), common::CondVarId(1),
                                      common::ThreadId(4), 0});
  decisions.push_back(grant(3, 5, 2));
  decisions.push_back(grant(4, 6, 7));

  const auto projection = sched::per_mutex_decisions(decisions);
  ASSERT_EQ(projection.size(), 2u);
  EXPECT_EQ(projection.at(5), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(projection.at(6), (std::vector<std::uint64_t>{7}));
}

}  // namespace
}  // namespace adets
