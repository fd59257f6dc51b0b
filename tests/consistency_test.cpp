// Tests for the consistency checker and the client stub edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "racy_scheduler.hpp"
#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "workload/kvstore.hpp"
#include "workload/objects.hpp"

namespace adets::repl {
namespace {

using common::GroupId;
using sched::SchedulerKind;
using workload::pack_u64;

class ConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }
  double saved_scale_ = 1.0;
};

TEST_F(ConsistencyTest, HealthyGroupReportsConsistent) {
  runtime::Cluster cluster;
  const GroupId bank = cluster.create_group(
      3, SchedulerKind::kSat, [] { return std::make_unique<workload::BankAccounts>(2); });
  runtime::Client& client = cluster.create_client();
  for (int i = 0; i < 5; ++i) client.invoke(bank, "deposit", pack_u64(0, 1));
  ASSERT_TRUE(cluster.wait_drained(bank, 5));
  const auto report = check_group(cluster, bank);
  EXPECT_TRUE(report.consistent());
  EXPECT_TRUE(report.states_match);
  EXPECT_TRUE(report.grant_orders_match);
  EXPECT_EQ(report.state_hashes.size(), 3u);
  EXPECT_EQ(report.grants_compared, 5u);  // the one account mutex
  EXPECT_TRUE(report.detail.empty());
}

/// Runs `puts` puts over `buckets` bucket mutexes of a KvStore on three
/// replicas, `in_flight` at a time, drains, and checks the group.
ConsistencyReport run_puts(runtime::Cluster& cluster, SchedulerKind kind, int puts,
                           std::uint32_t buckets, int in_flight) {
  const GroupId store = cluster.create_group(
      3, kind, [buckets] { return std::make_unique<workload::KvStore>(buckets); });
  runtime::Client& client = cluster.create_client();
  // Shared with the callbacks, which may outlive this frame.
  const auto replied = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < puts; ++i) {
    while (i - replied->load() >= in_flight) {
      common::Clock::sleep_real(std::chrono::milliseconds(1));
    }
    client.invoke_async(store, "put",
                        workload::KvStore::pack_put("k" + std::to_string(i % 64),
                                                    std::to_string(i)),
                        [replied](common::Bytes) { (*replied)++; });
  }
  EXPECT_TRUE(cluster.wait_drained(store, static_cast<std::uint64_t>(puts)));
  for (int r = 0; r < 3; ++r) {
    // Every ring has wrapped: none still holds the first decision.
    const auto decisions = cluster.replica(store, r).scheduler().decision_trace();
    EXPECT_TRUE(!decisions.empty() && decisions.front().seq > 0) << "replica " << r;
  }
  return check_group(cluster, store);
}

TEST_F(ConsistencyTest, WrappedDecisionRingsAreStillCompared) {
  // 400 puts leave each replica's ring holding only its newest 256
  // decisions.  The grants those windows share are compared by grant
  // ordinal, rather than every wrapped replica being left out.
  runtime::Cluster cluster;
  const auto report = run_puts(cluster, SchedulerKind::kSat, 400, 8, /*in_flight=*/1);
  EXPECT_TRUE(report.consistent()) << report.detail;
  EXPECT_GT(report.grants_compared, 100u);
}

class LongRunConsistency : public ConsistencyTest,
                           public ::testing::WithParamInterface<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, LongRunConsistency,
                         ::testing::Values(SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa, SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(LongRunConsistency, GrantOrdersAgreeAfterTheRingsWrapped) {
  // Concurrent puts over four bucket mutexes, long enough to wrap every
  // ring: the replicas must still grant each mutex in the same order.
  runtime::Cluster cluster;
  const auto report = run_puts(cluster, GetParam(), 400, 4, /*in_flight=*/16);
  EXPECT_TRUE(report.consistent()) << report.detail;
  EXPECT_GT(report.grants_compared, 0u);
}

TEST_F(ConsistencyTest, RacyGroupFailsTheGrantOrderCheck) {
  // Negative control: deposits commute, so the replicas agree on state,
  // but each grants the one account mutex in its own real-time order.
  runtime::Cluster cluster;
  const GroupId bank = cluster.create_group(
      3, [] { return std::make_unique<testing::RacyScheduler>(); },
      [] { return std::make_unique<workload::BankAccounts>(1); });
  runtime::Client& client = cluster.create_client();
  for (int i = 0; i < 8; ++i) {
    client.invoke_async(bank, "deposit", pack_u64(0, 1), [](common::Bytes) {});
  }
  ASSERT_TRUE(cluster.wait_drained(bank, 8));
  const auto report = check_group(cluster, bank);
  EXPECT_TRUE(report.states_match) << report.detail;
  EXPECT_FALSE(report.grant_orders_match);
  EXPECT_EQ(report.grants_compared, 8u);  // all 8 grants of the one mutex
}

TEST_F(ConsistencyTest, CrashedReplicasAreExcluded) {
  runtime::Cluster cluster;
  const GroupId bank = cluster.create_group(
      3, SchedulerKind::kSeq, [] { return std::make_unique<workload::BankAccounts>(2); });
  runtime::Client& client = cluster.create_client();
  client.invoke(bank, "deposit", pack_u64(0, 1));
  ASSERT_TRUE(cluster.wait_drained(bank, 1));
  cluster.crash_replica(bank, 2);
  const auto report = check_group(cluster, bank);
  EXPECT_TRUE(report.consistent());
  EXPECT_EQ(report.state_hashes.size(), 2u);
}

TEST_F(ConsistencyTest, ClientTimesOutWhenGroupUnreachable) {
  runtime::Cluster cluster;
  const GroupId group = cluster.create_group(
      1, SchedulerKind::kSeq, [] { return std::make_unique<workload::EchoService>(); });
  runtime::Client& client = cluster.create_client();
  cluster.crash_replica(group, 0);
  EXPECT_THROW(client.invoke(group, "echo", {}, std::chrono::milliseconds(150)),
               std::runtime_error);
}

TEST_F(ConsistencyTest, OnewayInvocationExecutesWithoutReply) {
  runtime::Cluster cluster;
  const GroupId group = cluster.create_group(
      3, SchedulerKind::kSeq, [] { return std::make_unique<workload::EchoService>(); });
  runtime::Client& client = cluster.create_client();
  client.invoke_oneway(group, "echo", pack_u64(1));
  ASSERT_TRUE(cluster.wait_drained(group, 1));
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.replica(group, r).state_hash(), 1u);  // calls_ == 1
  }
}

TEST_F(ConsistencyTest, NetworkStatsAccumulate) {
  runtime::Cluster cluster;
  const GroupId group = cluster.create_group(
      3, SchedulerKind::kSeq, [] { return std::make_unique<workload::EchoService>(); });
  runtime::Client& client = cluster.create_client();
  const auto before = cluster.network().stats();
  client.invoke(group, "echo", {});
  const auto after = cluster.network().stats();
  EXPECT_GT(after.messages_sent, before.messages_sent);
  EXPECT_GT(after.bytes_sent, before.bytes_sent);
}

}  // namespace
}  // namespace adets::repl
