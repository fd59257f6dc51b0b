// Tests for the consistency checker and the client stub edge cases.
#include <gtest/gtest.h>

#include "racy_scheduler.hpp"
#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
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
  EXPECT_TRUE(report.detail.empty());
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
