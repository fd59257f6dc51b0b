// Scheduler statistics counters.
#include <gtest/gtest.h>

#include "sched_harness.hpp"

namespace adets::testing {
namespace {

using sched::SchedulerKind;

class StatsTest : public ::testing::Test,
                  public ::testing::WithParamInterface<SchedulerKind> {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.05);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }
  double saved_scale_ = 1.0;
};

INSTANTIATE_TEST_SUITE_P(Kinds, StatsTest,
                         ::testing::Values(SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa, SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(StatsTest, CountersReflectWorkload) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  SchedulerCluster cluster(GetParam(), 1, config);
  std::vector<std::unique_ptr<std::atomic<bool>>> flag;
  flag.push_back(std::make_unique<std::atomic<bool>>(false));

  cluster.set_body(0, [&](BodyCtx& ctx) {
    ctx.lock(1);
    while (!flag[0]->load()) ctx.wait(1, 2);
    ctx.unlock(1);
  });
  cluster.set_body(1, [&](BodyCtx& ctx) {
    ctx.lock(1);
    flag[0]->store(true);
    ctx.notify_one(1, 2);
    ctx.unlock(1);
  });
  cluster.submit(0);
  common::Clock::sleep_real(std::chrono::milliseconds(20));
  cluster.submit(1);
  ASSERT_TRUE(cluster.wait_completed(2));

  const auto stats = cluster.replica(0).stats();
  EXPECT_GE(stats.lock_grants, 2u);   // both bodies took mutex 1
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.notifies, 1u);
  EXPECT_GE(stats.threads_spawned, 2u);
  EXPECT_EQ(stats.timeouts_fired, 0u);  // unbounded wait, no timer
  if (GetParam() == SchedulerKind::kLsa) {
    EXPECT_GT(stats.broadcasts, 0u);  // mutex tables
  }
  if (GetParam() == SchedulerKind::kPds) {
    EXPECT_GT(stats.rounds, 0u);
  }
  if (GetParam() == SchedulerKind::kSat || GetParam() == SchedulerKind::kMat) {
    EXPECT_GT(stats.activations, 0u);
  }
}

TEST_P(StatsTest, TimedOutWaitIncrementsTimeoutCounter) {
  sched::SchedulerConfig config;
  config.pds_thread_pool = 2;
  SchedulerCluster cluster(GetParam(), 1, config);
  cluster.set_body(0, [](BodyCtx& ctx) {
    ctx.lock(1);
    ctx.wait_for(1, 2, common::paper_ms(40));
    ctx.unlock(1);
  });
  cluster.submit(0);
  ASSERT_TRUE(cluster.wait_completed(1));
  common::Clock::sleep_real(std::chrono::milliseconds(50));
  const auto stats = cluster.replica(0).stats();
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.timeouts_fired, 1u);
}

// The strategies that create one scheduler thread per request (PDS runs
// a fixed set instead).
class WorkerPoolTest : public StatsTest {};

INSTANTIATE_TEST_SUITE_P(Kinds, WorkerPoolTest,
                         ::testing::Values(SchedulerKind::kSeq, SchedulerKind::kSl,
                                           SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(WorkerPoolTest, SequentialRequestsReuseParkedWorkers) {
  // Each request still gets its own scheduler thread, but one submitted
  // after the previous one completed finds that one's worker parked.
  SchedulerCluster cluster(GetParam(), 3);
  constexpr std::uint64_t kRequests = 200;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    cluster.set_body(i, [](BodyCtx& ctx) {
      ctx.lock(1);
      ctx.unlock(1);
    });
  }
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    cluster.submit(i);
    ASSERT_TRUE(cluster.wait_completed(i + 1));
  }
  for (int r = 0; r < cluster.size(); ++r) {
    const auto stats = cluster.replica(r).stats();
    EXPECT_GE(stats.threads_spawned, kRequests) << "replica " << r;
    EXPECT_LE(stats.os_threads_started, 4u) << "replica " << r;
  }
}

}  // namespace
}  // namespace adets::testing
