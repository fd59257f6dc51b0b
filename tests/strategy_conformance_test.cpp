// Cross-strategy determinism conformance.
//
// Every SchedulerKind must (a) keep a 3-replica cluster convergent under
// the canonical concurrent workload, and (b) compute the SAME final
// state as every other strategy when the request order is fixed — with a
// single client the total order equals program order, so the end state
// is a pure function of the workload seed and must not depend on which
// scheduling strategy executed it.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/clock.hpp"
#include "workload/scenario.hpp"

namespace adets {
namespace {

class ConformanceTest : public ::testing::TestWithParam<sched::SchedulerKind> {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }

 private:
  double saved_scale_ = 1.0;
};

TEST_P(ConformanceTest, ReplicasConvergeUnderConcurrentClients) {
  workload::ScenarioConfig config;
  config.replicas = 3;
  config.clients = 2;
  config.requests_per_client = 12;
  const auto result = run_scenario(GetParam(), config);
  ASSERT_TRUE(result.drained);
  EXPECT_TRUE(result.converged) << result.consistency.detail;
  ASSERT_EQ(result.consistency.state_hashes.size(), 3u);
  EXPECT_EQ(result.consistency.state_hashes[0], result.consistency.state_hashes[1]);
  EXPECT_EQ(result.consistency.state_hashes[0], result.consistency.state_hashes[2]);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ConformanceTest,
                         ::testing::ValuesIn(workload::all_scheduler_kinds()),
                         [](const auto& info) { return to_string(info.param); });

TEST(CrossStrategyConformance, FixedOrderYieldsOneStateAcrossAllStrategies) {
  const double saved_scale = common::Clock::scale();
  common::Clock::set_scale(0.01);

  std::map<std::string, std::uint64_t> hash_by_kind;
  for (const auto kind : workload::all_scheduler_kinds()) {
    workload::ScenarioConfig config;
    config.clients = 1;  // total order == program order
    config.requests_per_client = 16;
    config.workload_seed = 21;
    const auto result = run_scenario(kind, config);
    ASSERT_TRUE(result.drained) << to_string(kind);
    ASSERT_TRUE(result.converged) << to_string(kind) << result.consistency.detail;
    ASSERT_FALSE(result.consistency.state_hashes.empty());
    hash_by_kind[to_string(kind)] = result.consistency.state_hashes[0];
  }

  const auto reference = hash_by_kind.begin()->second;
  for (const auto& [kind, hash] : hash_by_kind) {
    EXPECT_EQ(hash, reference) << kind << " disagrees with the other strategies";
  }
  common::Clock::set_scale(saved_scale);
}

}  // namespace
}  // namespace adets
