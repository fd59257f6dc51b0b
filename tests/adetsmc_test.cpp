// Regression tests for the adets-mc model checker (src/mc/).
//
// The negative control: adetsmc must catch tests/racy_scheduler.hpp (a
// scheduler that grants locks in real-time order) on both racy
// scenarios with a minimized, deterministically replayable divergence
// trace.  The positive
// controls: exhaustive DPOR exploration must complete with zero
// violations for SEQ on the contended two-request lock scenario and for
// LSA on the single-request protocol-pipeline scenario, in exactly the
// number of schedules those spaces hold, and every strategy must
// survive a bounded sweep of its applicable scenarios.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/harness.hpp"
#include "mc/scenario.hpp"
#include "mc/trace.hpp"

namespace {

using adets::mc::ExecutionResult;
using adets::mc::ExploreOptions;
using adets::mc::ExploreReport;
using adets::mc::Scenario;

const Scenario* scenario(const char* name) {
  const Scenario* s = adets::mc::find_scenario(name);
  EXPECT_NE(s, nullptr) << "unknown scenario " << name;
  return s;
}

TEST(AdetsMcTest, RacySchedulerDivergenceFoundMinimizedAndReplayable) {
  for (const char* name : {"racy_locks", "racy_kvreg"}) {
    const Scenario* racy = scenario(name);
    ASSERT_NE(racy, nullptr);

    ExploreOptions options;
    options.preemption_bound = 2;
    options.max_schedules = 500;
    options.max_seconds = 60.0;
    const ExploreReport report = adets::mc::explore(*racy, "racy", options);

    ASSERT_TRUE(report.found_violation) << name << ": " << report.report;
    bool grant_divergence = false;
    for (const adets::mc::Violation& v : report.violations) {
      grant_divergence = grant_divergence || v.property == "grant-divergence";
    }
    EXPECT_TRUE(grant_divergence) << name << ": " << report.report;
    ASSERT_FALSE(report.witness.empty()) << name;

    // The minimized witness must reproduce the violation on strict
    // replay, and two replays must agree byte-for-byte.
    const ExecutionResult first =
        adets::mc::replay_trace(*racy, "racy", report.witness, {});
    ASSERT_FALSE(first.violations.empty()) << name << ": " << first.report;
    const ExecutionResult second =
        adets::mc::replay_trace(*racy, "racy", report.witness, {});
    EXPECT_EQ(first.order_key, second.order_key) << name;
    EXPECT_EQ(first.outcome, second.outcome) << name;
    EXPECT_EQ(first.report, second.report) << name;
  }
}

TEST(AdetsMcTest, ExhaustiveSeqContendedLocksHasNoViolations) {
  const Scenario* locks2 = scenario("locks2");
  ASSERT_NE(locks2, nullptr);

  ExploreOptions options;
  options.preemption_bound = -1;  // full DPOR
  options.max_schedules = 5000;
  options.max_seconds = 120.0;
  const ExploreReport report = adets::mc::explore(*locks2, "seq", options);

  EXPECT_TRUE(report.exhausted) << report.report;
  EXPECT_FALSE(report.found_violation) << report.report;
  EXPECT_EQ(report.schedules, report.completed) << report.report;
  // The size of the space: a change to what the harness or a scheduler
  // records as a scheduling step shows up here, not as a silent shrink.
  EXPECT_EQ(report.schedules, 121u) << report.report;
}

TEST(AdetsMcTest, ExhaustiveLsaProtocolPipelineHasNoViolations) {
  const Scenario* single = scenario("single");
  ASSERT_NE(single, nullptr);

  ExploreOptions options;
  options.preemption_bound = -1;  // full DPOR
  options.max_schedules = 30000;
  options.max_seconds = 240.0;
  const ExploreReport report = adets::mc::explore(*single, "lsa", options);

  EXPECT_TRUE(report.exhausted) << report.report;
  EXPECT_FALSE(report.found_violation) << report.report;
  EXPECT_EQ(report.schedules, 10519u) << report.report;
}

TEST(AdetsMcTest, BatchedDeliveryPreservesGrantTraceEquality) {
  // The seqbatch scenario models one sequencing round's SeqBatch: all four
  // requests start back-to-back with no delivery interleaving between
  // them.  Under a bounded exploration no strategy may diverge the
  // per-mutex grant traces across replicas.
  const Scenario* seqbatch = scenario("seqbatch");
  ASSERT_NE(seqbatch, nullptr);

  for (const std::string strategy : {"seq", "sat"}) {
    ExploreOptions options;
    options.preemption_bound = 2;
    options.max_schedules = 200;
    options.max_seconds = 60.0;
    const ExploreReport report = adets::mc::explore(*seqbatch, strategy, options);
    EXPECT_FALSE(report.found_violation)
        << strategy << "/seqbatch: " << report.report;
    EXPECT_GT(report.completed, 0u) << strategy << "/seqbatch: " << report.report;
  }
}

TEST(AdetsMcTest, BoundedSweepAllStrategiesAllScenariosHasNoViolations) {
  for (const std::string strategy : {"seq", "sl", "sat", "mat", "lsa", "pds", "pds2"}) {
    for (const Scenario& s : adets::mc::scenarios()) {
      if (!adets::mc::strategy_supports(strategy, s)) continue;
      ExploreOptions options;
      options.preemption_bound = 2;
      options.max_schedules = 60;
      options.max_seconds = 20.0;
      const ExploreReport report = adets::mc::explore(s, strategy, options);
      EXPECT_FALSE(report.found_violation)
          << strategy << "/" << s.name << ": " << report.report;
    }
  }
}

TEST(AdetsMcTest, TraceFileRoundTrips) {
  adets::mc::TraceFile trace;
  trace.strategy = "racy";
  trace.scenario = "racy_locks";
  trace.choices = {{adets::mc::ChoiceKey::Kind::kStep, 2, 0},
                   {adets::mc::ChoiceKey::Kind::kTimeout, 200, 0},
                   {adets::mc::ChoiceKey::Kind::kTimer, 1, 42}};
  const std::string rendered = adets::mc::render_trace(trace);
  const auto parsed = adets::mc::parse_trace(rendered);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->strategy, trace.strategy);
  EXPECT_EQ(parsed->scenario, trace.scenario);
  ASSERT_EQ(parsed->choices.size(), trace.choices.size());
  for (std::size_t i = 0; i < trace.choices.size(); ++i) {
    EXPECT_EQ(parsed->choices[i], trace.choices[i]) << "choice " << i;
  }
}

}  // namespace
