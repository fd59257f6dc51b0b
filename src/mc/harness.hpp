// Execution harness of the adets-mc model checker.
//
// run_execution() builds a two-replica world for one strategy — each
// replica its own scheduler instance, joined by an emulated total-order
// event bus (mirroring tests/sched_harness.hpp) — installs a McRuntime
// as the global interception point, seeds the scenario's requests, and
// then plays one schedule: at every quiescent point the controller picks
// one enabled choice (from the plan's prefix, a forced override, or the
// deterministic default policy) until the workload drains, deadlocks,
// hangs, or exhausts its budget.  The completed execution is checked for
// the per-execution determinism properties (identical per-mutex grant
// projections, identical traced state and state hashes, deadlock
// freedom, starvation bounds); the cross-schedule property (equal bus
// order implies equal outcome) is the explorer's job, via `order_key`
// and `outcome`.
//
// Executions are process-exclusive (the interceptor is a global) and
// must not overlap; the explorer runs them strictly sequentially.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "mc/model.hpp"
#include "mc/runtime.hpp"
#include "mc/scenario.hpp"

namespace adets::mc {

/// How the controller resolves choices for one execution.
struct SchedulePlan {
  /// Exact choices for steps [0, prefix.size()).  A prefix choice that is
  /// not enabled aborts the execution with a "replay-divergence"
  /// violation when strict (replay mode) or falls back to the default
  /// policy otherwise (exploration re-seeding tolerance).
  std::vector<ChoiceKey> prefix;
  bool strict_prefix = false;
  /// Minimisation overrides past the prefix: step index -> choice (used
  /// when delta-debugging deviation points; missing/disabled entries
  /// fall back to the default policy).
  std::map<std::size_t, ChoiceKey> forced;
  /// Sleep set in force at the last prefix step (the explorer's branch
  /// point).  From there on the controller maintains it — dropping
  /// members that conflict with each executed step — and the default
  /// policy avoids sleeping choices: taking one would replay an
  /// interleaving the explorer has already proven covered.
  std::vector<std::pair<ChoiceKey, Footprint>> sleep;
};

struct RunOptions {
  std::size_t max_steps = 20000;
  McRuntime::Options runtime;
};

/// Strategy names accepted by run_execution: the six ADETS strategies,
/// "pds2" (PDS with pds_variant = 2) and "racy"
/// (tests/racy_scheduler.hpp, explored through the same hooks).
[[nodiscard]] const std::vector<std::string>& known_strategies();

/// True when `strategy` can run `scenario` (capability gates).
[[nodiscard]] bool strategy_supports(const std::string& strategy,
                                     const Scenario& scenario);

[[nodiscard]] ExecutionResult run_execution(const Scenario& scenario,
                                            const std::string& strategy,
                                            const SchedulePlan& plan,
                                            const RunOptions& options = {});

}  // namespace adets::mc
