// One measured run of a workload: set-up, the measured window, output
// checks and the metrics computed from them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Builds the cluster through the tracing wrappers and adds the
  /// per-layer metrics.
  bool traced = false;
  /// Set-ups made back to back; the last one is measured and setup_s is
  /// their median.
  int setups = 5;
  /// Replaces the workload's strategy (the self-test's negative control).
  adets::runtime::SchedulerFactory scheduler;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<CheckResult> checks;
  /// End-to-end metrics, plus the per-layer ones on a traced run.
  std::map<std::string, Metric> metrics;
  /// Context for reading the metrics: host steal, generator lateness,
  /// sample counts.
  std::map<std::string, Metric> diagnostics;

  [[nodiscard]] bool correct() const;
};

RunResult run_workload(const Workload& workload, const RunOptions& options);

}  // namespace perfbench
