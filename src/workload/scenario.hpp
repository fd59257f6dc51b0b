// Fault-injection scenario runner.
//
// Executes one canonical seeded KvStore workload against a replica
// group running an arbitrary scheduler — by SchedulerKind or through a
// custom SchedulerFactory — under a transport::FaultPlan, then drains
// the group and checks it with repl::check_group.  This is the harness
// the fault-injection and divergence-audit tests are built on, and the
// convergence gate later performance PRs are validated against: every
// strategy must reach one state hash and one per-mutex grant order on
// every replica under every fault seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lin/checker.hpp"
#include "lin/history.hpp"
#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "transport/fault.hpp"

namespace adets::workload {

struct ScenarioConfig {
  int replicas = 3;
  /// Concurrent client threads; keep 1 when comparing *final hashes
  /// across runs* (a single submission order makes the end state a pure
  /// function of the workload seed).
  int clients = 2;
  int requests_per_client = 12;
  std::uint64_t workload_seed = 1;
  /// Armed on the cluster's network before traffic starts.  Its node
  /// events all fire before the run drains, even if the workload is done.
  transport::FaultPlan faults;
  sched::SchedulerConfig sched;
  std::chrono::milliseconds drain_timeout = std::chrono::seconds(120);
  /// Per-invocation client timeout (real time).  Lower it for plans
  /// that are expected to starve clients (e.g. total loss).
  std::chrono::milliseconds invoke_timeout = std::chrono::seconds(60);
};

struct ScenarioResult {
  bool drained = false;
  /// The run drained and check_group found every live replica on one
  /// state hash and one per-mutex grant order.
  bool converged = false;
  /// check_group's report, taken after the drain.  Left empty when the
  /// run did not drain: a replica that lags is not a divergence.
  repl::ConsistencyReport consistency;
  transport::NetworkStats net;
  /// Clients whose invocation timed out (the scenario still returns a
  /// result with drained=false rather than propagating the failure).
  std::uint64_t clients_failed = 0;
  /// The merged client-observable history (always recorded).
  lin::History history;
  /// Linearizability verdict on `history`, checked after the drain with
  /// lin::CheckOptions' default budget.  A timed-out invocation stays in
  /// the history as a pending operation, so the audit is sound even under
  /// storms that starve clients.  See lin.explanation /
  /// lin.counterexample on failure.
  lin::CheckResult lin;
  /// Path of the machine-readable artifact dumped when the run diverged
  /// or was non-linearizable ("" when the run was clean or the dump
  /// failed).  Replay with `tools/lincheck <path>`.
  std::string artifact_path;
};

/// Runs the canonical workload under `kind`.
ScenarioResult run_scenario(sched::SchedulerKind kind, const ScenarioConfig& config);

/// Runs it under a caller-supplied scheduler factory (e.g. a broken
/// scheduler used as the consistency check's negative control).
ScenarioResult run_scenario(const runtime::SchedulerFactory& scheduler_factory,
                            const ScenarioConfig& config);

/// All six strategies of the paper, in survey order.
[[nodiscard]] std::vector<sched::SchedulerKind> all_scheduler_kinds();

}  // namespace adets::workload
