// Divergence auditing: detect replicas that disagree, and explain why.
//
// The whole ADETS design exists to prevent replicas from resolving
// locks, condition-variable wakeups or wait timeouts differently; a
// divergence is therefore THE failure mode worth dedicated machinery.
// The auditor collects each live replica's StateHash digest and, on a
// mismatch, dumps a diagnostic assembled from the schedulers' bounded
// decision-trace rings: the per-mutex grant projections are compared
// (the cross-mutex interleaving is legitimately nondeterministic for
// truly multithreaded strategies) and the first index where a replica
// departs from the reference replica is called out.
//
// Use one-shot (`audit_group`) after a drained workload, or run a
// DivergenceAuditor with a period to poll a live cluster — the fault
// injection tests do both.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "runtime/cluster.hpp"
#include "sched/api.hpp"

namespace adets::repl {

/// What the auditor captured from one live replica (only quiescent
/// replicas are captured; one mid-execution is skipped for that audit).
struct ReplicaSnapshot {
  int index = 0;
  std::uint64_t state_hash = 0;
  /// Requests applied when the hash was taken.  Hashes are compared only
  /// between replicas with equal counts: in a totally-ordered system an
  /// equal count means the same prefix was applied, so the hashes must
  /// match — while a replica at a lower count is merely lagging.
  std::uint64_t applied = 0;
  std::vector<sched::Decision> decisions;
};

struct AuditReport {
  bool diverged = false;
  std::vector<ReplicaSnapshot> replicas;
  /// Human-readable dump: hashes, per-replica recent decisions and the
  /// first point of decision-trace disagreement.  Empty when converged.
  std::string diagnostic;
};

/// One-shot audit of every live replica of `group`.
[[nodiscard]] AuditReport audit_group(runtime::Cluster& cluster, common::GroupId group);

/// Per-mutex grantee projection of a decision trace (only kLockGrant
/// entries; scheduler-internal mutexes excluded).  Shared with
/// check_group (consistency.hpp).
[[nodiscard]] std::map<std::uint64_t, std::vector<std::uint64_t>>
per_mutex_decisions(const std::vector<sched::Decision>& decisions);

/// Periodically audits one group of a running cluster on a background
/// thread and latches the first divergence it observes.
class DivergenceAuditor {
 public:
  DivergenceAuditor(runtime::Cluster& cluster, common::GroupId group)
      : cluster_(cluster), group_(group) {}
  ~DivergenceAuditor() { stop(); }

  DivergenceAuditor(const DivergenceAuditor&) = delete;
  DivergenceAuditor& operator=(const DivergenceAuditor&) = delete;

  /// Runs one audit now and latches the report if it diverged.
  AuditReport check();

  /// Starts the background poller (idempotent).
  void start(common::Duration period);
  void stop();

  [[nodiscard]] bool divergence_detected() const {
    return divergence_detected_.load(std::memory_order_acquire);
  }
  /// The first diverged report observed (empty report if none).
  [[nodiscard]] AuditReport first_divergence() const;
  [[nodiscard]] std::uint64_t audits_run() const {
    return audits_run_.load(std::memory_order_relaxed);
  }

 private:
  void poll_loop(common::Duration period);

  runtime::Cluster& cluster_;
  const common::GroupId group_;

  mutable common::Mutex mutex_{"repl::auditor"};
  common::CondVar stop_cv_;
  bool stopping_ ADETS_GUARDED_BY(mutex_) = false;
  bool started_ ADETS_GUARDED_BY(mutex_) = false;
  std::thread poller_;
  AuditReport first_divergence_ ADETS_GUARDED_BY(mutex_);
  std::atomic<bool> divergence_detected_{false};
  std::atomic<std::uint64_t> audits_run_{0};
};

}  // namespace adets::repl
