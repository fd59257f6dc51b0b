#include "replication/audit.hpp"

#include <algorithm>
#include <sstream>

#include "common/clock.hpp"

namespace adets::repl {

std::map<std::uint64_t, std::vector<std::uint64_t>> per_mutex_decisions(
    const std::vector<sched::Decision>& decisions) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> result;
  for (const auto& decision : decisions) {
    if (decision.kind != sched::Decision::Kind::kLockGrant) continue;
    if (decision.mutex.value() >= (1ULL << 61)) continue;  // scheduler-internal
    result[decision.mutex.value()].push_back(decision.thread.value());
  }
  return result;
}

namespace {

/// Appends the tail of one replica's decision ring to the diagnostic.
void dump_decisions(std::ostringstream& out, const ReplicaSnapshot& snapshot,
                    std::size_t tail) {
  out << "  replica " << snapshot.index << " (state hash " << snapshot.state_hash
      << "), last " << std::min(tail, snapshot.decisions.size()) << " of "
      << snapshot.decisions.size() << " recorded decisions:\n";
  const std::size_t begin =
      snapshot.decisions.size() > tail ? snapshot.decisions.size() - tail : 0;
  for (std::size_t i = begin; i < snapshot.decisions.size(); ++i) {
    out << "    " << sched::to_string(snapshot.decisions[i]) << "\n";
  }
}

/// Points at the first per-mutex grant disagreement between a replica
/// and the reference, if any.
void diff_decisions(std::ostringstream& out, const ReplicaSnapshot& reference,
                    const ReplicaSnapshot& other) {
  const auto ref = per_mutex_decisions(reference.decisions);
  const auto got = per_mutex_decisions(other.decisions);
  for (const auto& [mutex, ref_grants] : ref) {
    const auto it = got.find(mutex);
    const auto& other_grants =
        it == got.end() ? std::vector<std::uint64_t>{} : it->second;
    const std::size_t common = std::min(ref_grants.size(), other_grants.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (ref_grants[i] != other_grants[i]) {
        out << "  decision-trace diff: mutex " << mutex << " grant #" << i
            << ": replica " << reference.index << " granted t" << ref_grants[i]
            << ", replica " << other.index << " granted t" << other_grants[i]
            << "\n";
        return;
      }
    }
    if (ref_grants.size() != other_grants.size()) {
      out << "  decision-trace diff: mutex " << mutex << " has "
          << ref_grants.size() << " grants on replica " << reference.index
          << " vs " << other_grants.size() << " on replica " << other.index
          << " (within the retained window)\n";
      return;
    }
  }
  out << "  decision-trace diff: per-mutex grant projections agree within the "
         "retained window (divergence predates the ring or is in object "
         "state only)\n";
}

}  // namespace

AuditReport audit_group(runtime::Cluster& cluster, common::GroupId group) {
  AuditReport report;
  const int size = cluster.group_size(group);
  const auto nodes = cluster.members(group);
  for (int i = 0; i < size; ++i) {
    if (cluster.network().crashed(nodes[i])) continue;
    auto& replica = cluster.replica(group, i);
    const auto observed = replica.try_audit_snapshot();
    if (!observed) continue;  // mid-execution; audit it next round
    ReplicaSnapshot snapshot;
    snapshot.index = i;
    snapshot.state_hash = observed->state_hash;
    snapshot.applied = observed->applied;
    snapshot.decisions = replica.scheduler().decision_trace();
    report.replicas.push_back(std::move(snapshot));
  }
  if (report.replicas.empty()) return report;

  // Compare within equal-applied cohorts only: same count == same
  // totally-ordered prefix == the hashes MUST agree.
  std::map<std::uint64_t, std::vector<std::size_t>> cohorts;
  for (std::size_t i = 0; i < report.replicas.size(); ++i) {
    cohorts[report.replicas[i].applied].push_back(i);
  }
  std::vector<std::size_t> diverged_cohort;
  for (const auto& [applied, indices] : cohorts) {
    const std::uint64_t reference = report.replicas[indices.front()].state_hash;
    if (std::any_of(indices.begin(), indices.end(), [&](std::size_t i) {
          return report.replicas[i].state_hash != reference;
        })) {
      diverged_cohort = indices;
      break;
    }
  }
  if (diverged_cohort.empty()) return report;
  report.diverged = true;

  std::ostringstream out;
  out << "DIVERGENCE in group " << group << " at "
      << report.replicas[diverged_cohort.front()].applied
      << " applied requests: state hashes";
  for (const std::size_t i : diverged_cohort) {
    out << " " << report.replicas[i].state_hash;
  }
  out << "\n";
  for (const std::size_t i : diverged_cohort) {
    dump_decisions(out, report.replicas[i], /*tail=*/16);
  }
  for (std::size_t k = 1; k < diverged_cohort.size(); ++k) {
    diff_decisions(out, report.replicas[diverged_cohort.front()],
                   report.replicas[diverged_cohort[k]]);
  }
  report.diagnostic = out.str();
  return report;
}

AuditReport DivergenceAuditor::check() {
  AuditReport report = audit_group(cluster_, group_);
  audits_run_.fetch_add(1, std::memory_order_relaxed);
  if (report.diverged) {
    const common::MutexLock guard(mutex_);
    if (!divergence_detected_.load(std::memory_order_relaxed)) {
      first_divergence_ = report;
      divergence_detected_.store(true, std::memory_order_release);
    }
  }
  return report;
}

void DivergenceAuditor::start(common::Duration period) {
  const common::MutexLock guard(mutex_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  poller_ = std::thread([this, period] { poll_loop(period); });
}

void DivergenceAuditor::stop() {
  {
    const common::MutexLock guard(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
  const common::MutexLock guard(mutex_);
  started_ = false;
}

void DivergenceAuditor::poll_loop(common::Duration period) {
  while (true) {
    {
      // Deadline loop instead of a predicate wait: `stopping_` is
      // guarded, and guarded members must stay out of wait-predicate
      // lambdas for the thread-safety analysis (see common/mutex.hpp).
      // The auditor polls diagnostics on real time by design; the
      // period never influences replica decisions.
      const auto deadline = common::Clock::now() + period;
      common::MutexLock lock(mutex_);
      while (!stopping_ && common::Clock::now() < deadline) {
        // adets-sa:allow(real-time-wait) diagnostics poll cadence, not decision state
        stop_cv_.wait_until(lock, deadline);
      }
      if (stopping_) return;
    }
    check();
  }
}

AuditReport DivergenceAuditor::first_divergence() const {
  const common::MutexLock guard(mutex_);
  return first_divergence_;
}

}  // namespace adets::repl
