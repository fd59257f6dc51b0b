#include "replication/consistency.hpp"

#include <algorithm>
#include <sstream>

namespace adets::repl {
namespace {

/// What check_group read from one live replica.
struct Observed {
  int index = 0;
  std::uint64_t state_hash = 0;
  std::vector<sched::Decision> decisions;
  /// Its hash or a grant order departs from the replicas before it.
  bool disagrees = false;
};

/// Appends the tail of one replica's decision ring to the diagnostic.
void dump_decisions(std::ostringstream& out, const Observed& replica, std::size_t tail) {
  out << "  replica " << replica.index << " (state hash " << replica.state_hash
      << "), last " << std::min(tail, replica.decisions.size()) << " of "
      << replica.decisions.size() << " recorded decisions:\n";
  const std::size_t begin =
      replica.decisions.size() > tail ? replica.decisions.size() - tail : 0;
  for (std::size_t i = begin; i < replica.decisions.size(); ++i) {
    out << "    " << sched::to_string(replica.decisions[i]) << "\n";
  }
}

/// Points at the first per-mutex grant disagreement between a replica
/// and the reference, if any.
void diff_decisions(std::ostringstream& out, const Observed& reference,
                    const Observed& other) {
  const auto ref = sched::per_mutex_decisions(reference.decisions);
  const auto got = sched::per_mutex_decisions(other.decisions);
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

/// The diagnostic of an inconsistent group; `replicas.front()` is the
/// reference every disagreeing replica is diffed against.
std::string explain(common::GroupId group, const ConsistencyReport& report,
                    const std::vector<Observed>& replicas) {
  std::ostringstream out;
  out << "DIVERGENCE in group " << group << ": state hashes";
  for (const std::uint64_t hash : report.state_hashes) out << " " << hash;
  out << (report.states_match ? " (equal)" : " (differ)") << ", per-mutex grant orders "
      << (report.grant_orders_match ? "agree" : "differ") << "\n";
  for (const Observed& replica : replicas) dump_decisions(out, replica, /*tail=*/16);
  for (const Observed& replica : replicas) {
    if (replica.disagrees) diff_decisions(out, replicas.front(), replica);
  }
  return out.str();
}

}  // namespace

ConsistencyReport check_group(runtime::Cluster& cluster, common::GroupId group) {
  ConsistencyReport report;
  const int size = cluster.group_size(group);
  const auto nodes = cluster.members(group);

  std::vector<Observed> replicas;
  for (int i = 0; i < size; ++i) {
    if (cluster.network().crashed(nodes[i])) continue;
    auto& replica = cluster.replica(group, i);
    replicas.push_back(Observed{i, replica.state_hash(), replica.scheduler().decision_trace()});
  }
  if (replicas.empty()) {
    report.detail = "no live replicas";
    return report;
  }

  report.states_match = true;
  report.grant_orders_match = true;
  // Per mutex, the longest grant sequence seen so far.  Every replica's
  // sequence must be a prefix of it, or extend it.
  std::map<std::uint64_t, std::vector<std::uint64_t>> longest;
  for (Observed& replica : replicas) {
    report.state_hashes.push_back(replica.state_hash);
    if (replica.state_hash != replicas.front().state_hash) {
      report.states_match = false;
      replica.disagrees = true;
    }
    const auto& decisions = replica.decisions;
    if (!decisions.empty() && decisions.front().seq != 0) continue;  // wrapped
    for (auto& [mutex, grants] : sched::per_mutex_decisions(decisions)) {
      auto& reference = longest[mutex];
      if (grants.size() > reference.size()) std::swap(grants, reference);
      if (!std::equal(grants.begin(), grants.end(), reference.begin())) {
        report.grant_orders_match = false;
        replica.disagrees = true;
      }
    }
  }
  if (!report.consistent()) report.detail = explain(group, report, replicas);
  return report;
}

}  // namespace adets::repl
