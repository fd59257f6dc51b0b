#include "replication/consistency.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace adets::repl {
namespace {

/// Per application mutex, the grants a decision ring still holds:
/// grant ordinal -> grantee thread.
using GrantsByOrdinal = std::map<std::uint64_t, std::map<std::uint64_t, std::uint64_t>>;

GrantsByOrdinal grants_by_ordinal(const std::vector<sched::Decision>& decisions) {
  GrantsByOrdinal grants;
  for (const sched::Decision& decision : decisions) {
    if (decision.kind != sched::Decision::Kind::kLockGrant ||
        sched::is_internal_mutex(decision.mutex)) {
      continue;
    }
    grants[decision.mutex.value()][decision.ordinal] = decision.thread.value();
  }
  return grants;
}

/// What check_group read from one live replica.
struct Observed {
  int index = 0;
  std::uint64_t state_hash = 0;
  std::vector<sched::Decision> decisions;
  GrantsByOrdinal grants;
  /// Its hash or a grant departs from the replicas before it.
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

/// Points at the first grant, by mutex and ordinal, that a replica and
/// the reference both retain and disagree on, if any.
void diff_decisions(std::ostringstream& out, const Observed& reference,
                    const Observed& other) {
  for (const auto& [mutex, ref_grants] : reference.grants) {
    const auto it = other.grants.find(mutex);
    if (it == other.grants.end()) continue;
    for (const auto& [ordinal, thread] : ref_grants) {
      const auto got = it->second.find(ordinal);
      if (got != it->second.end() && got->second != thread) {
        out << "  decision-trace diff: mutex " << mutex << " grant #" << ordinal
            << ": replica " << reference.index << " granted t" << thread
            << ", replica " << other.index << " granted t" << got->second << "\n";
        return;
      }
    }
  }
  out << "  decision-trace diff: the grants both replicas retain agree "
         "(divergence predates the rings or is in object state only)\n";
}

/// The diagnostic of an inconsistent group; `replicas.front()` is the
/// reference every disagreeing replica is diffed against.
std::string explain(common::GroupId group, const ConsistencyReport& report,
                    const std::vector<Observed>& replicas) {
  std::ostringstream out;
  out << "DIVERGENCE in group " << group << ": state hashes";
  for (const std::uint64_t hash : report.state_hashes) out << " " << hash;
  out << (report.states_match ? " (equal)" : " (differ)") << ", per-mutex grant orders "
      << (report.grant_orders_match ? "agree" : "differ") << " ("
      << report.grants_compared << " grants compared)\n";
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
  // Per mutex and grant ordinal, the grantee the first replica that
  // retains that grant names, and how many replicas retain it.
  struct FirstSeen {
    std::uint64_t thread = 0;
    int holders = 0;
  };
  std::map<std::uint64_t, std::map<std::uint64_t, FirstSeen>> seen;
  for (Observed& replica : replicas) {
    report.state_hashes.push_back(replica.state_hash);
    if (replica.state_hash != replicas.front().state_hash) {
      report.states_match = false;
      replica.disagrees = true;
    }
    replica.grants = grants_by_ordinal(replica.decisions);
    for (const auto& [mutex, grants] : replica.grants) {
      auto& by_ordinal = seen[mutex];
      for (const auto& [ordinal, thread] : grants) {
        FirstSeen& first = by_ordinal.try_emplace(ordinal, FirstSeen{thread, 0}).first->second;
        if (++first.holders == 2) report.grants_compared++;
        if (first.thread != thread) {
          report.grant_orders_match = false;
          replica.disagrees = true;
        }
      }
    }
  }
  if (!report.consistent()) report.detail = explain(group, report, replicas);
  return report;
}

}  // namespace adets::repl
