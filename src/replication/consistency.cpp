#include "replication/consistency.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "replication/audit.hpp"

namespace adets::repl {

ConsistencyReport check_group(runtime::Cluster& cluster, common::GroupId group) {
  ConsistencyReport report;
  const int size = cluster.group_size(group);
  const auto nodes = cluster.members(group);

  std::vector<int> live;
  for (int i = 0; i < size; ++i) {
    if (!cluster.network().crashed(nodes[i])) live.push_back(i);
  }
  if (live.empty()) {
    report.detail = "no live replicas";
    return report;
  }

  report.states_match = true;
  report.grant_orders_match = true;
  const std::uint64_t reference_hash = cluster.replica(group, live[0]).state_hash();
  // Per mutex, the longest grant sequence seen so far.  Every replica's
  // sequence must be a prefix of it, or extend it.
  std::map<std::uint64_t, std::vector<std::uint64_t>> longest;

  std::ostringstream detail;
  for (const int i : live) {
    auto& replica = cluster.replica(group, i);
    const std::uint64_t hash = replica.state_hash();
    report.state_hashes.push_back(hash);
    if (hash != reference_hash) {
      report.states_match = false;
      detail << "replica " << i << " state hash " << hash << " != reference "
             << reference_hash << "; ";
    }
    const auto decisions = replica.scheduler().decision_trace();
    if (!decisions.empty() && decisions.front().seq != 0) continue;  // wrapped
    for (auto& [mutex, grants] : per_mutex_decisions(decisions)) {
      auto& reference = longest[mutex];
      if (grants.size() > reference.size()) std::swap(grants, reference);
      if (!std::equal(grants.begin(), grants.end(), reference.begin())) {
        report.grant_orders_match = false;
        detail << "replica " << i << " grant order diverges on mutex " << mutex
               << "; ";
      }
    }
  }
  report.detail = detail.str();
  return report;
}

}  // namespace adets::repl
