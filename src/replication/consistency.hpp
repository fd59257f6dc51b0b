// Cross-replica consistency checking.
//
// The whole ADETS design exists so that replicas resolve locks,
// condition-variable wakeups and wait timeouts identically; a replica
// that disagrees is therefore THE failure mode worth a dedicated check.
// After a drained run, check_group compares the replicas of a group on
// two axes: the object state hash, and the lock grants of the
// schedulers' decision rings, aligned per mutex by grant ordinal.
// On a mismatch it explains itself: the hashes, each replica's recent
// decisions and the first grant where a replica departs from the
// reference replica.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"

namespace adets::repl {

struct ConsistencyReport {
  bool states_match = false;
  bool grant_orders_match = false;
  std::vector<std::uint64_t> state_hashes;
  /// Grants (application mutex, ordinal) that at least two live replicas
  /// still held and that were therefore compared.
  std::size_t grants_compared = 0;
  /// Empty when consistent.  Otherwise a dump that starts with a
  /// "DIVERGENCE" line (the state hashes), then each replica's last 16
  /// decisions and a "decision-trace diff" line per disagreeing replica.
  std::string detail;

  [[nodiscard]] bool consistent() const { return states_match && grant_orders_match; }
};

/// Compares all live replicas of `group`.  Grant orders match when every
/// grant of an application mutex that two replicas' decision rings both
/// still hold, identified by its grant ordinal, names the same thread.
/// A lagging replica has simply granted fewer, and a wrapped ring keeps
/// only its newest grants; both are compared where they overlap.  Call
/// it after Cluster::wait_drained: it reads each replica's object, which
/// a request still executing would be writing.
ConsistencyReport check_group(runtime::Cluster& cluster, common::GroupId group);

}  // namespace adets::repl
