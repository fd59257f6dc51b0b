// Cross-replica consistency checking.
//
// After (or during) a run, compares the replicas of a group on two
// axes: the object state hash, and the per-mutex projections of the
// schedulers' decision rings (the global interleaving across different
// mutexes is legitimately nondeterministic for truly multithreaded
// strategies; the per-mutex grant order is the determinism contract).
#pragma once

#include <string>
#include <vector>

#include "runtime/cluster.hpp"

namespace adets::repl {

struct ConsistencyReport {
  bool states_match = false;
  bool grant_orders_match = false;
  std::vector<std::uint64_t> state_hashes;
  std::string detail;

  [[nodiscard]] bool consistent() const { return states_match && grant_orders_match; }
};

/// Compares all live replicas of `group`.  Grant orders match when, for
/// every application mutex, each replica's grant sequence is a prefix of
/// the longest one (a lagging replica has simply granted fewer).  A
/// replica whose decision ring has wrapped no longer holds its first
/// grants and is left out of the grant comparison.
ConsistencyReport check_group(runtime::Cluster& cluster, common::GroupId group);

}  // namespace adets::repl
