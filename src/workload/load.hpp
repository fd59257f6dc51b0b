// Closed-loop load driver for the throughput/latency harness.
//
// Simulates N logical clients, each in a closed loop over a replicated
// KvStore: issue one request, wait for the reply, immediately issue the
// next.  Each request is a put of a 32-byte value or a get, half each,
// on one of 256 keys.  Unlike the figure benchmarks (one OS thread per
// client, tens of clients), thousands of logical clients are multiplexed
// over a small number of client *nodes* via Client::invoke_async — each
// completion callback issues the owning logical client's next request on
// the network thread, so 10k clients cost ~16 client nodes, all run by
// that one thread with every node's GCS duties, instead of 30k threads.
//
// All reported times are paper time (real time divided by the
// ADETS_TIME_SCALE factor), matching the rest of the bench suite.
#pragma once

#include <cstdint>

#include "runtime/cluster.hpp"
#include "sched/api.hpp"

namespace adets::workload {

struct LoadConfig {
  sched::SchedulerKind kind = sched::SchedulerKind::kSat;
  int replicas = 3;
  /// Logical closed-loop clients (the paper-style offered load).
  int logical_clients = 1000;
  /// Client nodes the logical clients are multiplexed over.
  int connections = 16;
  /// Measured requests per logical client (after warmup).
  int requests_per_client = 20;
  /// Untimed leading requests per logical client.
  int warmup_per_client = 2;
  std::uint64_t seed = 1;
  /// Network latency model and GCS tunables (the submit hold lives here).
  runtime::ClusterConfig cluster;
};

struct LoadResult {
  /// Every logical client finished its full loop within 180 s (real).
  bool completed = false;
  /// The run completed, every live replica executed every request, and
  /// repl::check_group then found them consistent.
  bool converged = false;
  /// Measured (post-warmup) invocations that completed.
  std::uint64_t invocations = 0;
  /// Paper-time length of the measured window (first measured issue to
  /// last measured completion).
  double duration_s = 0.0;
  /// invocations / duration_s.
  double throughput_rps = 0.0;
  // Client-observed latency percentiles over measured invocations,
  // in paper milliseconds.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  // Network totals for the whole run (warmup included) — the datagram
  // count is what packing submissions is meant to shrink.
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

/// Runs one closed-loop experiment; blocks until done or deadline.
LoadResult run_load(const LoadConfig& config);

}  // namespace adets::workload
