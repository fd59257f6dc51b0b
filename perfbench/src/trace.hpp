// Outside-in tracing for the benchmark's traced runs.
//
// Nothing inside the library is instrumented.  Instead, the traced run
// builds its cluster through Cluster::create_group(SchedulerFactory,
// ObjectFactory) with forwarding wrappers around the real scheduler, its
// SchedulerEnv and the replicated object, and the harness stamps
// Client::invoke_async and its callback.  Every wrapper records spans at
// the public boundary it forwards, keyed by the RequestId (the value
// invoke_async returns, sched::Request::id and SyncContext::request_id()).
//
// Spans go into per-thread buffers (no shared lock on the hot path) and
// are collected once the cluster has stopped.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/object.hpp"
#include "sched/api.hpp"
#include "stats.hpp"

namespace perfbench {

using Nanos = std::int64_t;

/// steady_clock in nanoseconds; every stamp in the benchmark uses it.
Nanos now_ns();

enum class SpanKind : std::uint8_t {
  kDeliver,    // Scheduler::on_request of an application request (point)
  kExecute,    // SchedulerEnv::execute
  kDispatch,   // ReplicatedObject::dispatch; `aux` = ns spent in downcalls
  kLock,       // Scheduler::lock called from application code
  kWait,       // Scheduler::wait called from application code
  kBroadcast,  // SchedulerEnv::broadcast
  kView,       // Scheduler::on_view_change (point)
};

struct Span {
  std::uint64_t request = 0;  // RequestId value; 0 when not request-bound
  Nanos start = 0;
  Nanos end = 0;
  Nanos aux = 0;
  SpanKind kind = SpanKind::kDeliver;
  std::int8_t replica = -1;
};

/// Process-wide span sink with one buffer per recording thread.
/// collect() and reset() may only run while no other thread records
/// (after Cluster::stop() joined the cluster's threads).
class SpanStore {
 public:
  static void record(const Span& span);
  static std::vector<Span> collect();
  static void reset();
};

/// Wraps `inner` (a real scheduler) so every event and downcall of
/// replica `replica` is stamped.  Also wraps the SchedulerEnv the replica
/// passes to start().
std::unique_ptr<adets::sched::Scheduler> traced_scheduler(
    std::unique_ptr<adets::sched::Scheduler> inner, int replica);

/// Wraps a replicated object so dispatch() is stamped, with the time the
/// dispatching thread spent inside scheduler downcalls subtracted out.
std::unique_ptr<adets::runtime::ReplicatedObject> traced_object(
    std::unique_ptr<adets::runtime::ReplicatedObject> inner, int replica);

/// Client-side stamps of one completed measured request.
struct ClientStamp {
  std::uint64_t request = 0;  // RequestId value
  Nanos due = 0;
  Nanos issue_start = 0;  // invoke_async entry
  Nanos issue_end = 0;    // invoke_async return
  Nanos done = 0;         // reply callback
};

/// Span-derived per-layer metrics of one traced run, by name (see
/// layers.json).  Request-bound spans count when their request is one of
/// `stamps`; broadcasts and view changes count when they start inside
/// [window_start, window_end].  Sample counts come back as
/// "samples.<name>".
std::map<std::string, Metric> layer_metrics(const std::vector<Span>& spans,
                                            const std::vector<ClientStamp>& stamps,
                                            Nanos window_start, Nanos window_end);

}  // namespace perfbench
