#include "trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <unordered_map>
#include <utility>

#include "runtime/context.hpp"
#include "stats.hpp"

namespace perfbench {

namespace sched = adets::sched;
namespace runtime = adets::runtime;
namespace common = adets::common;

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- span store ---------------------------------------------------------------

namespace {

struct Buffer {
  std::vector<Span> spans;
  Buffer* next = nullptr;
};

// Registration is a lock-free push, once per thread and epoch; SAT
// spawns a thread per request, so a mutex here would sit on every
// request's path.
std::atomic<Buffer*> g_head{nullptr};
std::atomic<std::uint64_t> g_epoch{1};
thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_epoch = 0;

/// Frees whatever the last run left behind at process exit.
struct BufferListOwner {
  BufferListOwner() = default;
  BufferListOwner(const BufferListOwner&) = delete;
  BufferListOwner& operator=(const BufferListOwner&) = delete;
  ~BufferListOwner() { SpanStore::reset(); }
} g_owner;

/// What the calling thread is doing, as seen by the wrappers: the
/// request it executes and the time its current dispatch spent in
/// scheduler downcalls.
struct ThreadContext {
  std::uint64_t request = 0;
  Nanos downcall_ns = 0;
};
thread_local ThreadContext t_ctx;

}  // namespace

void SpanStore::record(const Span& span) {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (t_buffer == nullptr || t_epoch != epoch) {
    auto* buffer = new Buffer;
    buffer->spans.reserve(64);
    buffer->next = g_head.load(std::memory_order_relaxed);
    while (!g_head.compare_exchange_weak(buffer->next, buffer, std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
    t_buffer = buffer;
    t_epoch = epoch;
  }
  t_buffer->spans.push_back(span);
}

std::vector<Span> SpanStore::collect() {
  std::vector<Span> all;
  for (Buffer* b = g_head.load(std::memory_order_acquire); b != nullptr; b = b->next) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void SpanStore::reset() {
  Buffer* b = g_head.exchange(nullptr, std::memory_order_acq_rel);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  while (b != nullptr) {
    Buffer* next = b->next;
    delete b;
    b = next;
  }
}

// --- forwarding wrappers --------------------------------------------------------

namespace {

void record(std::uint64_t request, Nanos start, Nanos end, SpanKind kind, int replica,
            Nanos aux = 0) {
  SpanStore::record(Span{request, start, end, aux, kind, static_cast<std::int8_t>(replica)});
}

/// Runs `call`, adds its duration to the dispatch's downcall time and
/// returns its [start, end].
template <typename Call>
std::pair<Nanos, Nanos> downcall(Call&& call) {
  const Nanos start = now_ns();
  std::forward<Call>(call)();
  const Nanos end = now_ns();
  t_ctx.downcall_ns += end - start;
  return {start, end};
}

class TracingEnv final : public sched::SchedulerEnv {
 public:
  TracingEnv(sched::SchedulerEnv& inner, int replica) : inner_(inner), replica_(replica) {}

  void execute(const sched::Request& request) override {
    const std::uint64_t saved = t_ctx.request;
    t_ctx.request = request.id.value();
    const Nanos start = now_ns();
    try {
      inner_.execute(request);
    } catch (...) {
      t_ctx.request = saved;
      throw;
    }
    record(request.id.value(), start, now_ns(), SpanKind::kExecute, replica_);
    t_ctx.request = saved;
  }

  void broadcast(const common::Bytes& payload) override {
    const Nanos start = now_ns();
    inner_.broadcast(payload);
    record(t_ctx.request, start, now_ns(), SpanKind::kBroadcast, replica_);
  }

  [[nodiscard]] common::NodeId self() const override { return inner_.self(); }
  [[nodiscard]] std::vector<common::NodeId> view_members() const override {
    return inner_.view_members();
  }

 private:
  sched::SchedulerEnv& inner_;
  const int replica_;
};

class TracingScheduler final : public sched::Scheduler {
 public:
  TracingScheduler(std::unique_ptr<sched::Scheduler> inner, int replica)
      : replica_(replica), inner_(std::move(inner)) {}
  TracingScheduler(const TracingScheduler&) = delete;
  TracingScheduler& operator=(const TracingScheduler&) = delete;

  [[nodiscard]] sched::SchedulerKind kind() const override { return inner_->kind(); }
  [[nodiscard]] sched::SchedulerCapabilities capabilities() const override {
    return inner_->capabilities();
  }

  void start(sched::SchedulerEnv& env) override {
    env_ = std::make_unique<TracingEnv>(env, replica_);
    inner_->start(*env_);
  }
  void stop() override { inner_->stop(); }

  void on_request(sched::Request request) override {
    if (request.kind == sched::RequestKind::kApplication) {
      const Nanos at = now_ns();
      record(request.id.value(), at, at, SpanKind::kDeliver, replica_);
    }
    inner_->on_request(std::move(request));
  }
  void on_reply(common::RequestId nested_id) override { inner_->on_reply(nested_id); }
  void on_scheduler_message(common::NodeId sender, const common::Bytes& payload) override {
    inner_->on_scheduler_message(sender, payload);
  }
  void on_view_change(const std::vector<common::NodeId>& members) override {
    const Nanos at = now_ns();
    record(0, at, at, SpanKind::kView, replica_);
    inner_->on_view_change(members);
  }

  void lock(common::MutexId mutex) override {
    const auto [start, end] = downcall([&] { inner_->lock(mutex); });
    record(t_ctx.request, start, end, SpanKind::kLock, replica_);
  }
  void unlock(common::MutexId mutex) override {
    downcall([&] { inner_->unlock(mutex); });
  }
  sched::WaitResult wait(common::MutexId mutex, common::CondVarId condvar,
                         common::Duration timeout) override {
    sched::WaitResult result;
    const auto [start, end] =
        downcall([&] { result = inner_->wait(mutex, condvar, timeout); });
    record(t_ctx.request, start, end, SpanKind::kWait, replica_);
    return result;
  }
  void notify_one(common::MutexId mutex, common::CondVarId condvar) override {
    downcall([&] { inner_->notify_one(mutex, condvar); });
  }
  void notify_all(common::MutexId mutex, common::CondVarId condvar) override {
    downcall([&] { inner_->notify_all(mutex, condvar); });
  }
  void yield() override {
    downcall([&] { inner_->yield(); });
  }
  void before_nested_call(common::RequestId nested_id) override {
    downcall([&] { inner_->before_nested_call(nested_id); });
  }
  void after_nested_call(common::RequestId nested_id) override {
    downcall([&] { inner_->after_nested_call(nested_id); });
  }

  void set_trace(bool enabled) override { inner_->set_trace(enabled); }
  [[nodiscard]] std::vector<sched::GrantRecord> grant_trace() const override {
    return inner_->grant_trace();
  }
  [[nodiscard]] std::vector<sched::Decision> decision_trace() const override {
    return inner_->decision_trace();
  }
  [[nodiscard]] std::uint64_t completed_requests() const override {
    return inner_->completed_requests();
  }
  [[nodiscard]] sched::SchedulerStats stats() const override { return inner_->stats(); }

 private:
  const int replica_;
  // Declared before inner_, so it outlives the scheduler that calls it.
  std::unique_ptr<TracingEnv> env_;
  std::unique_ptr<sched::Scheduler> inner_;
};

class TracingObject final : public runtime::ReplicatedObject {
 public:
  TracingObject(std::unique_ptr<runtime::ReplicatedObject> inner, int replica)
      : inner_(std::move(inner)), replica_(replica) {}

  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override {
    const Nanos saved = t_ctx.downcall_ns;
    t_ctx.downcall_ns = 0;
    const Nanos start = now_ns();
    common::Bytes result;
    try {
      result = inner_->dispatch(method, args, ctx);
    } catch (...) {
      t_ctx.downcall_ns = saved;
      throw;
    }
    record(ctx.request_id().value(), start, now_ns(), SpanKind::kDispatch, replica_,
           t_ctx.downcall_ns);
    t_ctx.downcall_ns = saved;
    return result;
  }

  [[nodiscard]] std::uint64_t state_hash() const override { return inner_->state_hash(); }

 private:
  std::unique_ptr<runtime::ReplicatedObject> inner_;
  const int replica_;
};

}  // namespace

std::unique_ptr<sched::Scheduler> traced_scheduler(std::unique_ptr<sched::Scheduler> inner,
                                                   int replica) {
  return std::make_unique<TracingScheduler>(std::move(inner), replica);
}

std::unique_ptr<runtime::ReplicatedObject> traced_object(
    std::unique_ptr<runtime::ReplicatedObject> inner, int replica) {
  return std::make_unique<TracingObject>(std::move(inner), replica);
}

// --- analysis -----------------------------------------------------------------------

namespace {

constexpr int kMaxReplicas = 8;
constexpr double kNsPerMs = 1e6;
constexpr double kNsPerUs = 1e3;

/// One replica's view of one request (0 = not seen).
struct ReplicaView {
  Nanos deliver = 0;
  Nanos exec_start = 0;
  Nanos exec_end = 0;
  Nanos dispatch = 0;       // dispatch duration
  Nanos dispatch_self = 0;  // dispatch minus scheduler downcalls
};

using RequestViews = std::array<ReplicaView, kMaxReplicas>;

}  // namespace

std::map<std::string, Metric> layer_metrics(const std::vector<Span>& spans,
                                            const std::vector<ClientStamp>& stamps,
                                            Nanos window_start, Nanos window_end) {
  std::unordered_map<std::uint64_t, RequestViews> views;
  views.reserve(stamps.size() * 2);
  for (const auto& stamp : stamps) views[stamp.request];

  std::vector<double> lock_us, wait_ms, broadcast_us;
  std::array<int, kMaxReplicas> view_changes{};
  for (const Span& span : spans) {
    if (span.replica < 0 || span.replica >= kMaxReplicas) continue;
    const auto in_window = span.start >= window_start && span.start <= window_end;
    if (span.kind == SpanKind::kBroadcast) {
      if (in_window) broadcast_us.push_back(static_cast<double>(span.end - span.start) / kNsPerUs);
      continue;
    }
    if (span.kind == SpanKind::kView) {
      if (in_window) ++view_changes[span.replica];
      continue;
    }
    const auto it = views.find(span.request);
    if (it == views.end()) continue;
    ReplicaView& at = it->second[span.replica];
    switch (span.kind) {
      case SpanKind::kDeliver:
        at.deliver = span.start;
        break;
      case SpanKind::kExecute:
        at.exec_start = span.start;
        at.exec_end = span.end;
        break;
      case SpanKind::kDispatch:
        at.dispatch = span.end - span.start;
        at.dispatch_self = at.dispatch - span.aux;
        break;
      case SpanKind::kLock:
        lock_us.push_back(static_cast<double>(span.end - span.start) / kNsPerUs);
        break;
      case SpanKind::kWait:
        wait_ms.push_back(static_cast<double>(span.end - span.start) / kNsPerMs);
        break;
      case SpanKind::kBroadcast:
      case SpanKind::kView:
        break;
    }
  }

  std::vector<double> order_ms, spread_ms, admit_ms, issue_us, execute_us, own_us, reply_ms,
      lag_ms, self_us, latency_ms;
  for (const auto& stamp : stamps) {
    issue_us.push_back(static_cast<double>(stamp.issue_end - stamp.issue_start) / kNsPerUs);
    const RequestViews& at = views.at(stamp.request);
    Nanos first_deliver = std::numeric_limits<Nanos>::max(), last_deliver = 0;
    Nanos first_end = std::numeric_limits<Nanos>::max(), last_end = 0;
    int delivered = 0, executed = 0;
    for (const ReplicaView& v : at) {
      if (v.deliver != 0) {
        ++delivered;
        first_deliver = std::min(first_deliver, v.deliver);
        last_deliver = std::max(last_deliver, v.deliver);
      }
      if (v.exec_end != 0) {
        ++executed;
        first_end = std::min(first_end, v.exec_end);
        last_end = std::max(last_end, v.exec_end);
        execute_us.push_back(static_cast<double>(v.exec_end - v.exec_start) / kNsPerUs);
        own_us.push_back(static_cast<double>(v.exec_end - v.exec_start - v.dispatch) / kNsPerUs);
        self_us.push_back(static_cast<double>(v.dispatch_self) / kNsPerUs);
        if (v.deliver != 0) {
          admit_ms.push_back(static_cast<double>(v.exec_start - v.deliver) / kNsPerMs);
        }
      }
    }
    if (delivered > 0) {
      order_ms.push_back(static_cast<double>(first_deliver - stamp.issue_start) / kNsPerMs);
    }
    if (delivered > 1) {
      spread_ms.push_back(static_cast<double>(last_deliver - first_deliver) / kNsPerMs);
    }
    if (executed > 1) lag_ms.push_back(static_cast<double>(last_end - first_end) / kNsPerMs);
    if (executed > 0) reply_ms.push_back(static_cast<double>(stamp.done - first_end) / kNsPerMs);
    latency_ms.push_back(static_cast<double>(stamp.done - stamp.due) / kNsPerMs);
  }

  // Where the typical request's time goes: the requests whose latency is
  // within p45..p55 are split along the path of the replica that
  // finished first (its reply is the one the client takes).  The parts
  // telescope, so they sum to the latency exactly.
  const double band_lo = percentile(latency_ms, 0.45);
  const double band_hi = percentile(latency_ms, 0.55);
  double bench = 0, runtime_ns = 0, gcs = 0, sched_ns = 0, workload = 0;
  for (const auto& stamp : stamps) {
    const double latency = static_cast<double>(stamp.done - stamp.due) / kNsPerMs;
    if (latency < band_lo || latency > band_hi) continue;
    const RequestViews& at = views.at(stamp.request);
    const ReplicaView* first = nullptr;
    for (const ReplicaView& v : at) {
      if (v.exec_end == 0 || v.deliver == 0) continue;
      if (first == nullptr || v.exec_end < first->exec_end) first = &v;
    }
    if (first == nullptr) continue;
    bench += static_cast<double>(stamp.issue_start - stamp.due);
    runtime_ns += static_cast<double>((stamp.issue_end - stamp.issue_start) +
                                      (first->exec_end - first->exec_start - first->dispatch) +
                                      (stamp.done - first->exec_end));
    gcs += static_cast<double>(first->deliver - stamp.issue_end);
    sched_ns += static_cast<double>((first->exec_start - first->deliver) +
                                    (first->dispatch - first->dispatch_self));
    workload += static_cast<double>(first->dispatch_self);
  }
  const double path_total = bench + runtime_ns + gcs + sched_ns + workload;
  const auto share = [&](double part) {
    return path_total > 0 ? 100.0 * part / path_total : 0.0;
  };
  const int views_max = *std::max_element(view_changes.begin(), view_changes.end());

  return {
      {"gcs.order_p50_ms", {percentile(order_ms, 0.50), "ms"}},
      {"gcs.order_p99_ms", {percentile(order_ms, 0.99), "ms"}},
      {"gcs.spread_p50_ms", {percentile(spread_ms, 0.50), "ms"}},
      {"gcs.views", {static_cast<double>(views_max), "count"}},
      {"sched.admit_p50_ms", {percentile(admit_ms, 0.50), "ms"}},
      {"sched.admit_p99_ms", {percentile(admit_ms, 0.99), "ms"}},
      {"sched.lock_wait_p50_us", {percentile(lock_us, 0.50), "us"}},
      {"sched.lock_wait_p99_us", {percentile(lock_us, 0.99), "us"}},
      {"sched.broadcast_p50_us", {percentile(broadcast_us, 0.50), "us"}},
      {"sched.cv_wait_p50_ms", {percentile(wait_ms, 0.50), "ms"}},
      {"sched.cv_wait_p99_ms", {percentile(wait_ms, 0.99), "ms"}},
      {"runtime.issue_p50_us", {percentile(issue_us, 0.50), "us"}},
      {"runtime.execute_p50_us", {percentile(execute_us, 0.50), "us"}},
      {"runtime.own_p50_us", {percentile(own_us, 0.50), "us"}},
      {"runtime.reply_p50_ms", {percentile(reply_ms, 0.50), "ms"}},
      {"runtime.replica_lag_p50_ms", {percentile(lag_ms, 0.50), "ms"}},
      {"workload.self_p50_us", {percentile(self_us, 0.50), "us"}},
      {"path.bench_pct", {share(bench), "%"}},
      {"path.runtime_pct", {share(runtime_ns), "%"}},
      {"path.gcs_pct", {share(gcs), "%"}},
      {"path.sched_pct", {share(sched_ns), "%"}},
      {"path.workload_pct", {share(workload), "%"}},
      {"samples.lock_wait", {static_cast<double>(lock_us.size()), "count"}},
      {"samples.cv_wait", {static_cast<double>(wait_ms.size()), "count"}},
      {"samples.broadcast", {static_cast<double>(broadcast_us.size()), "count"}},
      {"samples.traced_requests", {static_cast<double>(latency_ms.size()), "count"}},
  };
}

}  // namespace perfbench
