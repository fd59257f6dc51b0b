#include "harness.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace common = adets::common;
namespace runtime = adets::runtime;
namespace sched = adets::sched;

namespace {

constexpr int kReplicas = 3;
constexpr int kConnections = 4;
/// Requests in flight while preloading and warming up.
constexpr std::size_t kSetupWindow = 8;
/// How long replies, and then replica drain, may take after the window.
constexpr std::chrono::milliseconds kGrace{10'000};
constexpr Nanos kSetupTimeoutNs = 60'000'000'000;

std::chrono::steady_clock::time_point time_point(Nanos at) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(at));
}

void sleep_until_ns(Nanos at) { std::this_thread::sleep_until(time_point(at)); }

const Nanos g_start = now_ns();

/// One progress line on stderr (printf format), so a run that stalls
/// shows where.
template <typename... Args>
void progress(const char* format, Args... args) {
  char line[256];
  std::snprintf(line, sizeof line, format, args...);
  std::fprintf(stderr, "[perfbench %8.3f s] %s\n", static_cast<double>(now_ns() - g_start) / 1e9,
               line);
}

struct Record {
  Op op;
  bool measured = false;
  int client = 0;  // closed loop: logical client
  Nanos due = 0;   // open loop: the schedule's time; closed loop: issue time
  Nanos issue_start = 0;
  Nanos issue_end = 0;
  std::atomic<Nanos> done{0};
  std::atomic<std::uint64_t> id{0};
  common::Bytes reply;  // written before `done` is released
};

/// CPU time of this process and the host's steal counters, at one instant.
struct HostSample {
  double cpu_s = 0;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

HostSample sample_host() {
  HostSample s;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  s.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    s.total += v;
    if (field == 7) s.steal = v;
  }
  return s;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Every request of a deployment, allocated in chunks as the run grows so
/// the benchmark's own memory follows the requests actually sent.
/// Records never move: callbacks keep writing into them.
class RecordLog {
 public:
  /// Index of a fresh record, or kNone once the log is full.
  std::size_t allocate() {
    const std::size_t idx = next_.fetch_add(1, std::memory_order_acq_rel);
    if (idx >= kChunk * kMaxChunks) return kNone;
    std::atomic<Record*>& chunk = chunks_[idx / kChunk];
    if (chunk.load(std::memory_order_acquire) == nullptr) {
      const std::lock_guard<std::mutex> lock(grow_);
      if (chunk.load(std::memory_order_relaxed) == nullptr) {
        owned_.push_back(std::make_unique<Record[]>(kChunk));
        chunk.store(owned_.back().get(), std::memory_order_release);
      }
    }
    return idx;
  }

  /// Only for indices allocate() returned.
  Record& operator[](std::size_t idx) {
    return chunks_[idx / kChunk].load(std::memory_order_acquire)[idx % kChunk];
  }

  /// Records handed out so far.
  [[nodiscard]] std::size_t size() const {
    return std::min(next_.load(std::memory_order_acquire), kChunk * kMaxChunks);
  }
  [[nodiscard]] bool overflowed() const {
    return next_.load(std::memory_order_acquire) > kChunk * kMaxChunks;
  }

 private:
  static constexpr std::size_t kChunk = 1024;
  static constexpr std::size_t kMaxChunks = 4096;

  std::atomic<std::size_t> next_{0};
  std::array<std::atomic<Record*>, kMaxChunks> chunks_{};
  std::mutex grow_;
  std::vector<std::unique_ptr<Record[]>> owned_;  // guarded by grow_
};

/// One cluster with its clients and every request sent to it.
class Deployment {
 public:
  Deployment(const Workload& workload, const RunOptions& options)
      : workload_(workload), options_(options) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    // Stop the cluster's threads before the records their callbacks use.
    if (cluster_) cluster_->stop();
  }

  /// Cluster construction through preload and warm-up, until every
  /// replica has applied the set-up requests (the client needs only the
  /// first reply); false when that did not happen in time.
  bool set_up() {
    runtime::ClusterConfig config;
    config.seed = options_.seed;
    cluster_ = std::make_unique<runtime::Cluster>(config);
    group_ = cluster_->create_group(kReplicas, scheduler_factory(), object_factory());
    for (int c = 0; c < kConnections; ++c) clients_.push_back(&cluster_->create_client());

    std::vector<std::vector<Op>> groups;
    for (Op& op : workload_.preload()) groups.push_back({std::move(op)});
    common::Rng rng(options_.seed, 1);
    for (int n = 0; n < workload_.spec().warmup;) {
      groups.push_back(workload_.next(rng, kWarmupSerials + static_cast<std::uint64_t>(n)));
      n += static_cast<int>(groups.back().size());
    }
    const Nanos deadline = now_ns() + kSetupTimeoutNs;
    int connection = 0;
    for (auto& ops : groups) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!cv_.wait_until(lock, time_point(deadline),
                            [&] { return outstanding_ < kSetupWindow; })) {
          return false;
        }
      }
      for (Op& op : ops) {
        const std::size_t idx = records_.allocate();
        if (idx == kNone) return false;
        records_[idx].op = std::move(op);
        records_[idx].due = now_ns();
        send(idx, connection++ % kConnections);
      }
    }
    if (!wait_idle(deadline)) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::nanoseconds(std::max<Nanos>(deadline - now_ns(), 0)));
    return cluster_->wait_drained(group_, records_.size(), left);
  }

  /// Runs the measured window; returns the generator's lateness samples
  /// (open loop only).
  std::vector<double> measure(HostSample& at_start, HostSample& at_end) {
    const WorkloadSpec& spec = workload_.spec();
    std::vector<double> late_ms;
    // The generator wakes on its schedule, not up to 50 us after it.  Set
    // only now: threads inherit their creator's slack, and this thread
    // starts none of the cluster's threads from here on.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    at_start = sample_host();
    window_start_ = now_ns();
    window_end_ = window_start_ + static_cast<Nanos>(options_.seconds * 1e9);
    if (spec.rate_per_s > 0) {
      late_ms = run_open_loop();
    } else {
      run_closed_loop();
    }
    sleep_until_ns(window_end_);
    at_end = sample_host();
    measured_end_ = now_ns();  // the window as the clock measured it
    closed_running_.store(false, std::memory_order_release);
    prctl(PR_SET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);  // back to the default
    return late_ms;
  }

  bool wait_idle(Nanos deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (cv_.wait_until(lock, time_point(deadline), [&] { return outstanding_ == 0; })) return true;
    progress("%zu requests still without a reply", outstanding_);
    return false;
  }

  [[nodiscard]] runtime::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] common::GroupId group() const { return group_; }
  [[nodiscard]] Nanos window_start() const { return window_start_; }
  /// End of the measured window: just after the planned end, when the
  /// generator woke up and sampled the host.
  [[nodiscard]] Nanos window_end() const { return measured_end_; }
  [[nodiscard]] RecordLog& records() { return records_; }

 private:
  /// Serials of warm-up requests, apart from the measured ones (which
  /// are record indices).
  static constexpr std::uint64_t kWarmupSerials = std::uint64_t{1} << 40;

  runtime::SchedulerFactory scheduler_factory() const {
    runtime::SchedulerFactory base = options_.scheduler;
    if (!base) base = [kind = workload_.spec().kind] { return sched::make_scheduler(kind); };
    if (!options_.traced) return base;
    // The cluster calls the factories once per replica, in index order.
    return [base, replica = 0]() mutable { return traced_scheduler(base(), replica++); };
  }

  runtime::ObjectFactory object_factory() const {
    runtime::ObjectFactory base = workload_.objects();
    if (!options_.traced) return base;
    return [base, replica = 0]() mutable { return traced_object(base(), replica++); };
  }

  void send(std::size_t idx, int connection) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++outstanding_;
    }
    Record& r = records_[idx];
    r.issue_start = now_ns();
    const common::RequestId id = clients_[connection]->invoke_async(
        group_, r.op.method, r.op.args,
        [this, idx](common::Bytes result) { on_reply(idx, std::move(result)); });
    r.issue_end = now_ns();
    r.id.store(id.value(), std::memory_order_release);
  }

  void on_reply(std::size_t idx, common::Bytes result) {
    Record& r = records_[idx];
    r.reply = std::move(result);
    const Nanos at = now_ns();
    r.done.store(at, std::memory_order_release);
    // Closed loop: this logical client's next request, unless the window
    // closed.  Issued before the decrement, so outstanding_ cannot touch
    // zero while the loop still runs.
    if (r.measured && closed_running_.load(std::memory_order_acquire) && at < window_end_) {
      issue_closed(r.client);
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --outstanding_;
    }
    cv_.notify_all();
  }

  std::vector<double> run_open_loop() {
    const WorkloadSpec& spec = workload_.spec();
    const double ns_per_request = 1e9 / spec.rate_per_s;
    const Nanos crash_at =
        spec.crash_at_fraction > 0
            ? window_start_ + static_cast<Nanos>(spec.crash_at_fraction * options_.seconds * 1e9)
            : 0;
    bool crashed = false;
    common::Rng rng(options_.seed, 2);
    std::vector<double> late_ms;
    double due = static_cast<double>(window_start_);
    int connection = 0;
    while (true) {
      // A group (a produce/consume pair) is generated together but its
      // requests keep the schedule's spacing: sent back to back, the
      // second of each pair waited a whole PDS round, and the median fell
      // in the gap between the two latency modes.
      std::vector<Op> ops = workload_.next(rng, records_.size());
      if (static_cast<Nanos>(due) >= window_end_) break;
      for (Op& op : ops) {
        const auto due_ns = static_cast<Nanos>(due);
        due += ns_per_request;
        if (crash_at != 0 && !crashed && due_ns >= crash_at) {
          sleep_until_ns(crash_at);
          cluster_->crash_replica(group_, 0);
          crashed = true;
        }
        sleep_until_ns(due_ns);
        const std::size_t idx = records_.allocate();
        if (idx == kNone) return late_ms;
        Record& r = records_[idx];
        r.op = std::move(op);
        r.measured = true;
        r.due = due_ns;
        send(idx, connection++ % kConnections);
        late_ms.push_back(static_cast<double>(r.issue_start - due_ns) / 1e6);
      }
    }
    return late_ms;
  }

  void run_closed_loop() {
    const int clients = workload_.spec().closed_clients;
    for (int c = 0; c < clients; ++c) {
      client_rngs_.emplace_back(options_.seed, 100 + static_cast<std::uint64_t>(c));
    }
    closed_running_.store(true, std::memory_order_release);
    for (int c = 0; c < clients; ++c) issue_closed(c);
  }

  /// Issues logical client `client`'s next request.  Called by the
  /// generator for the first request and then from that client's reply
  /// callback, so one client's requests never overlap.
  void issue_closed(int client) {
    const std::size_t idx = records_.allocate();
    if (idx == kNone) return;
    Record& r = records_[idx];
    std::vector<Op> ops = workload_.next(client_rngs_[static_cast<std::size_t>(client)], idx);
    r.op = std::move(ops.front());
    r.measured = true;
    r.client = client;
    r.due = now_ns();
    send(idx, client % kConnections);
  }

  const Workload& workload_;
  const RunOptions& options_;
  RecordLog records_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;  // guarded by mutex_

  std::vector<common::Rng> client_rngs_;
  std::atomic<bool> closed_running_{false};
  Nanos window_start_ = 0;
  Nanos window_end_ = 0;  // planned; read by reply callbacks
  Nanos measured_end_ = 0;

  // Last: destroyed (and stopped) before the records above.
  std::unique_ptr<runtime::Cluster> cluster_;
  common::GroupId group_;
  std::vector<runtime::Client*> clients_;
};

/// Counters summed over the group's replicas at one instant.
struct SchedSample {
  sched::SchedulerStats stats;
  std::uint64_t executions = 0;
};

SchedSample sample_sched(runtime::Cluster& cluster, common::GroupId group) {
  SchedSample s;
  for (int i = 0; i < cluster.group_size(group); ++i) {
    auto& scheduler = cluster.replica(group, i).scheduler();
    const sched::SchedulerStats st = scheduler.stats();
    s.stats.lock_grants += st.lock_grants;
    s.stats.waits += st.waits;
    s.stats.threads_spawned += st.threads_spawned;
    s.stats.broadcasts += st.broadcasts;
    s.stats.activations += st.activations;
    s.stats.rounds += st.rounds;
    s.executions += scheduler.completed_requests();
  }
  return s;
}

}  // namespace

bool RunResult::correct() const {
  return std::all_of(checks.begin(), checks.end(), [](const CheckResult& c) { return c.ok; });
}

RunResult run_workload(const Workload& workload, const RunOptions& options) {
  const char* name = workload.spec().name.c_str();
  SpanStore::reset();
  RunResult result;

  // Set up several times and keep the last cluster: one set-up is too
  // short a sample for a steady setup_s.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  bool setup_ok = true;
  for (int i = 0; i < std::max(1, options.setups); ++i) {
    deployment.reset();
    deployment = std::make_unique<Deployment>(workload, options);
    progress("%s: set-up %d", name, i + 1);
    const Nanos start = now_ns();
    setup_ok = deployment->set_up();
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    progress("%s: set-up took %.3f s", name, setup_s.back());
    if (!setup_ok) break;
  }
  result.checks.push_back(
      {"setup_completed", setup_ok, setup_ok ? "" : "set-up requests timed out"});

  runtime::Cluster& cluster = deployment->cluster();
  const common::GroupId group = deployment->group();
  const adets::transport::NetworkStats net_before = cluster.network().stats();
  const SchedSample sched_before = sample_sched(cluster, group);
  HostSample host_start;
  HostSample host_end;
  std::vector<double> late_ms;
  progress("%s: measuring", name);
  if (setup_ok) late_ms = deployment->measure(host_start, host_end);
  progress("%s: waiting for replies and replica drain", name);
  const Nanos ws = deployment->window_start();
  const Nanos we = deployment->window_end();

  deployment->wait_idle(now_ns() + std::chrono::nanoseconds(kGrace).count());
  const bool drained = cluster.wait_drained(group, deployment->records().size(), kGrace);
  for (int i = 0; !drained && i < cluster.group_size(group); ++i) {
    progress("%s: replica %d completed %llu of %zu requests", name, i,
             static_cast<unsigned long long>(cluster.replica(group, i).completed_requests()),
             deployment->records().size());
  }
  const std::vector<std::uint64_t> hashes = cluster.state_hashes(group);
  const bool converged =
      !hashes.empty() && std::all_of(hashes.begin(), hashes.end(),
                                     [&](std::uint64_t h) { return h == hashes.front(); });
  const adets::transport::NetworkStats net_after = cluster.network().stats();
  const SchedSample sched_after = sample_sched(cluster, group);
  progress("%s: stopping the cluster", name);
  cluster.stop();  // joins every thread that records spans or replies
  progress("%s: checking outputs", name);
  const double rss_mib = peak_rss_mib();

  // Output checks over every request of the run, set-up included.
  std::vector<Outcome> outcomes;
  std::vector<double> latency_ms;
  std::vector<Nanos> done_in_window;
  std::vector<ClientStamp> stamps;
  RecordLog& records = deployment->records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const Nanos done = r.done.load(std::memory_order_acquire);
    outcomes.push_back({&r.op, done != 0 ? &r.reply : nullptr});
    if (!r.measured) continue;
    ++result.attempted;
    if (done == 0) {
      ++result.failed;
      continue;
    }
    latency_ms.push_back(static_cast<double>(done - r.due) / 1e6);
    if (done >= ws && done <= we) done_in_window.push_back(done);
    stamps.push_back(
        {r.id.load(std::memory_order_acquire), r.due, r.issue_start, r.issue_end, done});
  }
  for (CheckResult& check : workload.check(outcomes)) result.checks.push_back(std::move(check));
  result.checks.push_back({"replicas_drained", drained, drained ? "" : "replicas did not drain"});
  result.checks.push_back({"state_hashes_equal", converged,
                           converged ? "" : "live replicas report different state hashes"});
  result.checks.push_back({"record_capacity", !records.overflowed(),
                           records.overflowed() ? "more requests than the record log holds" : ""});
  result.attempted = std::max<std::uint64_t>(result.attempted, 1);
  if (!result.correct()) result.failed = result.attempted;

  // Longest stretch of the window with no completion.
  std::sort(done_in_window.begin(), done_in_window.end());
  Nanos outage = 0;
  Nanos previous = ws;
  for (const Nanos at : done_in_window) {
    outage = std::max(outage, at - previous);
    previous = at;
  }
  outage = std::max(outage, we - previous);

  const double seconds = std::max(static_cast<double>(we - ws) / 1e9, 1e-9);  // 0 if set-up failed
  const auto completed = static_cast<double>(done_in_window.size());
  const double steal_total = static_cast<double>(host_end.total - host_start.total);
  auto& m = result.metrics;
  m["ops_per_s"] = {completed / seconds, "ops/s"};
  m["latency_p50_ms"] = {percentile(latency_ms, 0.50), "ms"};
  m["latency_p99_ms"] = {percentile(latency_ms, 0.99), "ms"};
  m["cpu_us_per_op"] = {completed > 0 ? (host_end.cpu_s - host_start.cpu_s) * 1e6 / completed : 0,
                        "us"};
  m["setup_s"] = {percentile(setup_s, 0.50), "s"};
  m["peak_rss_mb"] = {rss_mib, "MiB"};
  m["outage_ms"] = {static_cast<double>(outage) / 1e6, "ms"};
  m["error_rate"] = {static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                     "ratio"};

  auto& d = result.diagnostics;
  const auto stolen = static_cast<double>(host_end.steal - host_start.steal);
  d["host.steal_pct"] = {steal_total > 0 ? 100.0 * stolen / steal_total : 0, "%"};
  d["bench.late_p50_ms"] = {percentile(late_ms, 0.50), "ms"};
  d["bench.late_p99_ms"] = {percentile(late_ms, 0.99), "ms"};
  d["samples.latency"] = {static_cast<double>(latency_ms.size()), "count"};
  d["samples.late"] = {static_cast<double>(late_ms.size()), "count"};
  d["samples.setup"] = {static_cast<double>(setup_s.size()), "count"};
  d["setup_min_s"] = {*std::min_element(setup_s.begin(), setup_s.end()), "s"};
  d["setup_max_s"] = {*std::max_element(setup_s.begin(), setup_s.end()), "s"};
  d["window_s"] = {seconds, "s"};

  if (!options.traced) return result;

  for (auto& [name, metric] : layer_metrics(SpanStore::collect(), stamps, ws, we)) {
    (name.rfind("samples.", 0) == 0 ? d : m)[name] = std::move(metric);
  }
  SpanStore::reset();
  const auto ops = static_cast<double>(std::max<std::size_t>(stamps.size(), 1));
  const auto executions = static_cast<double>(
      std::max<std::uint64_t>(sched_after.executions - sched_before.executions, 1));
  const auto per = [](std::uint64_t after, std::uint64_t before, double base) {
    return static_cast<double>(after - before) / base;
  };
  const adets::transport::NetworkStats& na = net_after;
  const adets::transport::NetworkStats& nb = net_before;
  m["transport.msgs_per_op"] = {per(na.messages_sent, nb.messages_sent, ops), "count"};
  m["transport.bytes_per_op"] = {per(na.bytes_sent, nb.bytes_sent, ops), "B"};
  m["transport.dropped_per_op"] = {per(na.messages_dropped, nb.messages_dropped, ops), "count"};
  const sched::SchedulerStats& a = sched_after.stats;
  const sched::SchedulerStats& b = sched_before.stats;
  m["sched.grants_per_op"] = {per(a.lock_grants, b.lock_grants, executions), "count"};
  m["sched.broadcasts_per_op"] = {per(a.broadcasts, b.broadcasts, executions), "count"};
  m["sched.waits_per_op"] = {per(a.waits, b.waits, executions), "count"};
  m["sched.rounds_per_op"] = {per(a.rounds, b.rounds, executions), "count"};
  m["sched.threads_per_op"] = {per(a.threads_spawned, b.threads_spawned, executions), "count"};
  m["sched.activations_per_op"] = {per(a.activations, b.activations, executions), "count"};
  return result;
}

}  // namespace perfbench
