#include "workload/load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "replication/consistency.hpp"
#include "workload/kvstore.hpp"

namespace adets::workload {

namespace {

/// Keys are "k<0..kKeySpace-1>"; a put writes kValueBytes, and
/// kPutRatio of the requests are puts (the rest are gets).
constexpr int kKeySpace = 256;
constexpr int kValueBytes = 32;
constexpr double kPutRatio = 0.5;
/// Real-time deadline for the whole run; on expiry the run is cut short
/// and `completed` is false.
constexpr std::chrono::seconds kDeadline{180};

void atomic_min(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::int64_t ns_since_epoch(common::TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

/// One logical closed-loop session.  Only ever touched by one thread at
/// a time: the main thread for the first issue, then whichever delivery
/// thread runs the completion callback (the closed loop guarantees at
/// most one outstanding request, and the client-stub mutex provides the
/// happens-before edge between an issue and its completion).
struct LogicalClient {
  common::Rng rng{1};
  runtime::Client* connection = nullptr;
  int issued = 0;  // warmup + measured requests issued so far
  common::TimePoint issue_time{};
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

}  // namespace

LoadResult run_load(const LoadConfig& config) {
  LoadResult result;
  const int n = config.logical_clients;
  const int warmup = config.warmup_per_client;
  const int measured = config.requests_per_client;
  const int per_client = warmup + measured;
  if (n <= 0 || measured <= 0 || config.connections <= 0) return result;

  // Driver state is declared before the cluster so delivery-thread
  // callbacks (which die with the cluster) can never outlive it.
  std::vector<LogicalClient> clients(static_cast<std::size_t>(n));
  // Disjoint per-(client, request) slots — callbacks write lock-free.
  std::vector<double> latency_ms(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(measured), -1.0);
  std::atomic<bool> stopping{false};
  std::atomic<std::int64_t> first_issue_ns{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> last_done_ns{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  int finished_clients = 0;
  std::function<void(int)> issue;

  runtime::Cluster cluster(config.cluster);
  sched::SchedulerConfig sched_config;
  if (config.kind == sched::SchedulerKind::kPds) {
    // The paper sizes the PDS pool to the client count; with thousands
    // of logical clients that would be thousands of OS threads per
    // replica, so the pool is capped and excess requests queue.
    sched_config.pds_thread_pool =
        static_cast<std::size_t>(std::min(n, 64));
  }
  const common::GroupId group = cluster.create_group(
      config.replicas, config.kind, [] { return std::make_unique<KvStore>(); },
      sched_config);
  for (int c = 0; c < config.connections; ++c) {
    runtime::Client& connection = cluster.create_client();
    for (int i = c; i < n; i += config.connections) {
      clients[static_cast<std::size_t>(i)].connection = &connection;
    }
  }
  for (int i = 0; i < n; ++i) {
    clients[static_cast<std::size_t>(i)].rng =
        common::Rng(config.seed, static_cast<std::uint64_t>(i) + 1);
  }

  issue = [&](int i) {
    LogicalClient& lc = clients[static_cast<std::size_t>(i)];
    const int idx = lc.issued++;
    const bool timed = idx >= warmup;
    const bool is_put = lc.rng.uniform_real(0.0, 1.0) < kPutRatio;
    const std::string key =
        "k" + std::to_string(lc.rng.uniform(
                  0, static_cast<std::uint64_t>(kKeySpace) - 1));
    common::Bytes args;
    if (is_put) {
      args = KvStore::pack_put(
          key, std::string(static_cast<std::size_t>(kValueBytes),
                           static_cast<char>('a' + idx % 26)));
    } else {
      args = KvStore::pack_key(key);
    }
    if (timed) {
      lc.issue_time = common::Clock::now();
      atomic_min(first_issue_ns, ns_since_epoch(lc.issue_time));
    }
    lc.connection->invoke_async(
        group, is_put ? "put" : "get", args, [&, i, idx, timed](common::Bytes) {
          LogicalClient& me = clients[static_cast<std::size_t>(i)];
          if (timed) {
            const auto now = common::Clock::now();
            const double real_ms =
                static_cast<double>((now - me.issue_time).count()) / 1e6;
            latency_ms[static_cast<std::size_t>(i) *
                           static_cast<std::size_t>(measured) +
                       static_cast<std::size_t>(idx - warmup)] =
                real_ms / common::Clock::scale();
            atomic_max(last_done_ns, ns_since_epoch(now));
          }
          if (!stopping.load(std::memory_order_relaxed) && me.issued < per_client) {
            issue(i);
            return;
          }
          {
            const std::lock_guard<std::mutex> guard(done_mutex);
            ++finished_clients;
          }
          done_cv.notify_one();
        });
  };

  for (int i = 0; i < n; ++i) issue(i);

  {
    std::unique_lock<std::mutex> lock(done_mutex);
    result.completed = done_cv.wait_for(lock, kDeadline, [&] {
      return finished_clients >= n;
    });
  }
  stopping.store(true, std::memory_order_relaxed);

  if (result.completed) {
    const auto total = static_cast<std::uint64_t>(n) *
                       static_cast<std::uint64_t>(per_client);
    result.converged = cluster.wait_drained(group, total, std::chrono::seconds(60)) &&
                       repl::check_group(cluster, group).consistent();
  }
  const auto net = cluster.network().stats();
  result.messages_sent = net.messages_sent;
  result.bytes_sent = net.bytes_sent;
  // Quiesce GCS callbacks before reading the latency slots: after
  // stop() no callback can be mid-write.
  cluster.stop();

  std::vector<double> samples;
  samples.reserve(latency_ms.size());
  for (const double ms : latency_ms) {
    if (ms >= 0.0) samples.push_back(ms);
  }
  std::sort(samples.begin(), samples.end());
  result.invocations = samples.size();
  if (!samples.empty()) {
    double sum = 0.0;
    for (const double ms : samples) sum += ms;
    result.mean_ms = sum / static_cast<double>(samples.size());
    result.p50_ms = percentile(samples, 0.50);
    result.p90_ms = percentile(samples, 0.90);
    result.p99_ms = percentile(samples, 0.99);
    result.max_ms = samples.back();
    const double real_s =
        static_cast<double>(last_done_ns.load() - first_issue_ns.load()) / 1e9;
    result.duration_s = real_s / common::Clock::scale();
    if (result.duration_s > 0.0) {
      result.throughput_rps =
          static_cast<double>(result.invocations) / result.duration_s;
    }
  }
  return result;
}

}  // namespace adets::workload
