// Replicated objects whose calls run in parallel under MAT, LSA and PDS.
// A call holds only the lock of the state it touches (a ComputePatterns
// mutex, a KvStore bucket), so state behind different locks must never
// share a container: under ThreadSanitizer this suite flags such sharing
// as a data race, and in any build the replicas must still converge.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/watchdog.hpp"
#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "workload/kvstore.hpp"
#include "workload/objects.hpp"

namespace adets::workload {
namespace {

using common::Bytes;
using common::GroupId;
using sched::SchedulerKind;

constexpr std::uint32_t kMutexes = 10;
constexpr int kCalls = 90;

class ParallelCalls : public ::testing::TestWithParam<SchedulerKind> {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
  }
  void TearDown() override {
    common::Clock::set_scale(saved_scale_);
    watchdog_.reset();
  }

  /// Aborts the test binary with `label` unless the test body and its
  /// TearDown finish within `limit`.
  void arm_watchdog(const std::string& label, std::chrono::milliseconds limit) {
    watchdog_.emplace(label, limit);
  }

  /// Packed submissions, so a burst of calls is sequenced in a few
  /// rounds, reaches each replica in a few deliveries, and their threads
  /// run side by side.
  static runtime::ClusterConfig batched() {
    runtime::ClusterConfig config;
    config.gcs.submit_flush_delay = std::chrono::milliseconds(2);
    return config;
  }

  /// Issues every call at once, then waits for all replies and for every
  /// replica to apply them, and checks the replicas converged.
  void run_all_at_once(runtime::Cluster& cluster, GroupId group,
                       const std::function<void(runtime::Client&, int,
                                                runtime::Client::ReplyCallback)>& issue) {
    // Shared with the callbacks, which may outlive this frame if it fails.
    const auto replies = std::make_shared<std::atomic<int>>(0);
    runtime::Client& client = cluster.create_client();
    for (int i = 0; i < kCalls; ++i) {
      issue(client, i, [replies](const Bytes&) { replies->fetch_add(1); });
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (replies->load() < kCalls && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(replies->load(), kCalls);
    ASSERT_TRUE(cluster.wait_drained(group, kCalls));
    const auto report = repl::check_group(cluster, group);
    EXPECT_TRUE(report.consistent()) << report.detail;
  }

  double saved_scale_ = 1.0;
  std::optional<common::Watchdog> watchdog_;
};

INSTANTIATE_TEST_SUITE_P(Kinds, ParallelCalls,
                         ::testing::Values(SchedulerKind::kMat, SchedulerKind::kLsa,
                                           SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(ParallelCalls, ComputePatternsOnDistinctMutexesConverge) {
  arm_watchdog("parallel compute patterns, " + sched::to_string(GetParam()),
               std::chrono::seconds(120));
  runtime::Cluster cluster(batched());
  const GroupId group = cluster.create_group(
      3, GetParam(), [] { return std::make_unique<ComputePatterns>(kMutexes); });
  // Patterns b, c and d over every mutex, so the first access to each
  // mutex's log overlaps accesses to the others.
  const char* const patterns[] = {"b", "c", "d"};
  run_all_at_once(cluster, group, [&](runtime::Client& client, int i, auto on_reply) {
    client.invoke_async(group, patterns[i % 3], pack_u64(5, i % kMutexes),
                        std::move(on_reply));
  });
}

TEST_P(ParallelCalls, KvStoreOnDistinctBucketsConverges) {
  arm_watchdog("parallel kv store, " + sched::to_string(GetParam()),
               std::chrono::seconds(120));
  runtime::Cluster cluster(batched());
  const GroupId group = cluster.create_group(
      3, GetParam(), [] { return std::make_unique<KvStore>(); });
  // Every call inserts or erases a key, spread over all buckets: each
  // one restructures its bucket's map while calls on other buckets run.
  run_all_at_once(cluster, group, [&](runtime::Client& client, int i, auto on_reply) {
    const std::string key = "k" + std::to_string(i / 2);
    if (i % 2 == 0) {
      client.invoke_async(group, "put", KvStore::pack_put(key, "v"), std::move(on_reply));
    } else {
      client.invoke_async(group, "remove", KvStore::pack_key(key), std::move(on_reply));
    }
  });
}

}  // namespace
}  // namespace adets::workload
