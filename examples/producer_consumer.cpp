// Producer/consumer example: replicated bounded buffer coordinated with
// condition variables (paper Sec. 5.5).
//
//   ./producer_consumer [SAT|MAT|LSA|PDS] [pairs] [items]
//
// `pairs` producer clients and `pairs` consumer clients exchange
// `items` values each through a capacity-2 replicated buffer.  With
// PDS, watch the pool grow automatically when all workers block in
// wait() (the ADETS-PDS deadlock-avoidance extension).
#include <atomic>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "workload/objects.hpp"

using namespace adets;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "SAT";
  const int pairs = argc > 2 ? std::atoi(argv[2]) : 3;
  const int items = argc > 3 ? std::atoi(argv[3]) : 20;

  sched::SchedulerKind kind = sched::SchedulerKind::kSat;
  for (const auto candidate :
       {sched::SchedulerKind::kSat, sched::SchedulerKind::kMat,
        sched::SchedulerKind::kLsa, sched::SchedulerKind::kPds}) {
    if (sched::to_string(candidate) == name) kind = candidate;
  }

  runtime::Cluster cluster;
  sched::SchedulerConfig config;
  config.pds_thread_pool = static_cast<std::size_t>(2 * pairs);
  const auto buffer = cluster.create_group(
      3, kind, [] { return std::make_unique<workload::BoundedBuffer>(2); }, config);

  std::vector<runtime::Client*> producers;
  std::vector<runtime::Client*> consumers;
  for (int p = 0; p < pairs; ++p) producers.push_back(&cluster.create_client());
  for (int c = 0; c < pairs; ++c) consumers.push_back(&cluster.create_client());

  std::atomic<std::uint64_t> consumed_sum{0};
  const auto start = common::Clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < pairs; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < items; ++i) {
        producers[p]->invoke(buffer, "produce",
                             workload::pack_u64(static_cast<std::uint64_t>(p * items + i)));
      }
    });
  }
  for (int c = 0; c < pairs; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < items; ++i) {
        const auto reply =
            workload::unpack_u64(consumers[c]->invoke(buffer, "consume", {}));
        consumed_sum.fetch_add(reply[0]);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto elapsed = common::Clock::now() - start;

  // Let every replica finish executing before comparing state (clients
  // only wait for the first reply).
  if (!cluster.wait_drained(buffer, static_cast<std::uint64_t>(2 * pairs) * items)) {
    std::printf("the replicas did not finish the requests\n");
    return 1;
  }

  // Every produced value was consumed exactly once.
  const std::uint64_t total = static_cast<std::uint64_t>(pairs) * items;
  const std::uint64_t expected_sum = total * (total - 1) / 2;
  const auto report = repl::check_group(cluster, buffer);
  std::printf("%s: %d pairs x %d items in %.1f ms real\n",
              sched::to_string(kind).c_str(), pairs, items,
              std::chrono::duration<double, std::milli>(elapsed).count());
  std::printf("checksum: %s, replicas consistent: %s\n%s",
              consumed_sum.load() == expected_sum ? "ok" : "MISMATCH",
              report.consistent() ? "yes" : "NO", report.detail.c_str());
  return (consumed_sum.load() == expected_sum && report.consistent()) ? 0 : 1;
}
