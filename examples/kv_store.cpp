// Replicated key-value store example: per-bucket deterministic locks,
// compare-and-swap, and blocking "watch" reads that are woken by writers
// through scheduler-managed condition variables.
//
//   ./kv_store [SAT|MAT|LSA|PDS]
#include <cstdio>
#include <string>
#include <thread>

#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "workload/kvstore.hpp"

using namespace adets;

namespace {

std::pair<bool, std::string> decode_flag_value(const common::Bytes& reply) {
  common::Reader r(reply);
  const bool flag = r.boolean();
  return {flag, r.str()};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "MAT";
  sched::SchedulerKind kind = sched::SchedulerKind::kMat;
  for (const auto candidate : {sched::SchedulerKind::kSat, sched::SchedulerKind::kMat,
                               sched::SchedulerKind::kLsa, sched::SchedulerKind::kPds}) {
    if (sched::to_string(candidate) == name) kind = candidate;
  }

  runtime::Cluster cluster;
  sched::SchedulerConfig config;
  config.pds_thread_pool = 4;
  const auto store = cluster.create_group(
      3, kind, [] { return std::make_unique<workload::KvStore>(8); }, config);

  runtime::Client& writer = cluster.create_client();
  runtime::Client& watcher = cluster.create_client();

  writer.invoke(store, "put", workload::KvStore::pack_put("greeting", "hello"));
  auto [found, value] =
      decode_flag_value(writer.invoke(store, "get", workload::KvStore::pack_key("greeting")));
  std::printf("get greeting -> %s '%s'\n", found ? "found" : "missing", value.c_str());

  // A blocking watch woken by a concurrent put.
  std::thread watch_thread([&] {
    const auto reply =
        watcher.invoke(store, "watch", workload::KvStore::pack_watch("greeting", 5000));
    auto [changed, new_value] = decode_flag_value(reply);
    std::printf("watch fired: changed=%s value='%s'\n", changed ? "yes" : "no",
                new_value.c_str());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  writer.invoke(store, "put", workload::KvStore::pack_put("greeting", "bonjour"));
  watch_thread.join();

  // Compare-and-swap succeeds once, then fails on the stale expectation.
  const common::Bytes fresh_reply = writer.invoke(
      store, "cas", workload::KvStore::pack_cas("greeting", "bonjour", "hallo"));
  const common::Bytes stale_reply = writer.invoke(
      store, "cas", workload::KvStore::pack_cas("greeting", "bonjour", "hej"));
  common::Reader cas_ok(fresh_reply);
  common::Reader cas_stale(stale_reply);
  std::printf("cas fresh=%d stale=%d\n", cas_ok.boolean(), cas_stale.boolean());

  if (!cluster.wait_drained(store, 6)) {
    std::printf("the replicas did not finish the requests\n");
    return 1;
  }
  const auto report = repl::check_group(cluster, store);
  std::printf("replicas consistent: %s\n%s", report.consistent() ? "yes" : "NO",
              report.detail.c_str());
  return report.consistent() ? 0 : 1;
}
