// ADETS-LSA leader fail-over demo.
//
//   ./leader_failover
//
// Starts a three-replica LSA group, applies load, crashes the leader
// mid-run, and shows that (a) the group keeps serving requests after
// the view change, (b) the next-lowest replica takes over grant
// recording, and (c) the survivors remain mutually consistent.
#include <cstdio>

#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "sched/lsa.hpp"
#include "workload/objects.hpp"

using namespace adets;

int main() {
  runtime::Cluster cluster;
  const auto bank = cluster.create_group(
      3, sched::SchedulerKind::kLsa,
      [] { return std::make_unique<workload::BankAccounts>(4); });
  runtime::Client& client = cluster.create_client();

  std::printf("phase 1: 20 deposits with the original leader...\n");
  for (int i = 0; i < 20; ++i) {
    client.invoke(bank, "deposit", workload::pack_u64(i % 4, 5));
  }

  std::printf("crashing the leader (replica 0)...\n");
  cluster.crash_replica(bank, 0);

  std::printf("phase 2: 20 deposits through the fail-over...\n");
  for (int i = 0; i < 20; ++i) {
    client.invoke(bank, "deposit", workload::pack_u64(i % 4, 5),
                  std::chrono::seconds(30));
  }

  auto& survivor1 = dynamic_cast<sched::LsaScheduler&>(cluster.replica(bank, 1).scheduler());
  std::printf("replica 1 is now leader: %s\n", survivor1.is_leader() ? "yes" : "no");

  std::uint64_t total = 0;
  for (int account = 0; account < 4; ++account) {
    total += workload::unpack_u64(
        client.invoke(bank, "balance", workload::pack_u64(account)))[0];
  }
  // 44 requests in all; the crashed leader is not waited for.
  if (!cluster.wait_drained(bank, 44)) {
    std::printf("the survivors did not finish the requests\n");
    return 1;
  }
  const auto report = repl::check_group(cluster, bank);
  std::printf("total balance: %llu (expected 200), survivors consistent: %s\n%s",
              static_cast<unsigned long long>(total), report.consistent() ? "yes" : "NO",
              report.detail.c_str());
  return (total == 200 && report.consistent()) ? 0 : 1;
}
