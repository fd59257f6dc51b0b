// Quickstart: replicate an object with a deterministic multithreading
// strategy in ~40 lines.
//
//   ./quickstart [SEQ|SL|SAT|MAT|LSA|PDS]
//
// Builds a simulated three-replica deployment of a bank-account object,
// runs a few client invocations, and shows that all replicas hold the
// same state afterwards; exits 1 if they do not.
#include <cstdio>
#include <string>

#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "workload/objects.hpp"

using namespace adets;

namespace {

sched::SchedulerKind parse_kind(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "MAT";
  if (name == "SEQ") return sched::SchedulerKind::kSeq;
  if (name == "SL") return sched::SchedulerKind::kSl;
  if (name == "SAT") return sched::SchedulerKind::kSat;
  if (name == "MAT") return sched::SchedulerKind::kMat;
  if (name == "LSA") return sched::SchedulerKind::kLsa;
  if (name == "PDS") return sched::SchedulerKind::kPds;
  std::fprintf(stderr, "unknown scheduler '%s', using MAT\n", name.c_str());
  return sched::SchedulerKind::kMat;
}

}  // namespace

int main(int argc, char** argv) {
  const auto kind = parse_kind(argc, argv);
  std::printf("scheduler: %s\n", sched::to_string(kind).c_str());

  // A cluster simulates the machines and the LAN between them.
  runtime::Cluster cluster;

  // Three active replicas of a bank-account object.  Every replica runs
  // the chosen ADETS scheduler; locks taken by the object go through it
  // and are granted in the same order everywhere.
  const auto bank = cluster.create_group(
      3, kind, [] { return std::make_unique<workload::BankAccounts>(8); });

  // Clients live on their own simulated nodes.
  runtime::Client& alice = cluster.create_client();
  runtime::Client& bob = cluster.create_client();

  alice.invoke(bank, "deposit", workload::pack_u64(/*account=*/0, /*amount=*/100));
  bob.invoke(bank, "deposit", workload::pack_u64(1, 50));
  alice.invoke(bank, "transfer", workload::pack_u64(0, 1, 25));

  const auto balance0 = workload::unpack_u64(alice.invoke(bank, "balance", workload::pack_u64(0)))[0];
  const auto balance1 = workload::unpack_u64(bob.invoke(bank, "balance", workload::pack_u64(1)))[0];
  std::printf("balances: account0=%llu account1=%llu\n",
              static_cast<unsigned long long>(balance0),
              static_cast<unsigned long long>(balance1));

  // A client returns on the first reply, so wait until every replica has
  // executed all five requests.  Under deterministic scheduling the
  // replicas then hold the same state and granted the locks in the same
  // order.
  if (!cluster.wait_drained(bank, 5)) {
    std::printf("the replicas did not finish the requests\n");
    return 1;
  }
  const auto report = repl::check_group(cluster, bank);
  std::printf("replica state hashes:");
  for (const auto hash : report.state_hashes) {
    std::printf(" %016llx", static_cast<unsigned long long>(hash));
  }
  std::printf("\nconsistent: %s\n%s", report.consistent() ? "yes" : "NO (bug!)",
              report.detail.c_str());
  return report.consistent() ? 0 : 1;
}
