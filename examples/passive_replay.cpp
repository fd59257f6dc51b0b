// Passive-replication demo: rebuild a replica's state by re-executing
// its logged requests (paper Sec. 1).
//
//   ./passive_replay [SEQ|SAT|MAT|LSA|PDS]
//
// Runs a multithreaded workload against an active group while recording
// one replica's delivered event stream, then re-executes the log on a
// fresh "backup" and compares the state hashes.  Only works because the
// scheduler is deterministic — with free multithreading the backup
// would reorder lock grants and diverge.
#include <cstdio>
#include <thread>
#include <vector>

#include "replication/consistency.hpp"
#include "replication/replay.hpp"
#include "runtime/cluster.hpp"
#include "workload/objects.hpp"

using namespace adets;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "MAT";
  sched::SchedulerKind kind = sched::SchedulerKind::kMat;
  for (const auto candidate :
       {sched::SchedulerKind::kSeq, sched::SchedulerKind::kSat, sched::SchedulerKind::kMat,
        sched::SchedulerKind::kLsa, sched::SchedulerKind::kPds}) {
    if (sched::to_string(candidate) == name) kind = candidate;
  }

  sched::SchedulerConfig config;
  config.pds_thread_pool = 4;
  runtime::Cluster cluster;
  const auto bank = cluster.create_group(
      3, kind, [] { return std::make_unique<workload::BankAccounts>(8); }, config);
  auto log = std::make_shared<runtime::EventLog>();
  cluster.replica(bank, 1).set_event_log(log);

  constexpr int kClients = 4;
  constexpr int kOps = 15;
  std::vector<runtime::Client*> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(&cluster.create_client());
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      common::Rng rng(static_cast<std::uint64_t>(c) + 7);
      for (int i = 0; i < kOps; ++i) {
        if (rng.uniform(0, 1) == 0) {
          clients[c]->invoke(bank, "deposit",
                             workload::pack_u64(rng.uniform(0, 7), 10));
        } else {
          clients[c]->invoke(
              bank, "transfer",
              workload::pack_u64(rng.uniform(0, 7), rng.uniform(0, 7), 5));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!cluster.wait_drained(bank, kClients * kOps)) {
    std::printf("live run did not drain!\n");
    return 1;
  }
  const auto report = repl::check_group(cluster, bank);
  if (!report.consistent()) {
    std::printf("live replicas diverged:\n%s", report.detail.c_str());
    return 1;
  }
  const std::uint64_t live = cluster.replica(bank, 1).state_hash();
  std::printf("%s: recorded %zu events for %d requests; live state %016llx\n",
              sched::to_string(kind).c_str(), log->size(), kClients * kOps,
              static_cast<unsigned long long>(live));

  const auto replayed = repl::replay_log(*log, kind, config, [] {
    return std::make_unique<workload::BankAccounts>(8);
  });
  std::printf("backup re-executed %llu requests; state %016llx — %s\n",
              static_cast<unsigned long long>(replayed.requests_executed),
              static_cast<unsigned long long>(replayed.state_hash),
              replayed.state_hash == live ? "states MATCH" : "states DIVERGE (bug!)");
  return replayed.state_hash == live && replayed.complete ? 0 : 1;
}
