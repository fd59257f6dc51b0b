// Bank example: concurrent clients, fine-grained locking, blocking
// timed withdrawals, transfers — the kind of replicated service the
// paper's introduction motivates.
//
//   ./bank [SEQ|SL|SAT|MAT|LSA|PDS] [clients] [ops]
//
// Prints per-scheduler wall time and verifies replica consistency.
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "workload/objects.hpp"

using namespace adets;

constexpr int kAccounts = 8;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "MAT";
  const int clients = argc > 2 ? std::atoi(argv[2]) : 4;
  const int ops = argc > 3 ? std::atoi(argv[3]) : 25;

  sched::SchedulerKind kind = sched::SchedulerKind::kMat;
  for (const auto candidate :
       {sched::SchedulerKind::kSeq, sched::SchedulerKind::kSl, sched::SchedulerKind::kSat,
        sched::SchedulerKind::kMat, sched::SchedulerKind::kLsa, sched::SchedulerKind::kPds}) {
    if (sched::to_string(candidate) == name) kind = candidate;
  }

  runtime::Cluster cluster;
  sched::SchedulerConfig config;
  config.pds_thread_pool = static_cast<std::size_t>(clients);
  const auto bank = cluster.create_group(
      3, kind, [] { return std::make_unique<workload::BankAccounts>(kAccounts); }, config);

  // Seed every account so withdrawals mostly succeed.
  runtime::Client& seeder = cluster.create_client();
  for (int account = 0; account < kAccounts; ++account) {
    seeder.invoke(bank, "deposit", workload::pack_u64(account, 1000));
  }

  std::vector<runtime::Client*> handles;
  for (int c = 0; c < clients; ++c) handles.push_back(&cluster.create_client());

  std::atomic<int> succeeded{0};
  std::atomic<int> timed_out{0};
  const auto start = common::Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      common::Rng rng(static_cast<std::uint64_t>(c) + 99);
      for (int i = 0; i < ops; ++i) {
        const auto account = rng.uniform(0, kAccounts - 1);
        switch (rng.uniform(0, 3)) {
          case 0:
            handles[c]->invoke(bank, "deposit", workload::pack_u64(account, 10));
            break;
          case 1: {
            // Timed withdraw: waits up to 50 paper-ms for funds.
            const auto reply = workload::unpack_u64(handles[c]->invoke(
                bank, "withdraw", workload::pack_u64(account, 20, 50)));
            (reply[0] == 1 ? succeeded : timed_out).fetch_add(1);
            break;
          }
          case 2:
            handles[c]->invoke(
                bank, "transfer",
                workload::pack_u64(account, rng.uniform(0, kAccounts - 1), 5));
            break;
          default:
            handles[c]->invoke(bank, "balance", workload::pack_u64(account));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto elapsed = common::Clock::now() - start;

  if (!cluster.wait_drained(bank, static_cast<std::uint64_t>(kAccounts) +
                                       static_cast<std::uint64_t>(clients) *
                                           static_cast<std::uint64_t>(ops))) {
    std::printf("the replicas did not finish the requests\n");
    return 1;
  }
  const auto report = repl::check_group(cluster, bank);
  std::printf("%s: %d clients x %d ops in %.1f ms real; withdrawals ok=%d timeout=%d\n",
              sched::to_string(kind).c_str(), clients, ops,
              std::chrono::duration<double, std::milli>(elapsed).count(),
              succeeded.load(), timed_out.load());
  std::printf("replicas consistent: %s %s\n", report.consistent() ? "yes" : "NO",
              report.detail.c_str());
  return report.consistent() ? 0 : 1;
}
