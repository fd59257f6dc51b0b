// Reproduces the scenario of paper Fig. 1: a time-bounded wait() racing
// a notify() under ADETS-LSA (and, for comparison, the timeout-message
// mechanism of ADETS-SAT/MAT/PDS).
//
//   ./timed_wait_trace [runs]
//
// One request waits on a condition variable with a timeout; a second
// request notifies at approximately the same moment.  Whether the wait
// ends "notified" or "timed out" is inherently racy — the point of the
// deterministic schedulers is that *all replicas agree on the outcome*.
// The example runs the race several times per scheduler and prints the
// outcome and the agreement check; it exits 1 if replicas ever disagree.
#include <cstdio>
#include <string>
#include <thread>

#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "workload/objects.hpp"

using namespace adets;

namespace {

/// A one-shot rendezvous object: "wait_for(ms)" waits bounded on a
/// condvar and reports the outcome; "wake" notifies.
class Rendezvous : public runtime::ReplicatedObject {
 public:
  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override {
    const auto a = workload::unpack_u64(args);
    if (method == "wait_for") {
      runtime::DetLock lock(ctx, common::MutexId(1));
      const bool notified = ctx.wait(common::MutexId(1), common::CondVarId(1),
                                     common::paper_ms(static_cast<long long>(a.at(0))));
      outcomes_.push_back(notified ? 1 : 0);
      return workload::pack_u64(notified ? 1 : 0);
    }
    if (method == "wake") {
      runtime::DetLock lock(ctx, common::MutexId(1));
      ctx.notify_one(common::MutexId(1), common::CondVarId(1));
      return {};
    }
    throw std::invalid_argument("unknown method");
  }
  [[nodiscard]] std::uint64_t state_hash() const override {
    std::uint64_t h = 0;
    for (const int o : outcomes_) h = h * 3 + static_cast<std::uint64_t>(o + 1);
    return h;
  }

 private:
  std::vector<int> outcomes_;
};

}  // namespace

int main(int argc, char** argv) {
  const int runs = argc > 1 ? std::atoi(argv[1]) : 5;
  bool ever_disagreed = false;
  for (const auto kind : {sched::SchedulerKind::kLsa, sched::SchedulerKind::kSat,
                          sched::SchedulerKind::kMat, sched::SchedulerKind::kPds}) {
    std::printf("%s:", sched::to_string(kind).c_str());
    int notified = 0;
    int timed_out = 0;
    bool all_consistent = true;
    for (int run = 0; run < runs; ++run) {
      runtime::Cluster cluster;
      sched::SchedulerConfig config;
      config.pds_thread_pool = 2;
      const auto group = cluster.create_group(
          3, kind, [] { return std::make_unique<Rendezvous>(); }, config);
      runtime::Client& waiter = cluster.create_client();
      runtime::Client& waker = cluster.create_client();

      std::uint64_t outcome = 0;
      std::thread wait_thread([&] {
        // 100 paper-ms bounded wait.
        outcome = workload::unpack_u64(
            waiter.invoke(group, "wait_for", workload::pack_u64(100)))[0];
      });
      // Aim the notify at the timeout instant.
      common::Clock::sleep_paper(common::paper_ms(95));
      waker.invoke(group, "wake", {});
      wait_thread.join();
      (outcome == 1 ? notified : timed_out)++;

      // Let every replica finish both requests before comparing state.
      if (!cluster.wait_drained(group, 2)) {
        std::printf(" the replicas did not finish the requests\n");
        return 1;
      }
      const auto report = repl::check_group(cluster, group);
      if (!report.consistent()) std::printf("\n%s", report.detail.c_str());
      all_consistent = all_consistent && report.consistent();
    }
    std::printf(" notified=%d timed_out=%d, replicas always agreed: %s\n", notified,
                timed_out, all_consistent ? "yes" : "NO (bug!)");
    ever_disagreed = ever_disagreed || !all_consistent;
  }
  return ever_disagreed ? 1 : 0;
}
