// Ablation: ADETS-LSA mutex-table batching.
//
// The paper's LSA broadcasts the grant table "periodically"; our
// default flushes after every grant.  This bench varies the batch size:
// larger batches reduce communication (fewer broadcasts) but delay
// followers (a partial batch waits up to 5 ms), trading message count
// for follower lag.  Metric:
// time/invocation on the lock-heavy pattern (c) plus the number of
// broadcast messages the leader produced.
#include "bench_common.hpp"

namespace adets::bench {
namespace {

void run_point(benchmark::State& state, std::size_t batch, int clients) {
  for (auto _ : state) {
    runtime::Cluster cluster(figure_cluster_config());
    sched::SchedulerConfig config;
    config.lsa_batch_grants = batch;
    const auto group = cluster.create_group(
        3, sched::SchedulerKind::kLsa,
        [] { return std::make_unique<workload::ComputePatterns>(10); }, config);
    const auto before = cluster.network().stats().messages_sent;
    const auto result = run_closed_loop(
        cluster, clients, [&](runtime::Client& client, common::Rng& rng, int) {
          client.invoke(group, "c", workload::pack_u64(25, rng.uniform(0, 9)));
        });
    const auto after = cluster.network().stats().messages_sent;
    state.counters["messages"] = static_cast<double>(after - before);
    report(state, result);
  }
}

void register_all() {
  const int clients = fast_mode() ? 4 : 8;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const std::string name = "AblationLsaBatch/batch:" + std::to_string(batch) +
                             "/clients:" + std::to_string(clients);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [batch, clients](benchmark::State& s) {
                                   run_point(s, batch, clients);
                                 })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
}

const bool registered = (register_all(), true);

}  // namespace
}  // namespace adets::bench

BENCHMARK_MAIN();
