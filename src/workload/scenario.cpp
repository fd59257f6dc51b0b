#include "workload/scenario.hpp"

#include <atomic>
#include <sstream>
#include <thread>

#include "common/clock.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "lin/recorder.hpp"
#include "workload/kvstore.hpp"

namespace adets::workload {

using common::GroupId;

namespace {

/// One client thread's slice of the canonical workload: a seeded mix of
/// put/cas/remove/get/size over a small key space.  Only lock/unlock and
/// notify are exercised, so the same workload is valid for all six
/// strategies (SEQ/SL have no condition-variable support; watch-based
/// scenarios live in the fault-injection tests, gated to capable kinds).
/// Every invocation goes through the recording wrapper so the run's
/// client-observable history can be audited for linearizability.
void run_client(lin::RecordingClient& client, GroupId group, std::uint64_t seed,
                int client_index, int requests,
                std::chrono::milliseconds invoke_timeout) {
  common::Rng rng(seed, static_cast<std::uint64_t>(client_index));
  for (int i = 0; i < requests; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform(0, 7));
    const std::string value =
        "c" + std::to_string(client_index) + "v" + std::to_string(i);
    switch (rng.uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3:
        client.invoke(group, "put", KvStore::pack_put(key, value), invoke_timeout);
        break;
      case 4:
      case 5:
        client.invoke(group, "cas",
                      KvStore::pack_cas(key, "c0v0", value), invoke_timeout);
        break;
      case 6:
        client.invoke(group, "remove", KvStore::pack_key(key), invoke_timeout);
        break;
      case 7:
        client.invoke(group, "size", {}, invoke_timeout);
        break;
      default:
        client.invoke(group, "get", KvStore::pack_key(key), invoke_timeout);
        break;
    }
  }
}

/// Distinguishes artifacts from scenarios sharing one seed in one run.
std::atomic<std::uint64_t> artifact_counter{0};

/// Dumps the offending history (replayable: `tools/lincheck <path>`)
/// with the failure diagnostic embedded as comment lines, and reports
/// the path on stderr.
std::string dump_failure_artifact(const ScenarioConfig& config,
                                  const ScenarioResult& result,
                                  const std::string& why,
                                  const std::string& diagnostic) {
  const std::uint64_t n =
      artifact_counter.fetch_add(1, std::memory_order_relaxed);
  const std::string name = "scenario-seed" +
                           std::to_string(config.workload_seed) + "-" +
                           std::to_string(n) + ".history";
  std::string text = lin::history_to_text(result.history, "kv");
  text += "# verdict: " + why + "\n";
  std::istringstream detail(diagnostic);
  std::string line;
  while (std::getline(detail, line)) text += "# " + line + "\n";
  const std::string path = lin::write_artifact(name, text);
  if (path.empty()) {
    ADETS_LOG_ERROR("scenario") << "failed to write failure artifact " << name;
  } else {
    ADETS_LOG_ERROR("scenario") << why << "; history artifact: " << path;
  }
  return path;
}

}  // namespace

std::vector<sched::SchedulerKind> all_scheduler_kinds() {
  return {sched::SchedulerKind::kSeq, sched::SchedulerKind::kSl,
          sched::SchedulerKind::kSat, sched::SchedulerKind::kMat,
          sched::SchedulerKind::kLsa, sched::SchedulerKind::kPds};
}

ScenarioResult run_scenario(sched::SchedulerKind kind, const ScenarioConfig& config) {
  const sched::SchedulerConfig sched_config = config.sched;
  return run_scenario(
      [kind, sched_config] { return sched::make_scheduler(kind, sched_config); },
      config);
}

ScenarioResult run_scenario(const runtime::SchedulerFactory& scheduler_factory,
                            const ScenarioConfig& config) {
  ScenarioResult result;
  runtime::Cluster cluster;
  const GroupId group = cluster.create_group(
      config.replicas, scheduler_factory, [] { return std::make_unique<KvStore>(); });
  std::vector<runtime::Client*> clients;
  clients.reserve(static_cast<std::size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) clients.push_back(&cluster.create_client());

  cluster.network().set_fault_plan(config.faults);

  // A client whose invocation times out (e.g. under a total-loss plan)
  // aborts its remaining requests; the scenario still returns a result
  // with drained=false instead of letting the exception kill the thread.
  std::atomic<std::uint64_t> clients_failed{0};
  lin::HistoryRecorder recorder(static_cast<std::size_t>(config.clients));
  std::vector<std::thread> workers;
  workers.reserve(clients.size());
  for (int c = 0; c < config.clients; ++c) {
    workers.emplace_back([&, c] {
      lin::RecordingClient recording(*clients[static_cast<std::size_t>(c)],
                                     recorder.client(static_cast<std::size_t>(c)));
      try {
        run_client(recording, group, config.workload_seed, c,
                   config.requests_per_client, config.invoke_timeout);
      } catch (const std::exception&) {
        // The failed invocation stays in the history as a pending op.
        clients_failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  result.clients_failed = clients_failed.load(std::memory_order_relaxed);
  result.history = recorder.merge();

  // The plan's crash/restart schedule is part of the run.  A workload
  // that finishes before a scheduled restart must not end the scenario
  // with that replica still down, or the restart, and the catch-up it is
  // there to exercise, silently never happens.  The drain below then
  // waits for the revived replica too.
  const auto events_deadline = common::Clock::now() + config.drain_timeout;
  while (cluster.network().pending_node_events() > 0 &&
         common::Clock::now() < events_deadline) {
    common::Clock::sleep_real(std::chrono::milliseconds(1));
  }

  const auto total = static_cast<std::uint64_t>(config.clients) *
                     static_cast<std::uint64_t>(config.requests_per_client);
  result.drained = cluster.wait_drained(group, total, config.drain_timeout);
  // Only a drained group has one state to compare, and only there is no
  // request left writing an object the check reads.
  if (result.drained) {
    result.consistency = repl::check_group(cluster, group);
    result.converged = result.consistency.consistent();
  }
  result.net = cluster.network().stats();

  result.lin = lin::check_history(result.history, lin::KvSpec{});

  // Any failed consistency gate dumps the run's history for offline
  // replay (satisfying a storm run must be reproducible, not a log line).
  if (!result.lin.linearizable && !result.lin.exhausted_budget) {
    result.artifact_path = dump_failure_artifact(
        config, result, "non-linearizable history", result.lin.explanation);
  } else if (result.drained && !result.converged) {
    result.artifact_path = dump_failure_artifact(
        config, result, "replica divergence", result.consistency.detail);
  }
  return result;
}

}  // namespace adets::workload
