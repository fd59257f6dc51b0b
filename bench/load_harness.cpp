// Closed-loop load harness (BENCH_load.json).
//
// Drives N logical closed-loop clients (default 1000, see --clients)
// against a 3-replica KvStore group for each scheduler strategy, twice
// per strategy: `default` (GCS defaults: every submission sent at once)
// and `packed` (a 2 ms submit_flush_delay packs each client node's
// submissions into SubmitBatch datagrams).  Reports throughput and
// p50/p90/p99 latency per run and emits the machine-readable trajectory
// consumed by CI.
//
// The built-in regression gate fails the process if, for any
// scheduler, the packed run's throughput drops below R x the in-run
// default run's (--gate R, default 0.8; 0 disables both bounds), or if
// the packed run sends more than kMaxPackedDatagrams x the default
// run's datagrams.  Both compare within one run, so CI needs no
// cross-run history, and the datagram bound is a count that runner
// speed cannot move.
//
// JSON schema ("adets-bench-load/v2") is documented in
// docs/benchmarking.md.  All times are paper time (real / time scale).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/clock.hpp"
#include "workload/load.hpp"

namespace {

/// A packed run may send at most this share of its default run's
/// datagrams; local runs read 0.43 (SAT, MAT, PDS) and 0.29 (LSA) at 200
/// clients x 10 requests.
constexpr double kMaxPackedDatagrams = 0.6;

using adets::bench::JsonWriter;
using adets::workload::LoadConfig;
using adets::workload::LoadResult;

struct Options {
  int clients = 1000;
  int requests = 20;
  int warmup = 2;
  int connections = 16;
  int replicas = 3;
  std::uint64_t seed = 1;
  double gate = 0.8;  // 0 disables both regression bounds
  std::string out = "BENCH_load.json";
  std::vector<adets::sched::SchedulerKind> kinds = {
      adets::sched::SchedulerKind::kSat, adets::sched::SchedulerKind::kMat,
      adets::sched::SchedulerKind::kLsa, adets::sched::SchedulerKind::kPds};
};

std::vector<adets::sched::SchedulerKind> parse_kinds(const std::string& list) {
  const std::map<std::string, adets::sched::SchedulerKind> names = {
      {"sat", adets::sched::SchedulerKind::kSat},
      {"mat", adets::sched::SchedulerKind::kMat},
      {"lsa", adets::sched::SchedulerKind::kLsa},
      {"pds", adets::sched::SchedulerKind::kPds}};
  std::vector<adets::sched::SchedulerKind> kinds;
  std::string token;
  for (std::size_t i = 0; i <= list.size(); ++i) {
    if (i == list.size() || list[i] == ',') {
      const auto it = names.find(token);
      if (it == names.end()) {
        std::fprintf(stderr, "unknown scheduler '%s' (want sat,mat,lsa,pds)\n",
                     token.c_str());
        std::exit(2);
      }
      kinds.push_back(it->second);
      token.clear();
    } else {
      token += list[i];
    }
  }
  return kinds;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--clients") {
      opt.clients = std::atoi(next());
    } else if (arg == "--requests") {
      opt.requests = std::atoi(next());
    } else if (arg == "--warmup") {
      opt.warmup = std::atoi(next());
    } else if (arg == "--connections") {
      opt.connections = std::atoi(next());
    } else if (arg == "--replicas") {
      opt.replicas = std::atoi(next());
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--gate") {
      opt.gate = std::atof(next());
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--schedulers") {
      opt.kinds = parse_kinds(next());
    } else {
      std::fprintf(stderr,
                   "usage: load_harness [--clients N] [--requests N] [--warmup N]\n"
                   "                    [--connections N] [--replicas N] [--seed S]\n"
                   "                    [--schedulers sat,mat,lsa,pds] [--gate R]\n"
                   "                    [--out BENCH_load.json]\n");
      std::exit(2);
    }
  }
  return opt;
}

LoadConfig make_config(const Options& opt, adets::sched::SchedulerKind kind,
                       bool packed) {
  LoadConfig config;
  config.kind = kind;
  config.replicas = opt.replicas;
  config.logical_clients = opt.clients;
  config.connections = opt.connections;
  config.requests_per_client = opt.requests;
  config.warmup_per_client = opt.warmup;
  config.seed = opt.seed;
  if (packed) config.cluster.gcs.submit_flush_delay = std::chrono::milliseconds(2);
  return config;
}

void write_result(JsonWriter& json, const std::string& scheduler,
                  const std::string& mode, const LoadResult& r) {
  json.begin_object();
  json.field("scheduler", scheduler);
  json.field("mode", mode);
  json.field("completed", r.completed);
  json.field("converged", r.converged);
  json.field("invocations", r.invocations);
  json.field("duration_s", r.duration_s);
  json.field("throughput_rps", r.throughput_rps);
  json.field("p50_ms", r.p50_ms);
  json.field("p90_ms", r.p90_ms);
  json.field("p99_ms", r.p99_ms);
  json.field("mean_ms", r.mean_ms);
  json.field("max_ms", r.max_ms);
  json.field("messages_sent", r.messages_sent);
  json.field("bytes_sent", r.bytes_sent);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  JsonWriter json;
  json.begin_object();
  json.field("schema", "adets-bench-load/v2");
  json.field("time_scale", adets::common::Clock::scale());
  json.key("config");
  json.begin_object();
  json.field("clients", opt.clients);
  json.field("requests_per_client", opt.requests);
  json.field("warmup_per_client", opt.warmup);
  json.field("connections", opt.connections);
  json.field("replicas", opt.replicas);
  json.field("seed", opt.seed);
  json.field("gate", opt.gate);
  json.end_object();
  json.key("results");
  json.begin_array();

  bool failed = false;
  for (const auto kind : opt.kinds) {
    const std::string name = adets::sched::to_string(kind);
    LoadResult baseline;
    for (const bool packed : {false, true}) {
      const char* mode = packed ? "packed" : "default";
      std::fprintf(stderr, "[load] %s/%s: %d clients x %d requests ...\n",
                   name.c_str(), mode, opt.clients, opt.requests);
      const LoadResult r = run_load(make_config(opt, kind, packed));
      std::fprintf(stderr,
                   "[load] %s/%s: %s rps=%.0f p50=%.2fms p99=%.2fms msgs=%llu\n",
                   name.c_str(), mode,
                   r.completed && r.converged ? "ok" : "FAILED",
                   r.throughput_rps, r.p50_ms, r.p99_ms,
                   static_cast<unsigned long long>(r.messages_sent));
      write_result(json, name, mode, r);
      if (!r.completed || !r.converged) failed = true;
      if (!packed) {
        baseline = r;
        continue;
      }
      if (opt.gate > 0.0 && r.throughput_rps < opt.gate * baseline.throughput_rps) {
        std::fprintf(stderr,
                     "[load] GATE: %s packed throughput %.0f rps is below "
                     "%.2f x default %.0f rps\n",
                     name.c_str(), r.throughput_rps, opt.gate, baseline.throughput_rps);
        failed = true;
      }
      const double datagram_bound =
          kMaxPackedDatagrams * static_cast<double>(baseline.messages_sent);
      if (opt.gate > 0.0 && static_cast<double>(r.messages_sent) > datagram_bound) {
        std::fprintf(stderr,
                     "[load] GATE: %s packed sent %llu datagrams, more than %.2f x "
                     "default's %llu\n",
                     name.c_str(), static_cast<unsigned long long>(r.messages_sent),
                     kMaxPackedDatagrams,
                     static_cast<unsigned long long>(baseline.messages_sent));
        failed = true;
      }
    }
  }

  json.end_array();
  json.field("gate_passed", !failed);
  json.end_object();

  std::ofstream out(opt.out);
  out << json.str() << "\n";
  out.close();
  std::fprintf(stderr, "[load] wrote %s\n", opt.out.c_str());
  return failed ? 1 : 0;
}
