// Scheduler microbenchmark (BENCH_sched.json): raw grants per second.
//
// Measures the scheduler layer in isolation — no simulated network, no
// paper-time sleeps.  A single replica of each scheduler kind executes R
// requests whose bodies are K lock/unlock pairs over a small mutex set,
// driven through the in-process SchedulerCluster harness (an emulated
// total-order bus).  The reported figure is base-level lock grants per
// real second, i.e. the synchronisation-primitive overhead each strategy
// adds on top of the (here absent) network and computation costs.  Next
// to it, the scheduler's wake-ups per grant: how many blocked threads it
// made runnable for each grant, a count that no host speed changes.
//
// JSON schema ("adets-bench-sched/v1") is documented in
// docs/benchmarking.md.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/clock.hpp"
#include "sched_harness.hpp"

namespace {

using adets::bench::JsonWriter;

struct Options {
  int requests = 2000;
  int locks_per_request = 8;
  int mutexes = 4;
  std::string out = "BENCH_sched.json";
  std::vector<adets::sched::SchedulerKind> kinds = {
      adets::sched::SchedulerKind::kSat, adets::sched::SchedulerKind::kMat,
      adets::sched::SchedulerKind::kLsa, adets::sched::SchedulerKind::kPds};
};

Options parse_args(int argc, char** argv) {
  Options opt;
  const std::map<std::string, adets::sched::SchedulerKind> names = {
      {"sat", adets::sched::SchedulerKind::kSat},
      {"mat", adets::sched::SchedulerKind::kMat},
      {"lsa", adets::sched::SchedulerKind::kLsa},
      {"pds", adets::sched::SchedulerKind::kPds}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--requests") {
      opt.requests = std::atoi(next());
    } else if (arg == "--locks") {
      opt.locks_per_request = std::atoi(next());
    } else if (arg == "--mutexes") {
      opt.mutexes = std::atoi(next());
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--schedulers") {
      opt.kinds.clear();
      std::string token;
      const std::string list = next();
      for (std::size_t j = 0; j <= list.size(); ++j) {
        if (j == list.size() || list[j] == ',') {
          const auto it = names.find(token);
          if (it == names.end()) {
            std::fprintf(stderr, "unknown scheduler '%s'\n", token.c_str());
            std::exit(2);
          }
          opt.kinds.push_back(it->second);
          token.clear();
        } else {
          token += list[j];
        }
      }
    } else {
      std::fprintf(stderr,
                   "usage: sched_microbench [--requests N] [--locks K] "
                   "[--mutexes M] [--schedulers sat,mat,lsa,pds] "
                   "[--out BENCH_sched.json]\n");
      std::exit(2);
    }
  }
  return opt;
}

struct Point {
  std::string scheduler;
  bool completed = false;
  std::uint64_t lock_grants = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t wakeups = 0;
  double wakeups_per_grant = 0.0;
  double duration_s = 0.0;
  double grants_per_s = 0.0;
  double requests_per_s = 0.0;
};

Point run_point(const Options& opt, adets::sched::SchedulerKind kind) {
  Point point;
  point.scheduler = adets::sched::to_string(kind);
  adets::testing::SchedulerCluster cluster(kind, /*replicas=*/1);
  for (int r = 1; r <= opt.requests; ++r) {
    cluster.set_body(static_cast<std::uint64_t>(r), [&opt](adets::testing::BodyCtx& ctx) {
      for (int k = 0; k < opt.locks_per_request; ++k) {
        const auto m = static_cast<std::uint64_t>(k % opt.mutexes);
        ctx.lock(m);
        ctx.unlock(m);
      }
    });
  }
  const auto start = adets::common::Clock::now();
  for (int r = 1; r <= opt.requests; ++r) {
    cluster.submit(static_cast<std::uint64_t>(r));
  }
  point.completed = cluster.wait_completed(
      static_cast<std::uint64_t>(opt.requests), std::chrono::seconds(120));
  const auto elapsed = adets::common::Clock::now() - start;
  const auto stats = cluster.replica(0).stats();
  cluster.stop();
  point.lock_grants = stats.lock_grants;
  point.broadcasts = stats.broadcasts;
  point.wakeups = stats.wakeups;
  if (point.lock_grants > 0) {
    point.wakeups_per_grant =
        static_cast<double>(point.wakeups) / static_cast<double>(point.lock_grants);
  }
  point.duration_s = static_cast<double>(elapsed.count()) / 1e9;
  if (point.duration_s > 0.0) {
    point.grants_per_s = static_cast<double>(point.lock_grants) / point.duration_s;
    point.requests_per_s = static_cast<double>(opt.requests) / point.duration_s;
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  JsonWriter json;
  json.begin_object();
  json.field("schema", "adets-bench-sched/v1");
  json.key("config");
  json.begin_object();
  json.field("requests", opt.requests);
  json.field("locks_per_request", opt.locks_per_request);
  json.field("mutexes", opt.mutexes);
  json.end_object();
  json.key("results");
  json.begin_array();

  bool failed = false;
  for (const auto kind : opt.kinds) {
    const Point p = run_point(opt, kind);
    std::fprintf(stderr,
                 "[sched] %s: %s grants/s=%.0f req/s=%.0f wakeups=%llu "
                 "wakeups/grant=%.3f (%.2fs)\n",
                 p.scheduler.c_str(), p.completed ? "ok" : "TIMEOUT", p.grants_per_s,
                 p.requests_per_s, static_cast<unsigned long long>(p.wakeups),
                 p.wakeups_per_grant, p.duration_s);
    if (!p.completed) failed = true;
    json.begin_object();
    json.field("scheduler", p.scheduler);
    json.field("completed", p.completed);
    json.field("lock_grants", p.lock_grants);
    json.field("broadcasts", p.broadcasts);
    json.field("wakeups", p.wakeups);
    json.field("wakeups_per_grant", p.wakeups_per_grant);
    json.field("duration_s", p.duration_s);
    json.field("grants_per_s", p.grants_per_s);
    json.field("requests_per_s", p.requests_per_s);
    json.end_object();
  }

  json.end_array();
  json.end_object();

  std::ofstream out(opt.out);
  out << json.str() << "\n";
  out.close();
  std::fprintf(stderr, "[sched] wrote %s\n", opt.out.c_str());
  return failed ? 1 : 0;
}
