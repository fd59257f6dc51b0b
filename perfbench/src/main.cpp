// perfbench: runs one benchmark workload and prints its result as one
// JSON line on stdout (perfbench/run.py builds this program, runs it and
// formats the result).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--racy]
//
// --trace 0 measures the end-to-end metrics with the plain scheduler and
// object.  --trace 1 makes an untraced
// run and then a traced one of the same length: the traced run gives
// the per-layer metrics, and the p50 difference between the two is the
// tracing overhead.  --racy swaps in tests/racy_scheduler.hpp's
// nondeterministic scheduler, the self-test's negative control for the
// convergence check.
#include <sched.h>

#include <charconv>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "harness.hpp"
#include "racy_scheduler.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

/// Paper time runs at 1/20 of real time everywhere in the benchmark,
/// whatever ADETS_TIME_SCALE says.
constexpr double kTimeScale = 0.05;

/// Confines the process (every thread it will start) to the last CPU it
/// may use, and returns that CPU (-1 if it could not).  The simulated
/// nodes are threads of one process, so on several vCPUs each hand-off
/// between them can wake an idle vCPU through the hypervisor: a cost no
/// real deployment of separate machines pays, and one that made
/// cpu_us_per_op vary twofold between runs.  Every workload needs less
/// than one core.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest representation that reads back as the same double.
std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

std::string json_result(const RunResult& r) {
  std::string checks = "[";
  for (const auto& c : r.checks) {
    if (checks.size() > 1) checks += ", ";
    checks += "{\"name\": " + json_string(c.name) + ", \"ok\": " + (c.ok ? "true" : "false") +
              ", \"detail\": " + json_string(c.detail) + "}";
  }
  checks += "]";
  return std::string("{\"correct\": ") + (r.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": " + json_metrics(r.metrics) +
         ", \"diagnostics\": " + json_metrics(r.diagnostics) + ", \"checks\": " + checks + "}";
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--racy]\nworkloads:";
  for (const auto& name : perfbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  perfbench::RunOptions options;
  bool trace = false;
  bool racy = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--racy") {
        racy = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload_name = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value) != 0;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  const auto workload = perfbench::make_workload(workload_name);
  if (!workload || options.seconds <= 0) return usage();
  if (racy) {
    options.scheduler = [] { return std::make_unique<adets::testing::RacyScheduler>(); };
  }

  const int cpu = pin_to_one_cpu();
  adets::common::Clock::set_scale(kTimeScale);
  if (!trace) {
    RunResult result = perfbench::run_workload(*workload, options);
    result.diagnostics["host.cpu"] = {static_cast<double>(cpu), "id"};
    std::cout << json_result(result) << std::endl;
    return 0;
  }

  options.setups = 1;
  const RunResult plain = perfbench::run_workload(*workload, options);
  options.traced = true;
  RunResult traced = perfbench::run_workload(*workload, options);
  const double plain_p50 = plain.metrics.at("latency_p50_ms").value;
  const double traced_p50 = traced.metrics.at("latency_p50_ms").value;
  traced.metrics["trace.overhead_p50_pct"] = {
      plain_p50 > 0 ? 100.0 * (traced_p50 - plain_p50) / plain_p50 : 0, "%"};
  traced.diagnostics["untraced.latency_p50_ms"] = {plain_p50, "ms"};
  traced.diagnostics["host.cpu"] = {static_cast<double>(cpu), "id"};
  for (const auto& check : plain.checks) {
    traced.checks.push_back({"untraced." + check.name, check.ok, check.detail});
  }
  traced.attempted += plain.attempted;
  traced.failed = traced.correct() ? traced.failed + plain.failed : traced.attempted;
  std::cout << json_result(traced) << std::endl;
  return 0;
}
