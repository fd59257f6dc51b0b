// adetsmc: CLI front-end of the adets-mc model checker (src/mc/).
//
//   adetsmc                          # bounded sweep: all strategies/scenarios
//   adetsmc --strategy seq --scenario locks --exhaustive
//   adetsmc --strategy racy --trace-out racy.trace
//   adetsmc --replay racy.trace      # byte-for-byte re-execution
//   adetsmc --list
//
// Exit codes: 0 = no violations, 1 = violation found (or reproduced on
// replay), 2 = usage/configuration error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/harness.hpp"
#include "mc/scenario.hpp"
#include "mc/trace.hpp"

namespace {

struct Cli {
  std::vector<std::string> strategies;
  std::vector<std::string> scenario_names;
  int preemption_bound = 2;
  bool exhaustive = false;
  std::uint64_t max_schedules = 2000;
  double max_seconds = 60.0;
  std::size_t max_steps = 20000;
  int max_timeout_firings = 4;
  std::string trace_out;
  std::string replay_path;
  bool require_exhausted = false;
  bool list = false;
  bool verbose = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: adetsmc [options]\n"
               "  --strategy NAME[,NAME...]   seq sl sat mat lsa pds pds2 racy (default: all but racy)\n"
               "  --scenario NAME[,NAME...]   see --list (default: all applicable)\n"
               "  --preemption-bound N        bounded mode, N preemptions (default 2)\n"
               "  --exhaustive                full DPOR instead of bounded mode\n"
               "  --max-schedules N           per-(strategy,scenario) budget (default 2000)\n"
               "  --max-seconds S             per-(strategy,scenario) budget (default 60)\n"
               "  --max-steps N               per-execution step cap (default 20000)\n"
               "  --max-timeout-firings N     timed-wait expiries per execution (default 4)\n"
               "  --trace-out FILE            write the minimized witness trace\n"
               "  --require-exhausted         fail (exit 1) unless every pair's space\n"
               "                              was fully covered within its budgets\n"
               "  --replay FILE               re-run a recorded trace exactly\n"
               "  --list                      print strategies and scenarios\n"
               "  --verbose                   progress output\n");
}

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool parse_args(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "adetsmc: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--strategy") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->strategies = split(v);
    } else if (arg == "--scenario") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->scenario_names = split(v);
    } else if (arg == "--preemption-bound") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->preemption_bound = std::atoi(v);
    } else if (arg == "--exhaustive") {
      cli->exhaustive = true;
    } else if (arg == "--max-schedules") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->max_schedules = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-seconds") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->max_seconds = std::atof(v);
    } else if (arg == "--max-steps") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->max_steps = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-timeout-firings") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->max_timeout_firings = std::atoi(v);
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->trace_out = v;
    } else if (arg == "--require-exhausted") {
      cli->require_exhausted = true;
    } else if (arg == "--replay") {
      const char* v = value();
      if (v == nullptr) return false;
      cli->replay_path = v;
    } else if (arg == "--list") {
      cli->list = true;
    } else if (arg == "--verbose") {
      cli->verbose = true;
    } else {
      std::fprintf(stderr, "adetsmc: unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

adets::mc::RunOptions run_options(const Cli& cli) {
  adets::mc::RunOptions run;
  run.max_steps = cli.max_steps;
  run.runtime.max_timeout_firings = cli.max_timeout_firings;
  return run;
}

int do_list() {
  std::printf("strategies:");
  for (const std::string& s : adets::mc::known_strategies()) {
    std::printf(" %s", s.c_str());
  }
  std::printf("\nscenarios:\n");
  for (const auto& scenario : adets::mc::scenarios()) {
    std::printf("  %-12s %s%s\n", scenario.name.c_str(),
                scenario.description.c_str(),
                scenario.racy_only ? " (racy only)" : "");
  }
  return 0;
}

int do_replay(const Cli& cli) {
  const auto trace = adets::mc::load_trace(cli.replay_path);
  if (!trace) {
    std::fprintf(stderr, "adetsmc: cannot read trace %s\n",
                 cli.replay_path.c_str());
    return 2;
  }
  const auto* scenario = adets::mc::find_scenario(trace->scenario);
  if (scenario == nullptr) {
    std::fprintf(stderr, "adetsmc: unknown scenario %s\n",
                 trace->scenario.c_str());
    return 2;
  }
  std::printf("replaying %s: strategy %s, scenario %s, %zu choices\n",
              cli.replay_path.c_str(), trace->strategy.c_str(),
              trace->scenario.c_str(), trace->choices.size());
  const adets::mc::ExecutionResult result = adets::mc::replay_trace(
      *scenario, trace->strategy, trace->choices, run_options(cli));
  std::printf("%s", result.report.c_str());
  if (result.violations.empty()) {
    std::printf("replay: no violations\n");
    return 0;
  }
  for (const auto& v : result.violations) {
    std::printf("replay violation [%s]\n%s\n", v.property.c_str(),
                v.detail.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_args(argc, argv, &cli)) {
    usage();
    return 2;
  }
  if (cli.list) return do_list();
  if (!cli.replay_path.empty()) return do_replay(cli);

  if (cli.strategies.empty()) {
    cli.strategies = {"seq", "sl", "sat", "mat", "lsa", "pds", "pds2"};
  }
  bool any_violation = false;
  bool all_exhausted = true;
  for (const std::string& strategy : cli.strategies) {
    bool known = false;
    for (const std::string& k : adets::mc::known_strategies()) {
      known = known || k == strategy;
    }
    if (!known) {
      std::fprintf(stderr, "adetsmc: unknown strategy %s\n", strategy.c_str());
      return 2;
    }
    for (const auto& scenario : adets::mc::scenarios()) {
      if (!cli.scenario_names.empty()) {
        bool wanted = false;
        for (const std::string& n : cli.scenario_names) {
          wanted = wanted || n == scenario.name;
        }
        if (!wanted) continue;
      }
      if (!adets::mc::strategy_supports(strategy, scenario)) continue;

      adets::mc::ExploreOptions options;
      options.preemption_bound = cli.exhaustive ? -1 : cli.preemption_bound;
      options.max_schedules = cli.max_schedules;
      options.max_seconds = cli.max_seconds;
      options.run = run_options(cli);
      if (cli.verbose) {
        options.progress = [](const std::string& line) {
          std::printf("%s\n", line.c_str());
        };
        std::printf("exploring %s / %s ...\n", strategy.c_str(),
                    scenario.name.c_str());
      }
      const adets::mc::ExploreReport report =
          adets::mc::explore(scenario, strategy, options);
      std::printf("%s", report.report.c_str());
      if (!report.exhausted) {
        all_exhausted = false;
        if (cli.require_exhausted) {
          std::fprintf(stderr,
                       "adetsmc: %s/%s not exhausted within its budgets\n",
                       strategy.c_str(), scenario.name.c_str());
        }
      }
      if (report.found_violation) {
        any_violation = true;
        adets::mc::TraceFile trace;
        trace.strategy = strategy;
        trace.scenario = scenario.name;
        trace.choices = report.witness;
        if (!cli.trace_out.empty()) {
          if (adets::mc::save_trace(cli.trace_out, trace)) {
            std::printf("witness trace written to %s\n", cli.trace_out.c_str());
          } else {
            std::fprintf(stderr, "adetsmc: cannot write %s\n",
                         cli.trace_out.c_str());
          }
        } else {
          std::printf("--- witness trace (replay with --replay)\n%s",
                      adets::mc::render_trace(trace).c_str());
        }
      }
    }
  }
  if (any_violation) return 1;
  if (cli.require_exhausted && !all_exhausted) return 1;
  return 0;
}
