// lincheck: offline linearizability checker for recorded histories.
//
//   lincheck run.history                    # spec from the file header
//   lincheck --no-partition --max-states 100000 run.history
//
// History files are what the scenario runner dumps on a failed run (and
// what tests/data/ pins); the point of this tool is replaying such an
// artifact offline and getting the same verdict with a minimal
// counterexample report.
//
// Exit codes: 0 = every history linearizable, 1 = at least one
// non-linearizable (or inconclusive: budget exhausted), 2 = usage,
// unreadable file, or unknown spec.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "lin/checker.hpp"
#include "lin/history.hpp"
#include "lin/spec.hpp"

namespace {

struct Cli {
  bool partition = true;
  bool minimize = true;
  std::uint64_t max_states = 4'000'000;
  std::vector<std::string> files;
};

void usage() {
  std::fprintf(stderr,
               "usage: lincheck [options] FILE...\n"
               "  (the sequential spec is the 'spec' header of each file)\n"
               "  --no-partition    disable P-compositionality partitioning\n"
               "  --no-minimize     report the raw failing prefix, unshrunk\n"
               "  --max-states N    search budget per history (default 4000000)\n");
}

bool parse_args(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-partition") {
      cli->partition = false;
    } else if (arg == "--no-minimize") {
      cli->minimize = false;
    } else if (arg == "--max-states") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lincheck: --max-states needs a value\n");
        return false;
      }
      try {
        cli->max_states = std::stoull(argv[++i]);
      } catch (const std::exception&) {
        std::fprintf(stderr, "lincheck: bad --max-states value\n");
        return false;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "lincheck: unknown option %s\n", arg.c_str());
      return false;
    } else {
      cli->files.push_back(arg);
    }
  }
  if (cli->files.empty()) {
    usage();
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_args(argc, argv, &cli)) return 2;

  adets::lin::CheckOptions options;
  options.partition = cli.partition;
  options.minimize = cli.minimize;
  options.max_states = cli.max_states;

  int worst = 0;
  for (const std::string& file : cli.files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "lincheck: cannot open %s\n", file.c_str());
      return 2;
    }
    std::string error;
    const auto loaded = adets::lin::load_history(in, &error);
    if (!loaded) {
      std::fprintf(stderr, "lincheck: %s: %s\n", file.c_str(), error.c_str());
      return 2;
    }
    const std::string& spec_name = loaded->spec_name;
    if (spec_name.empty()) {
      std::fprintf(stderr, "lincheck: %s has no 'spec' header\n", file.c_str());
      return 2;
    }
    const auto spec = adets::lin::make_spec(spec_name);
    if (!spec) {
      std::fprintf(stderr, "lincheck: unknown spec '%s'\n", spec_name.c_str());
      return 2;
    }

    const adets::lin::CheckResult result =
        adets::lin::check_history(loaded->history, *spec, options);
    std::printf("%s: %s [spec %s, %llu ops, %llu partition(s), %llu states, "
                "%llu memo hits]\n",
                file.c_str(),
                result.linearizable
                    ? "linearizable"
                    : (result.exhausted_budget ? "INCONCLUSIVE" : "NON-LINEARIZABLE"),
                spec_name.c_str(),
                static_cast<unsigned long long>(result.ops),
                static_cast<unsigned long long>(result.partitions),
                static_cast<unsigned long long>(result.states_explored),
                static_cast<unsigned long long>(result.memo_hits));
    if (!result.linearizable) {
      std::printf("%s\n", result.explanation.c_str());
      worst = 1;
    }
  }
  return worst;
}
