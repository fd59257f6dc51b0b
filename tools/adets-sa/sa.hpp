// adets-sa: whole-program static concurrency auditor.
//
// Four passes over the lexical program model (model.hpp), and a fifth
// over each file's preprocessed lines:
//
//   1. lock-graph   -- builds a static lock graph whose nodes are mutex
//      identities ("Class::member") and whose edges are acquire-while-
//      held facts, direct (a MutexLock taken while another is held) and
//      transitive (a call made under lock into a function that acquires,
//      via a may-acquire fixpoint over the approximate call graph).
//      Cycles are reported with one witness edge per participant.
//
//   2. guard-coverage -- classes owning a mutex must annotate their
//      mutable fields with ADETS_GUARDED_BY (or the compiler-invisible
//      ADETS_GUARDED_BY_STATIC for raw std::mutex members); condvar
//      waits in classes with unguarded mutable state, and REQUIRES
//      functions callable from unannotated public entry points, are
//      flagged alongside.
//
//   3. determinism-taint -- intra-procedural dataflow from
//      nondeterminism sources (real-clock reads, thread handles,
//      pointer-as-ordering-key, locally seeded Rng) into scheduler
//      decision state: assignments to fields of sched-scoped classes
//      and arguments of grant-path calls.
//
//   4. effects -- interprocedural may-block effect analysis.  A
//      transitive "may block" fact (condvar waits, sleep primitives,
//      ADETS_MAY_BLOCK declarations such as network sends and user
//      upcalls) is propagated over the approximate call graph and
//      checked against every region that holds a scheduler/strategy
//      mutex, with a call-chain witness.  The same reachability,
//      rooted at grant-decision hooks and cut at the ADETS_MAY_BLOCK
//      boundary, audits the full grant path for nondeterministic
//      reads and writes to unguarded state (the PR 8 taint pass saw
//      only one hop).
//
//   5. lexical -- determinism lint: line rules for replica-local
//      constructs (wall-clock reads, thread ids, unseeded randomness,
//      unordered iteration, raw std mutexes, pointer keys, timed waits,
//      raw sleeps) in files under sched/, replication/ or lin/.
//
// Suppression: `// adets-sa:allow(<rule>) <reason>` on the finding line
// or alone on the line directly above; it names one rule of any pass.
// A reasonless allow is itself a finding (rule bad-allow).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "model.hpp"

namespace adets::sa {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  /// Qualified class the finding is about (guard-coverage rules only);
  /// lets scan() drop condvar-unguarded findings once every unguarded
  /// field of the class has been fixed or explicitly suppressed.
  std::string cls;
};

struct Rule {
  std::string name;
  std::string summary;
};

/// The rule set, in reporting order.
const std::vector<Rule>& rules();

/// Pass 1: static lock graph + cycle detection.
std::vector<Finding> lock_graph_pass(const Program& prog);

/// Pass 2: guard-coverage audit.
std::vector<Finding> guard_pass(const Program& prog);

/// Pass 3: determinism taint.
std::vector<Finding> taint_pass(const Program& prog);

/// Pass 4: interprocedural may-block effects (blocking-under-monitor)
/// and grant-path effect audit (grant-path-taint, grant-path-write).
std::vector<Finding> effects_pass(const Program& prog);

/// Pass 5: determinism lint over one file's preprocessed lines (wall-clock,
/// thread-id, randomness, unordered-iter, raw-mutex, ptr-key,
/// real-time-wait, sleep-for); empty unless lexical_scoped(path).
std::vector<Finding> lexical_pass(const std::string& path,
                                  const std::vector<Line>& lines);

/// Shared by passes 3 and 4: true when `fn` belongs to the
/// scheduler/strategy layer (defined under src/sched, or member of a
/// class deriving Scheduler/SchedulerBase).
bool sched_scoped(const Program& prog, const Function& fn);

/// Scope of pass 5, keyed on the path alone: true when `path` has a
/// `sched`, `replication` or `lin` directory component.
bool lexical_scoped(const std::string& path);

/// Nondeterminism-source kind matched by a statement, or nullptr.
const char* nondet_source_kind(const std::string& text);

/// Per-file `adets-sa:allow` suppressions harvested from comments.
struct Allows {
  /// line -> allowed rule names (an allow on line N covers N and N+1).
  std::map<int, std::set<std::string>> by_line;
  /// Reasonless allows (reported as bad-allow).
  std::vector<Finding> bad;
};

/// Extracts suppressions from one preprocessed source (markers inside
/// strings do not count).
Allows collect_allows(const std::string& path, const std::vector<Line>& lines);

/// Timing/caching counters for one scan() (reported by --report and the
/// CI job log).
struct ScanStats {
  std::size_t files = 0;
  std::size_t memo_hits = 0;  // files served from the parsed-file memo
  double parse_ms = 0.0;      // read+preprocess+tokenize+parse+pass 5
  double analyze_ms = 0.0;    // finalize + passes 1-4
};

/// Builds the model over `paths` (files or directories recursed for C++
/// sources), runs all passes, applies suppressions.  `model_out`, when
/// non-null, receives the finalized program (for --report).  Tokenized
/// files are memoized process-wide (keyed by mtime+size), so repeated
/// scans of shared headers parse once; `stats_out` receives counters.
std::vector<Finding> scan(const std::vector<std::string>& paths,
                          Program* model_out = nullptr,
                          ScanStats* stats_out = nullptr);

/// scan() over one in-memory source; `path` decides pass 5's scope and
/// names the file in findings.
std::vector<Finding> scan_source(const std::string& path,
                                 const std::string& content);

/// Formats a finding as "file:line: [rule] message".
std::string to_string(const Finding& finding);

/// Serialises findings as minimal SARIF 2.1.0.
std::string to_sarif(const std::vector<Finding>& findings);

/// CLI entry.  Flags: --report (model statistics + timing), --sarif
/// <file>, --rules.
/// Exit 0 clean, 1 findings, 2 usage/io error.
int run_cli(const std::vector<std::string>& args);

}  // namespace adets::sa
