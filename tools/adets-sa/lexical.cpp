// Pass 5: determinism lint.
//
// Line rules for constructs that smuggle replica-local information into
// replicated code: wall-clock reads, OS thread ids, unseeded entropy,
// iteration in hash order, raw std synchronisation types (which bypass
// the annotated, order-checked common::Mutex), pointer-keyed ordered
// containers, timed waits and raw sleeps.  Unlike passes 1-4 it needs
// no program model: each rule is a regex over one file's comment- and
// literal-stripped lines (preprocess()), plus a declared-identifier
// scan that finds the file's unordered containers.
//
// Scope is a fixed path rule (lexical_scoped): files with a `sched`,
// `replication` or `lin` directory component.  The common/ wrappers
// that implement the sanctioned replacements (Clock, Rng, Mutex, the
// lock-order validator) sit outside it by construction.

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "sa.hpp"

namespace adets::sa {
namespace {

struct LineRule {
  const char* rule;
  /// Substrings one of which every match contains: a cheap test that
  /// spares most lines the regex.
  std::vector<std::string> needles;
  std::regex re;
  const char* message;
};

const std::vector<LineRule>& line_rules() {
  static const std::vector<LineRule>* r = new std::vector<LineRule>{
      {"wall-clock", {"_clock"},
       std::regex(R"((steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b)"),
       "direct wall-clock read; route real-time needs through common::Clock "
       "(common/clock.hpp), which is the single sanctioned escape hatch"},
      {"thread-id", {"get_id"}, std::regex(R"(this_thread\s*::\s*get_id\b)"),
       "OS thread ids differ across replicas; use the scheduler-assigned "
       "common::ThreadId instead"},
      {"randomness", {"rand"}, std::regex(R"(\brandom_device\b|\bs?rand\s*\()"),
       "unseeded randomness diverges across replicas; use common::Rng with a "
       "replica-independent seed (common/rng.hpp)"},
      {"raw-mutex", {"mutex", "condition_variable"},
       std::regex(R"(std\s*::\s*(recursive_mutex|timed_mutex|recursive_timed_mutex|shared_timed_mutex|shared_mutex|mutex|condition_variable_any|condition_variable)\b)"),
       "raw std synchronisation type in scheduler/replication state; use "
       "common::Mutex / common::CondVar (annotated for clang thread-safety "
       "and hooked into the lock-order validator)"},
      {"ptr-key", {"*"}, std::regex(R"(std\s*::\s*(?:multi)?(?:map|set)\s*<\s*[^,<>]*\*)"),
       "pointer-keyed ordered container: iteration follows allocation "
       "addresses, which differ across replicas; key by a stable id"},
      {"real-time-wait", {"wait_"}, std::regex(R"(\.\s*wait_(for|until)\s*\()"),
       "timed wait: the wakeup time depends on this replica's clock; route "
       "the outcome through the totally-ordered stream (see the timeout "
       "broadcast mechanism) or justify with adets-sa:allow"},
      {"sleep-for", {"sleep_"}, std::regex(R"(this_thread\s*::\s*sleep_(for|until)\s*\()"),
       "raw real-time sleep; use common::Clock::sleep_real / sleep_paper "
       "(common/clock.hpp) so every real-time suspension goes through the "
       "one scaled, auditable hatch"},
  };
  return *r;
}

/// Names of unordered containers declared in this file.  Handles nested
/// template arguments by matching angle brackets manually.
std::set<std::string> unordered_names(const std::vector<Line>& lines) {
  std::set<std::string> names;
  std::string all;
  for (const auto& line : lines) {
    all += line.code;
    all += '\n';
  }
  if (all.find("unordered_") == std::string::npos) return names;
  static const std::regex decl(R"(unordered_(?:map|set|multimap|multiset)\s*<)");
  for (auto it = std::sregex_iterator(all.begin(), all.end(), decl);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position()) + it->length();
    int depth = 1;
    while (pos < all.size() && depth > 0) {
      if (all[pos] == '<') depth++;
      if (all[pos] == '>') depth--;
      pos++;
    }
    // Expect: [&*]* identifier [attribute-macro] followed by ; = { or (
    while (pos < all.size() &&
           (std::isspace(static_cast<unsigned char>(all[pos])) != 0 ||
            all[pos] == '&' || all[pos] == '*')) {
      pos++;
    }
    std::string name;
    while (pos < all.size() &&
           (std::isalnum(static_cast<unsigned char>(all[pos])) != 0 ||
            all[pos] == '_')) {
      name += all[pos++];
    }
    if (!name.empty() && name != "const") names.insert(name);
  }
  return names;
}

}  // namespace

std::vector<Finding> lexical_pass(const std::string& path,
                                  const std::vector<Line>& lines) {
  std::vector<Finding> out;
  if (!lexical_scoped(path)) return out;
  const std::set<std::string> unordered = unordered_names(lines);
  static const std::regex range_for(
      R"(for\s*\([^;()]*:\s*(?:this\s*->\s*)?([A-Za-z_]\w*)\s*\))");
  static const std::regex begin_call(
      R"(\b([A-Za-z_]\w*)\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\()");

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int line = static_cast<int>(i) + 1;
    const std::string& code = lines[i].code;
    if (code.find_first_not_of(" \t") == std::string::npos) continue;
    for (const auto& r : line_rules()) {
      const bool candidate =
          std::any_of(r.needles.begin(), r.needles.end(), [&](const std::string& n) {
            return code.find(n) != std::string::npos;
          });
      if (candidate && std::regex_search(code, r.re)) {
        out.push_back({path, line, r.rule, r.message, {}});
      }
    }
    if (unordered.empty()) continue;
    std::set<std::string> hit;
    for (const std::regex* re : {&range_for, &begin_call}) {
      for (auto it = std::sregex_iterator(code.begin(), code.end(), *re);
           it != std::sregex_iterator(); ++it) {
        if (unordered.count((*it)[1]) > 0) hit.insert((*it)[1]);
      }
    }
    for (const auto& name : hit) {
      out.push_back({path, line, "unordered-iter",
                     "iteration over unordered container `" + name +
                         "`: hash order is replica-local; use std::map/std::set "
                         "or copy into a sorted sequence first",
                     {}});
    }
  }
  return out;
}

}  // namespace adets::sa
