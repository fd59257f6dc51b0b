// Pass 3: determinism taint.
//
// The ADETS contract (src/sched/api.hpp) lets a scheduler consume only
// the totally-ordered event stream and per-thread program order.  This
// pass does a forward intra-procedural dataflow from textual
// nondeterminism sources to scheduler decision state:
//
//   sources: real-clock reads, thread-identity handles, pointers cast
//   to integers (address-as-ordering-key), locally seeded random
//   engines;
//
//   sinks: assignments to member fields of sched-scoped classes
//   (derived from Scheduler/SchedulerBase, or defined under src/sched),
//   and arguments of grant-path calls (record_grant, record_decision,
//   spawn_thread, wake).
//
// Sink scoping matters: layers *below* the total order (e.g. the group
// communication service tracking liveness deadlines) legitimately store
// clock readings under a lock; only the strategy layer must stay
// replica-blind, so only it is audited.

#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sa.hpp"

namespace adets::sa {
namespace {

struct Source {
  const char* kind;
  std::regex re;
};

const std::vector<Source>& sources() {
  static const std::vector<Source>* s = new std::vector<Source>{
      {"real-clock read",
       std::regex(R"(\b(Clock|steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b)")},
      {"real-clock read", std::regex(R"(\b(gettimeofday|clock_gettime|time)\s*\()")},
      {"thread identity",
       std::regex(R"(\bthis_thread\s*::\s*get_id\b|\bpthread_self\s*\(|\.\s*get_id\s*\()")},
      {"pointer as ordering key",
       std::regex(R"(\breinterpret_cast\s*<\s*(std\s*::\s*)?u?intptr_t\b)")},
      {"locally seeded randomness",
       std::regex(R"(\brandom_device\b|\bmt19937\b|\brand\s*\(|\bsrand\s*\()")},
  };
  return *s;
}

const std::set<std::string>& grant_calls() {
  static const std::set<std::string>* k = new std::set<std::string>{
      "record_grant", "record_decision", "spawn_thread", "wake",
  };
  return *k;
}

std::vector<std::string> split_tokens(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string w;
  while (in >> w) out.push_back(w);
  return out;
}

bool is_ident(const std::string& w) {
  if (w.empty()) return false;
  const unsigned char c = static_cast<unsigned char>(w[0]);
  return std::isalpha(c) != 0 || c == '_';
}

/// Index of a plain `=` assignment (not ==, !=, <=, >=, +=, ...), or -1.
int assign_at(const std::vector<std::string>& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] != "=") continue;
    if (i + 1 < t.size() && t[i + 1] == "=") return -1;  // comparison
    if (i > 0) {
      const std::string& p = t[i - 1];
      if (p == "=" || p == "!" || p == "<" || p == ">" || p == "+" ||
          p == "-" || p == "*" || p == "/" || p == "%" || p == "&" ||
          p == "|" || p == "^") {
        return -1;
      }
    }
    return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

const char* nondet_source_kind(const std::string& text) {
  for (const auto& s : sources()) {
    if (std::regex_search(text, s.re)) return s.kind;
  }
  return nullptr;
}

bool sched_scoped(const Program& prog, const Function& fn) {
  if (fn.file.find("sched/") != std::string::npos) return true;
  const int cls = fn.cls.empty() ? -1 : prog.find_class(fn.cls);
  return cls >= 0 && (prog.derives_from(cls, "Scheduler") ||
                      prog.derives_from(cls, "SchedulerBase"));
}

bool lexical_scoped(const std::string& path) {
  // Directory components only: the text after the last '/' is the file.
  std::size_t start = 0;
  std::size_t slash = 0;
  while ((slash = path.find('/', start)) != std::string::npos) {
    const std::string dir = path.substr(start, slash - start);
    if (dir == "sched" || dir == "replication" || dir == "lin") return true;
    start = slash + 1;
  }
  return false;
}

std::vector<Finding> taint_pass(const Program& prog) {
  std::vector<Finding> out;
  for (const Function& fn : prog.functions) {
    if (fn.no_analysis || fn.statements.empty()) continue;
    const int cls = fn.cls.empty() ? -1 : prog.find_class(fn.cls);
    if (!sched_scoped(prog, fn)) continue;

    std::map<std::string, std::string> tainted;  // var -> source kind
    for (const Statement& st : fn.statements) {
      const std::vector<std::string> t = split_tokens(st.text);
      const char* direct = nondet_source_kind(st.text);

      // Does the RHS / argument list mention a tainted variable?
      std::string via;
      std::string via_kind;
      for (const auto& w : t) {
        const auto it = tainted.find(w);
        if (it != tainted.end()) {
          via = it->first;
          via_kind = it->second;
          break;
        }
      }

      const int eq = assign_at(t);
      std::string lhs;
      if (eq > 0 && is_ident(t[eq - 1])) lhs = t[eq - 1];

      if (!lhs.empty() && (direct != nullptr || !via.empty())) {
        const std::string kind = direct != nullptr ? direct : via_kind;
        // Member fields of the sched-scoped class are decision state.
        const bool member_sink =
            prog.find_member(cls, lhs) != nullptr ||
            (lhs.size() > 1 && lhs.back() == '_');
        if (member_sink) {
          std::string how = direct != nullptr
                                ? std::string(kind)
                                : kind + std::string(" via '") + via + "'";
          out.push_back({fn.file, st.line, "det-taint",
                         "nondeterministic value (" + how +
                             ") stored into scheduler state '" + lhs + "' in " +
                             (fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name)});
        } else {
          tainted[lhs] = kind;
        }
        continue;
      }
      // Declarations with initialisers: `auto x = ...` handled above via
      // assign_at; `Type x ( expr )` initialisation from a source:
      if (lhs.empty() && direct != nullptr) {
        // `auto now = Clock::now()` has `=`; `Timestamp now ( ... )` --
        // take the identifier right before the first `(`.
        for (std::size_t i = 1; i + 1 < t.size(); ++i) {
          if (t[i + 1] == "(" && is_ident(t[i]) && is_ident(t[i - 1])) {
            tainted[t[i]] = direct;
            break;
          }
        }
      }
      // Grant-path call with a tainted argument or inline source.
      for (const auto& w : t) {
        if (grant_calls().count(w) == 0) continue;
        if (direct != nullptr || !via.empty()) {
          const std::string kind = direct != nullptr ? direct : via_kind;
          const std::string how =
              direct != nullptr ? kind : kind + std::string(" via '") + via + "'";
          out.push_back({fn.file, st.line, "det-taint",
                         "nondeterministic value (" + how +
                             ") reaches grant-path call '" + w + "' in " +
                             (fn.cls.empty() ? fn.name
                                             : fn.cls + "::" + fn.name)});
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace adets::sa
