// Pass 4: interprocedural effects.
//
// Two analyses share one reachability substrate over the approximate
// call graph (Program::resolve_call):
//
// blocking-under-monitor.  A function *may block* if it waits on a
// member condvar, calls a sleep/join primitive, or is declared
// ADETS_MAY_BLOCK (the annotation marks the repo's irreducible
// blocking boundaries: network sends, queue pops, user upcalls).  The
// fact is propagated callee-to-caller to a fixpoint; each propagated
// fact remembers the call edge it came through, so a finding carries a
// witness chain `f -> g -> h blocks at file:line`.  A call made while
// holding a scheduler/strategy mutex into a may-block function defeats
// the paper's progress argument -- every other scheduler thread parks
// behind a lock whose holder is waiting on the outside world -- unless
// the ultimate blocker is the monitor idiom itself (a condvar wait in
// the same class as the held mutex: the wait atomically releases it).
//
// grant-path effect audit.  Grant decisions must be a pure function of
// the delivered total order.  Starting from the strategy hook points
// (handle_request, handle_reply, base_wait, ...) and any sched-scoped
// function that records a grant, we walk the call graph -- cutting at
// ADETS_MAY_BLOCK boundaries, which is where control re-enters the
// total order -- and audit every reachable function for (a)
// nondeterminism sources (grant-path-taint; the intra-procedural pass 3
// only sees one hop) and (b) writes to fields that no ADETS_GUARDED_BY
// contract covers (grant-path-write: state mutated during a decision
// but invisible to the guard audit).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sa.hpp"

namespace adets::sa {
namespace {

/// Free/static primitives that park the calling thread.
const std::set<std::string>& blocking_primitives() {
  static const std::set<std::string>* k = new std::set<std::string>{
      "sleep_for", "sleep_until", "sleep_paper", "sleep_real", "join",
  };
  return *k;
}

/// Strategy hook points: entered with the scheduler monitor held, and
/// the only places a grant decision can originate.
const std::set<std::string>& grant_hooks() {
  static const std::set<std::string>* k = new std::set<std::string>{
      "handle_request",     "handle_reply",      "base_lock",
      "base_unlock",        "base_wait",         "resume_waiter",
      "base_before_nested", "base_after_nested", "on_thread_done",
      "on_thread_start",
  };
  return *k;
}

/// Why (and where) a function may block.
struct BlockFact {
  bool blocks = false;
  bool intrinsic = false;
  std::string reason;          // intrinsic only: what blocks
  int line = 0;                // intrinsic: block site; else: call site
  std::size_t via = SIZE_MAX;  // propagated: callee the fact came through
};

std::string qualified_name(const Function& fn) {
  return fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name;
}

/// "Class" part of a "Class::member" mutex key.
std::string key_class(const std::string& key) {
  const std::size_t at = key.rfind("::");
  return at == std::string::npos ? "" : key.substr(0, at);
}

/// Walks a propagated fact to its intrinsic root, collecting the
/// witness chain ("f -> g -> h blocks at file:line: reason").
std::string witness(const Program& prog, const std::vector<BlockFact>& facts,
                    std::size_t from) {
  std::string chain = qualified_name(prog.functions[from]);
  std::size_t at = from;
  std::set<std::size_t> seen;
  while (facts[at].via != SIZE_MAX && seen.insert(at).second) {
    at = facts[at].via;
    chain += " -> " + qualified_name(prog.functions[at]);
  }
  const Function& leaf = prog.functions[at];
  chain += " blocks at " + leaf.file + ":" + std::to_string(facts[at].line) +
           " (" + facts[at].reason + ")";
  return chain;
}

/// Index of the intrinsic root of a fact chain.
std::size_t ultimate_blocker(const std::vector<BlockFact>& facts,
                             std::size_t from) {
  std::size_t at = from;
  std::set<std::size_t> seen;
  while (facts[at].via != SIZE_MAX && seen.insert(at).second) at = facts[at].via;
  return at;
}

}  // namespace

std::vector<Finding> effects_pass(const Program& prog) {
  std::vector<Finding> out;
  const std::size_t n = prog.functions.size();

  // --- may-block facts: intrinsic seeds -----------------------------------
  std::vector<BlockFact> facts(n);
  // Keys this function is REQUIRED to hold (for the release gate below).
  std::vector<std::vector<std::string>> required(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Function& fn = prog.functions[i];
    const int cls = fn.cls.empty() ? -1 : prog.find_class(fn.cls);
    for (const auto& r : fn.requires_held) {
      const std::string key = prog.mutex_key(cls, r);
      required[i].push_back(key.empty() ? r : key);
    }
    BlockFact& f = facts[i];
    if (fn.may_block) {
      f = {true, true, "declared ADETS_MAY_BLOCK", fn.line, SIZE_MAX};
      continue;
    }
    if (fn.non_blocking) continue;  // declared never to park
    for (const CondVarWait& w : fn.cv_waits) {
      if (w.deferred) continue;  // a lambda body waits, not this fn
      f = {true, true, "waits on condvar '" + w.condvar + "'", w.line,
           SIZE_MAX};
      break;
    }
    if (f.blocks) continue;
    for (const CallSite& c : fn.calls) {
      if (c.deferred) continue;
      if (blocking_primitives().count(c.callee) > 0) {
        f = {true, true, "calls blocking primitive '" + c.callee + "'", c.line,
             SIZE_MAX};
        break;
      }
    }
  }

  // --- fixpoint: propagate callee-to-caller -------------------------------
  // Release gate: if a function drops its REQUIRES-held lock (via a
  // lock-passing parameter) before the blocking call, the caller's lock
  // is released for the duration -- the wait does not endanger it, so
  // the fact stops there (the monitor-release idiom, e.g. unlock ->
  // broadcast -> relock).
  auto held_covers = [](const std::vector<std::string>& held,
                        const std::vector<std::string>& req) {
    for (const auto& k : req) {
      if (std::find(held.begin(), held.end(), k) == held.end()) return false;
    }
    return true;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (facts[i].blocks || prog.functions[i].non_blocking) continue;
      const Function& fn = prog.functions[i];
      for (const CallSite& c : fn.calls) {
        if (c.deferred) continue;  // runs later, elsewhere
        if (!held_covers(c.held, required[i])) continue;  // released first
        for (const std::size_t callee : prog.resolve_call(fn, c)) {
          if (callee == i || !facts[callee].blocks) continue;
          facts[i] = {true, false, "", c.line, callee};
          changed = true;
          break;
        }
        if (facts[i].blocks) break;
      }
    }
  }

  // --- check: regions holding a scheduler/strategy mutex ------------------
  auto is_sched_mutex = [&](const std::string& key) {
    const int cls = prog.find_class(key_class(key));
    if (cls < 0) return false;
    return prog.classes[cls].file.find("sched/") != std::string::npos ||
           prog.derives_from(cls, "Scheduler") ||
           prog.derives_from(cls, "SchedulerBase");
  };
  auto first_sched_key = [&](const std::vector<std::string>& held) {
    for (const auto& k : held) {
      if (is_sched_mutex(k)) return k;
    }
    return std::string();
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Function& fn = prog.functions[i];
    if (fn.no_analysis) continue;
    // Direct condvar waits under a *foreign* scheduler mutex.  Waiting
    // on the own class's condvar is the monitor idiom (the wait
    // releases the mutex); waiting while holding someone else's lock
    // parks that lock for the duration.
    for (const CondVarWait& w : fn.cv_waits) {
      for (const auto& key : w.held) {
        if (!is_sched_mutex(key)) continue;
        if (key_class(key) == fn.cls) continue;  // monitor wait
        out.push_back({fn.file, w.line, "blocking-under-monitor",
                       qualified_name(fn) + " waits on condvar '" + w.condvar +
                           "' while holding " + key,
                       fn.cls});
      }
    }
    // Call sites under a scheduler mutex into may-block callees are
    // collected first; the report below keeps only the frame closest to
    // the blocking boundary, so one justified suppression at the
    // boundary call silences the (redundant) callers of that function.
  }
  struct Candidate {
    std::size_t fn = 0;
    std::size_t callee = 0;
    int line = 0;
    std::string key;
  };
  std::vector<Candidate> candidates;
  std::set<std::size_t> flagged;  // functions with >= 1 candidate
  for (std::size_t i = 0; i < n; ++i) {
    const Function& fn = prog.functions[i];
    if (fn.no_analysis) continue;
    for (const CallSite& c : fn.calls) {
      const std::string key = first_sched_key(c.held);
      if (key.empty()) continue;
      for (const std::size_t callee : prog.resolve_call(fn, c)) {
        if (!facts[callee].blocks) continue;
        const std::size_t leaf = ultimate_blocker(facts, callee);
        const Function& lf = prog.functions[leaf];
        // Monitor idiom: the chain bottoms out in a condvar wait of the
        // class owning the held mutex -- the wait releases it.
        if (facts[leaf].intrinsic && !lf.cv_waits.empty() &&
            lf.cls == key_class(key)) {
          continue;
        }
        candidates.push_back({i, callee, c.line, key});
        flagged.insert(i);
        break;  // one witness per call site
      }
    }
  }
  for (const Candidate& cand : candidates) {
    // A caller of a function that is itself flagged would only restate
    // the same boundary; report the innermost frame.
    if (!facts[cand.callee].intrinsic && flagged.count(cand.callee) > 0) {
      continue;
    }
    const Function& fn = prog.functions[cand.fn];
    std::vector<BlockFact> with_here = facts;
    with_here[cand.fn] = {true, false, "", cand.line, cand.callee};
    out.push_back({fn.file, cand.line, "blocking-under-monitor",
                   "may-block call under " + cand.key + ": " +
                       witness(prog, with_here, cand.fn),
                   fn.cls});
  }

  // --- grant-path reachability --------------------------------------------
  // Roots: strategy hook points plus any sched-scoped function that
  // records a grant decision.
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < n; ++i) {
    const Function& fn = prog.functions[i];
    if (!sched_scoped(prog, fn) || fn.statements.empty()) continue;
    bool is_root = grant_hooks().count(fn.name) > 0;
    for (const CallSite& c : fn.calls) {
      if (c.callee == "record_grant" || c.callee == "record_decision") {
        is_root = true;
        break;
      }
    }
    if (is_root) roots.push_back(i);
  }
  std::map<std::size_t, std::size_t> parent;  // reached -> via caller
  std::set<std::size_t> reached;
  std::vector<std::size_t> work = roots;
  for (const std::size_t r : roots) reached.insert(r);
  while (!work.empty()) {
    const std::size_t at = work.back();
    work.pop_back();
    const Function& fn = prog.functions[at];
    for (const CallSite& c : fn.calls) {
      const std::vector<std::size_t> targets = prog.resolve_call(fn, c);
      // The ADETS_MAY_BLOCK boundary re-enters the total order
      // (execute/broadcast); past it the audit belongs to the lower
      // layer.  The annotation lives on the interface declaration, so
      // one annotated candidate makes the whole call site a boundary
      // (attributes are not inherited by overrides).
      const bool boundary =
          std::any_of(targets.begin(), targets.end(), [&](std::size_t k) {
            return prog.functions[k].may_block;
          });
      if (boundary) continue;
      for (const std::size_t callee : targets) {
        if (prog.functions[callee].no_analysis) continue;
        if (!reached.insert(callee).second) continue;
        parent[callee] = at;
        work.push_back(callee);
      }
    }
  }
  auto grant_chain = [&](std::size_t at) {
    std::string chain = qualified_name(prog.functions[at]);
    std::set<std::size_t> seen{at};
    while (parent.count(at) > 0 && seen.insert(parent[at]).second) {
      at = parent[at];
      chain = qualified_name(prog.functions[at]) + " -> " + chain;
    }
    return chain;
  };

  for (const std::size_t i : reached) {
    const Function& fn = prog.functions[i];
    if (fn.no_analysis) continue;
    const int cls = fn.cls.empty() ? -1 : prog.find_class(fn.cls);
    // (a) nondeterminism sources anywhere on the grant path.
    for (const Statement& st : fn.statements) {
      if (const char* kind = nondet_source_kind(st.text)) {
        out.push_back({fn.file, st.line, "grant-path-taint",
                       std::string(kind) + " on the grant path: " +
                           grant_chain(i),
                       fn.cls});
      }
    }
    // (b) writes to state no guard contract covers.
    for (const FieldAccess& a : fn.accesses) {
      if (!a.is_write) continue;
      int owner = -1;
      const Field* f = prog.find_member(cls, a.field, &owner);
      if (f == nullptr || f->is_const || f->is_atomic) continue;
      if (!f->guarded_by.empty()) continue;  // guard audit covers it
      out.push_back({fn.file, a.line, "grant-path-write",
                     "write to unguarded field '" + a.field +
                         "' on the grant path: " + grant_chain(i),
                     fn.cls});
    }
  }

  return out;
}

}  // namespace adets::sa
