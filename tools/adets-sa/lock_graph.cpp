// Pass 1: static lock graph.
//
// Nodes are mutex identities ("Class::member", instance-insensitive by
// design: every instance of a class shares one lock-order role).  Two
// instances of one class locked in both orders are therefore invisible
// here; the runtime lock-order validator keys by address and sees them.
// Edges are acquire-while-held facts:
//
//   * direct: an Acquisition whose `held` set is non-empty;
//   * transitive: a CallSite made under lock resolving to a callee
//     whose may-acquire closure (fixpoint over the approximate call
//     graph) contains another mutex.
//
// Any strongly connected component with more than one node -- or a
// self-loop, since common::Mutex is non-recursive -- is a potential
// deadlock and is reported with one witness edge per hop.
//
// The same call resolution also powers the requires-unheld rule: a call
// into an ADETS_REQUIRES function where no candidate's requirement is
// in the caller's held set.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sa.hpp"

namespace adets::sa {
namespace {

struct Witness {
  std::string file;
  int line = 0;
};

using EdgeMap = std::map<std::pair<std::string, std::string>, Witness>;

/// May-acquire closure: for each function, the set of mutex keys it can
/// acquire directly or through any resolvable call chain.
std::vector<std::set<std::string>> may_acquire(const Program& prog) {
  std::vector<std::set<std::string>> acq(prog.functions.size());
  for (std::size_t i = 0; i < prog.functions.size(); ++i) {
    const Function& fn = prog.functions[i];
    const int cls = fn.cls.empty() ? -1 : prog.find_class(fn.cls);
    for (const auto& a : fn.acquisitions) acq[i].insert(a.mutex_key);
    for (const auto& m : fn.acquires) {
      const std::string key = prog.mutex_key(cls, m);
      if (!key.empty()) acq[i].insert(key);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
      const Function& fn = prog.functions[i];
      for (const auto& c : fn.calls) {
        for (const std::size_t callee : prog.resolve_call(fn, c)) {
          for (const auto& k : acq[callee]) {
            if (acq[i].insert(k).second) changed = true;
          }
        }
      }
    }
  }
  return acq;
}

/// Tarjan SCC over the lock graph; returns components of size > 1 plus
/// single nodes with a self-loop.
std::vector<std::vector<std::string>> cycles(
    const std::map<std::string, std::set<std::string>>& adj) {
  std::vector<std::string> nodes;
  nodes.reserve(adj.size());
  for (const auto& [n, _] : adj) nodes.push_back(n);
  std::map<std::string, int> index;
  std::map<std::string, int> low;
  std::map<std::string, bool> on_stack;
  std::vector<std::string> stack;
  std::vector<std::vector<std::string>> out;
  int next = 0;

  struct Frame {
    std::string node;
    std::vector<std::string> succ;
    std::size_t at = 0;
  };
  for (const auto& root : nodes) {
    if (index.count(root) > 0) continue;
    std::vector<Frame> work;
    auto push = [&](const std::string& n) {
      index[n] = low[n] = next++;
      stack.push_back(n);
      on_stack[n] = true;
      Frame f;
      f.node = n;
      const auto it = adj.find(n);
      if (it != adj.end()) f.succ.assign(it->second.begin(), it->second.end());
      work.push_back(std::move(f));
    };
    push(root);
    while (!work.empty()) {
      Frame& f = work.back();
      if (f.at < f.succ.size()) {
        const std::string& w = f.succ[f.at++];
        if (index.count(w) == 0) {
          push(w);
        } else if (on_stack[w]) {
          low[f.node] = std::min(low[f.node], index[w]);
        }
      } else {
        if (low[f.node] == index[f.node]) {
          std::vector<std::string> comp;
          while (true) {
            const std::string n = stack.back();
            stack.pop_back();
            on_stack[n] = false;
            comp.push_back(n);
            if (n == f.node) break;
          }
          const auto it = adj.find(f.node);
          const bool self_loop = comp.size() == 1 && it != adj.end() &&
                                 it->second.count(f.node) > 0;
          if (comp.size() > 1 || self_loop) out.push_back(std::move(comp));
        }
        const std::string done = f.node;
        work.pop_back();
        if (!work.empty()) {
          low[work.back().node] = std::min(low[work.back().node], low[done]);
        }
      }
    }
  }
  return out;
}

std::string member_of(const std::string& key) {
  const std::size_t at = key.rfind("::");
  return at == std::string::npos ? key : key.substr(at + 2);
}

}  // namespace

std::vector<Finding> lock_graph_pass(const Program& prog) {
  std::vector<Finding> out;
  const std::vector<std::set<std::string>> acq = may_acquire(prog);

  EdgeMap edges;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const std::string& file, int line) {
    if (from == to) {
      // Self-acquisition: report immediately (non-recursive mutexes).
      edges.emplace(std::make_pair(from, to), Witness{file, line});
      return;
    }
    edges.emplace(std::make_pair(from, to), Witness{file, line});
  };

  for (std::size_t i = 0; i < prog.functions.size(); ++i) {
    const Function& fn = prog.functions[i];
    if (fn.no_analysis) continue;
    for (const auto& a : fn.acquisitions) {
      for (const auto& h : a.held) add_edge(h, a.mutex_key, fn.file, a.line);
    }
    for (const auto& c : fn.calls) {
      if (c.held.empty()) continue;
      for (const std::size_t callee : prog.resolve_call(fn, c)) {
        if (prog.functions[callee].no_analysis) continue;
        // A callee that REQUIRES a held mutex re-enters under the same
        // lock by contract; only *new* acquisitions create edges.
        for (const auto& k : acq[callee]) {
          for (const auto& h : c.held) {
            if (std::find(c.held.begin(), c.held.end(), k) == c.held.end()) {
              add_edge(h, k, fn.file, c.line);
            }
          }
        }
      }
    }
  }

  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [e, w] : edges) adj[e.first].insert(e.second);

  for (const auto& comp : cycles(adj)) {
    const std::set<std::string> in_comp(comp.begin(), comp.end());
    // Describe the component with its internal witness edges.
    std::string path;
    const Witness* first = nullptr;
    for (const auto& [e, w] : edges) {
      if (in_comp.count(e.first) == 0 || in_comp.count(e.second) == 0) continue;
      if (first == nullptr) first = &w;
      if (!path.empty()) path += ", ";
      path += e.first + " -> " + e.second + " at " + w.file + ":" +
              std::to_string(w.line);
    }
    if (first == nullptr) continue;
    std::string names;
    for (const auto& n : comp) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    out.push_back({first->file, first->line, "lock-cycle",
                   "lock graph cycle through {" + names + "}: " + path});
  }

  // requires-unheld: a resolvable call into an ADETS_REQUIRES function
  // where no candidate's requirement appears in the caller's held set.
  for (const Function& fn : prog.functions) {
    if (fn.no_analysis || !fn.has_body) continue;
    for (const auto& c : fn.calls) {
      const std::vector<std::size_t> cands = prog.resolve_call(fn, c);
      if (cands.empty()) continue;
      bool any_satisfied = false;
      bool any_required = false;
      std::string wanted;
      for (const std::size_t k : cands) {
        const Function& callee = prog.functions[k];
        if (callee.requires_held.empty()) {
          any_satisfied = true;  // an overload without a requirement
          continue;
        }
        any_required = true;
        bool ok = true;
        for (const auto& r : callee.requires_held) {
          const std::string want = member_of(r);
          const bool held = std::any_of(
              c.held.begin(), c.held.end(),
              [&](const std::string& h) { return member_of(h) == want; });
          if (!held) {
            ok = false;
            if (!wanted.empty()) wanted += ", ";
            wanted += r;
          }
        }
        if (ok) any_satisfied = true;
      }
      if (any_required && !any_satisfied) {
        out.push_back({fn.file, c.line, "requires-unheld",
                       "call to '" + c.callee +
                           "' requires holding {" + wanted +
                           "} but no lock is held on this path"});
      }
    }
  }
  return out;
}

}  // namespace adets::sa
