#include "common/lock_order.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

namespace adets::common::lock_order {
namespace {

// All registry state lives behind one plain std::mutex.  This file is
// the instrumentation layer itself, so it deliberately uses the raw std
// type: instrumenting the registry's own lock would recurse.
struct Registry {
  std::mutex mu;
  // edges[a] = set of locks ever acquired while `a` was held.
  std::map<const void*, std::set<const void*>> edges;
  std::map<const void*, std::string> names;
  Handler handler;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during shutdown
  return *r;
}

// Locks currently held by this thread, in acquisition order.  The name
// rides along so the registry only needs to learn it when the lock
// first participates in an ordering edge.
struct Held {
  const void* lock;
  const char* name;
};

std::vector<Held>& held() {
  static thread_local std::vector<Held> stack;
  return stack;
}

std::string lock_label(const Registry& reg, const void* lock) {
  std::ostringstream out;
  const auto it = reg.names.find(lock);
  out << (it != reg.names.end() ? it->second : std::string("<mutex>")) << " ("
      << lock << ")";
  return out.str();
}

// Depth-first search for a path `from` -> ... -> `to` in the edge graph.
// Appends the path (excluding `from`) to `path` and returns true if found.
bool find_path(const Registry& reg, const void* from, const void* to,
               std::set<const void*>& visited, std::vector<const void*>& path) {
  if (from == to) return true;
  if (!visited.insert(from).second) return false;
  const auto it = reg.edges.find(from);
  if (it == reg.edges.end()) return false;
  for (const void* next : it->second) {
    path.push_back(next);
    if (find_path(reg, next, to, visited, path)) return true;
    path.pop_back();
  }
  return false;
}

void default_handler(const CycleReport& report) {
  std::fprintf(stderr, "%s", report.description.c_str());
  std::fflush(stderr);
  std::abort();
}

// Builds the report for the inversion "acquiring `lock` while `held_lock`
// is held, but `lock` ->* `held_lock` is already an established order".
CycleReport make_report(const Registry& reg, const void* lock,
                        const void* held_lock,
                        const std::vector<const void*>& path) {
  std::ostringstream out;
  out << "adets lock-order violation: acquiring " << lock_label(reg, lock)
      << " while holding " << lock_label(reg, held_lock) << "\n"
      << "established order (held -> acquired):\n"
      << "  " << lock_label(reg, lock) << "\n";
  for (const void* step : path) {
    out << "  -> " << lock_label(reg, step) << "\n";
  }
  out << "this acquisition closes the cycle: " << lock_label(reg, held_lock)
      << " -> " << lock_label(reg, lock) << "\n";
  return CycleReport{out.str()};
}

}  // namespace

void on_acquire(const void* lock, const char* name) {
  auto& stack = held();
  Handler to_fire;
  CycleReport report;
  // Fast path: nothing held means no new ordering edge -- the registry
  // (and its global mutex) is not touched at all.  This keeps the
  // validator's steady-state cost near zero for leaf acquisitions,
  // which dominate: each subsystem monitor is usually taken alone.
  if (!stack.empty()) {
    auto& reg = registry();
    const std::lock_guard<std::mutex> guard(reg.mu);
    for (const Held& h : stack) {
      if (h.lock == lock) continue;  // relock through a condvar wait; not an edge
      auto& targets = reg.edges[h.lock];
      // An edge already present was cycle-checked when first recorded.
      if (targets.count(lock) > 0) continue;
      // Would the new edge h -> lock close a cycle?  It does iff a path
      // lock ->* h already exists.
      std::set<const void*> visited;
      std::vector<const void*> path;
      reg.names[h.lock] = h.name;
      reg.names[lock] = name;
      if (find_path(reg, lock, h.lock, visited, path)) {
        report = make_report(reg, lock, h.lock, path);
        to_fire = reg.handler ? reg.handler : Handler(default_handler);
        break;
      }
      targets.insert(lock);
    }
  }
  // Fire outside the registry lock so a capturing test handler may call
  // back into the registry API.
  if (to_fire) {
    to_fire(report);
    return;  // only reached when the handler did not abort
  }
  stack.push_back({lock, name});
}

void on_release(const void* lock) {
  auto& stack = held();
  // Unlock is almost always LIFO; search from the back for the rare
  // hand-over-hand pattern.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->lock == lock) {
      stack.erase(std::next(it).base());
      return;
    }
  }
}

void on_destroy(const void* lock) {
  auto& reg = registry();
  const std::lock_guard<std::mutex> guard(reg.mu);
  reg.edges.erase(lock);
  for (auto& [from, targets] : reg.edges) targets.erase(lock);
  reg.names.erase(lock);
}

Handler set_failure_handler(Handler handler) {
  auto& reg = registry();
  const std::lock_guard<std::mutex> guard(reg.mu);
  Handler old = std::move(reg.handler);
  reg.handler = std::move(handler);
  return old;
}

void reset_for_test() {
  auto& reg = registry();
  const std::lock_guard<std::mutex> guard(reg.mu);
  reg.edges.clear();
  reg.names.clear();
  held().clear();
}

std::size_t edge_count() {
  auto& reg = registry();
  const std::lock_guard<std::mutex> guard(reg.mu);
  std::size_t n = 0;
  for (const auto& [from, targets] : reg.edges) n += targets.size();
  return n;
}

}  // namespace adets::common::lock_order
