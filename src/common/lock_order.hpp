// Debug-build lock-order validator.
//
// Deadlocks in the ADETS runtime come from lock-order inversions between
// subsystem monitors (e.g. a scheduler hook calling back into the GCS
// while a GCS handler calls into the scheduler).  TSan finds those only
// when both orders actually race in one run; this validator finds the
// *potential*: it maintains a global happens-before graph over mutexes
// ("A was held while B was acquired") and aborts with the offending
// cycle the first time any thread closes one -- even if the run would
// not have deadlocked.
//
// The registry is always compiled; common::Mutex (common/mutex.hpp)
// calls into it only when the build defines ADETS_LOCK_ORDER_CHECK
// (cmake -DADETS_LOCK_ORDER_CHECK=ON -- the CI sanitizer job does).
// Tests drive the registry API directly, so the default build still
// exercises the cycle detection itself.
#pragma once

#include <functional>
#include <string>

namespace adets::common::lock_order {

/// Description of a detected ordering cycle, handed to the failure
/// handler.  `description` is a multi-line human-readable report naming
/// every lock on the cycle.
struct CycleReport {
  std::string description;
};

/// Called by Mutex::lock (and by tests) immediately BEFORE blocking on
/// `lock`, so a potential deadlock is reported instead of hanging.
/// Records an edge held -> lock for every lock the calling thread holds
/// and invokes the failure handler if any edge closes a cycle.
void on_acquire(const void* lock, const char* name);

/// Called after `lock` is released by the calling thread.
void on_release(const void* lock);

/// Called from the mutex destructor: forgets the lock's node and edges
/// so a new mutex reusing the address does not inherit stale ordering.
void on_destroy(const void* lock);

using Handler = std::function<void(const CycleReport&)>;

/// Replaces the failure handler (default: print the report to stderr
/// and abort).  Returns the previous handler; tests install a capturing
/// handler and restore the old one when done.
Handler set_failure_handler(Handler handler);

/// Drops all recorded edges and names.  Test-only; callers must not
/// hold any instrumented lock.
void reset_for_test();

/// Number of distinct ordering edges currently recorded (test aid).
std::size_t edge_count();

}  // namespace adets::common::lock_order
