// Model-checker interception points (adets-mc, src/mc/).
//
// The stateless model checker explores the scheduler interleaving space
// by serialising every thread of a scenario onto a single logical
// processor and enumerating, at each synchronisation operation, which
// thread may take the next step (CHESS/DPOR lineage; see
// docs/model-checking.md).  The operations it must own are exactly the
// ones the ADETS monitors already route through this directory:
// common::Mutex acquire/release, common::CondVar wait/notify (including
// the timed waits whose expiry the strategies convert into totally
// ordered timeout events), and common::TimerService expiries.
//
// This header is the entire coupling surface: the wrappers consult one
// process-global Interceptor pointer that is null except while a model
// checking run is active, so production builds pay a single relaxed
// atomic load per operation.  Every callback returns false when the
// calling thread is not managed by the checker, in which case the
// wrapper falls back to the real primitive (the checker's own control
// thread, gtest main threads and the TimerService worker all take that
// path).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

namespace adets::mchook {

class Interceptor {
 public:
  virtual ~Interceptor() = default;

  // --- common::Mutex ------------------------------------------------------
  // Handled calls perform the underlying std operation themselves (the
  // checker really acquires/releases, so invariants hold if it hands
  // control back to uninstrumented code during teardown).
  virtual bool mutex_lock(void* mutex, const char* name) = 0;
  virtual bool mutex_unlock(void* mutex) = 0;

  // --- common::CondVar ----------------------------------------------------
  /// `mutex` is the common::Mutex guarding the wait.  For timed waits the
  /// expiry is a scheduling choice, not a clock read: the checker decides
  /// whether the wait resolves as notified or timed out and reports it
  /// through `*timed_out`.
  virtual bool cv_wait(void* condvar, void* mutex, bool timed, bool* timed_out) = 0;
  virtual bool cv_notify(void* condvar, bool all) = 0;

  // --- common::TimerService ----------------------------------------------
  /// Virtualises a one-shot timer: instead of arming a real clock, the
  /// expiry becomes an explorable choice that runs `*fn` on a checker
  /// managed thread at a point of the checker's choosing.  `*fn` is moved
  /// from only when the call returns true (handled); on false the caller
  /// still owns it and arms a real timer.
  virtual bool timer_schedule(std::function<void()>* fn) = 0;

  // --- scheduler thread lifecycle (sched/base.cpp) ------------------------
  /// Called by the spawning thread when it creates a scheduler thread,
  /// before handing it to a pooled OS worker; returns a ticket the
  /// adopting worker passes to thread_begin, so task identities are
  /// assigned in deterministic (spawn) order whichever worker adopts the
  /// thread and however the workers race.  Ticket 0 means "not managed".
  virtual std::uint64_t thread_spawning() = 0;
  /// Bracket one scheduler thread on the worker that runs it, once per
  /// thread; between the two calls the worker is a managed task, outside
  /// them it is not and holds no intercepted lock.
  virtual void thread_begin(std::uint64_t ticket) = 0;
  virtual void thread_end() = 0;
};

/// Null except while src/mc has a run active.  Ordinary builds never
/// store to this; the wrappers only pay the load.
extern std::atomic<Interceptor*> g_interceptor;

inline Interceptor* active() {
  return g_interceptor.load(std::memory_order_acquire);
}

/// Installs `interceptor` for the duration of a model-checking run.
/// Aborts if another run is active (runs are process-exclusive).
void install(Interceptor* interceptor);
void uninstall(Interceptor* interceptor);

}  // namespace adets::mchook
