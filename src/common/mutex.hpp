// Capability-annotated mutex / condition-variable wrappers.
//
// The ADETS monitors (scheduler, GCS, replica, network) use these
// instead of raw std::mutex / std::condition_variable so that
//  1. clang's -Wthread-safety can check which functions run under which
//     monitor (see common/annotations.hpp and docs/static-analysis.md);
//  2. adets-sa's raw-mutex rule has a sanctioned replacement to point at.
// Lock order is checked statically by adets-sa's lock graph and
// dynamically by ThreadSanitizer, which sees the std::mutex inside.
//
// Every blocking/wake operation additionally consults the adets-mc
// interception point (common/mc_hooks.hpp).  Outside a model-checking
// run that is one relaxed atomic load of a null pointer; during a run
// the checker serialises managed threads and decides grant/wakeup
// order itself (see docs/model-checking.md).  The hook contract keeps
// the real primitive state authoritative: lock() blocks in the hook
// until the checker grants, then takes the real mutex (uncontended by
// construction); unlock() releases the real mutex first and tells the
// checker afterwards.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/mc_hooks.hpp"

namespace adets::common {

/// An annotated std::mutex.
class ADETS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// `name` names the mutex in adets-mc's reports; pass a string literal.
  explicit Mutex(const char* name) : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ADETS_ACQUIRE() {
    // A handled hook call blocks until the checker grants this thread the
    // mutex; the real lock below is then uncontended.
    if (auto* mc = mchook::active()) mc->mutex_lock(this, name_);
    m_.lock();
  }

  void unlock() ADETS_RELEASE() {
    m_.unlock();
    // Real release above precedes the model release, so a thread the
    // checker schedules next never blocks on the real mutex.
    if (auto* mc = mchook::active()) mc->mutex_unlock(this);
  }

  /// The wrapped mutex, for CondVar and std interop.  Locking through
  /// the native handle bypasses the analysis and the adets-mc hooks;
  /// only MutexLock/CondVar may do so.
  std::mutex& native_handle() { return m_; }

  [[nodiscard]] const char* name() const { return name_; }

 private:
  std::mutex m_;
  const char* name_ = "mutex";
};

/// Scoped lock over Mutex, usable with CondVar.  Supports explicit
/// unlock()/lock() for monitor code that drops the lock around a
/// callback (e.g. PDS broadcasting while unlocked).
class ADETS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ADETS_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    lk_ = std::unique_lock<std::mutex>(mu_->native_handle(), std::adopt_lock);
  }

  ~MutexLock() ADETS_RELEASE() {
    if (lk_.owns_lock()) {
      lk_.release();
      mu_->unlock();
    }
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the monitor (must currently hold it).
  void unlock() ADETS_RELEASE() {
    lk_.release();
    mu_->unlock();
  }

  /// Reacquires the monitor after unlock().
  void lock() ADETS_ACQUIRE() {
    mu_->lock();
    lk_ = std::unique_lock<std::mutex>(mu_->native_handle(), std::adopt_lock);
  }

  [[nodiscard]] bool owns_lock() const { return lk_.owns_lock(); }

  /// For CondVar only.
  std::unique_lock<std::mutex>& native() { return lk_; }

  /// The wrapped Mutex; CondVar passes it to the model-checker hook so a
  /// wait can be modelled as release+block+reacquire of that mutex.
  [[nodiscard]] Mutex* mutex() const { return mu_; }

 private:
  Mutex* mu_;
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable paired with Mutex via MutexLock.
///
/// The predicate overloads run their predicate with the lock held, like
/// the std equivalents.  Prefer predicates that only read unguarded or
/// atomic state; clang analyzes lambda bodies as separate functions, so
/// a predicate touching ADETS_GUARDED_BY members may produce
/// false-positive warnings -- restructure such call sites as explicit
/// `while (!cond) cv.wait(lk);` loops instead.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // The real notify always fires even when a checker consumes the event:
  // during run teardown unmanaged threads may be parked on the real
  // condvar, and a spurious notify is harmless by the wait-loop contract.
  void notify_one() {
    if (auto* mc = mchook::active()) mc->cv_notify(this, /*all=*/false);
    cv_.notify_one();
  }

  void notify_all() {
    if (auto* mc = mchook::active()) mc->cv_notify(this, /*all=*/true);
    cv_.notify_all();
  }

  void wait(MutexLock& lk) {
    if (auto* mc = mchook::active()) {
      bool timed_out = false;
      if (mc->cv_wait(this, lk.mutex(), /*timed=*/false, &timed_out)) return;
    }
    cv_.wait(lk.native());
  }

  // The predicate overloads are explicit loops over the single-step waits
  // (instead of forwarding to the std predicate forms) so that every
  // blocking step passes through the hook above.  Semantics match the
  // std equivalents: predicate evaluated with the lock held, timed form
  // keeps one absolute deadline across spurious wakeups.

  template <typename Pred>
  void wait(MutexLock& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  std::cv_status wait_for(MutexLock& lk, Duration timeout) {
    return wait_until(lk, Clock::now() + timeout);
  }

  template <typename Pred>
  bool wait_for(MutexLock& lk, Duration timeout, Pred pred) {
    const TimePoint deadline = Clock::now() + timeout;
    while (!pred()) {
      if (wait_until(lk, deadline) == std::cv_status::timeout) return pred();
    }
    return true;
  }

  std::cv_status wait_until(MutexLock& lk, TimePoint deadline) {
    if (auto* mc = mchook::active()) {
      bool timed_out = false;
      if (mc->cv_wait(this, lk.mutex(), /*timed=*/true, &timed_out)) {
        return timed_out ? std::cv_status::timeout : std::cv_status::no_timeout;
      }
    }
    return cv_.wait_until(lk.native(), deadline);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace adets::common
