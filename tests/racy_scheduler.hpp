// A deliberately NONDETERMINISTIC scheduler: the negative control of
// every determinism check (repl::check_group, lincheck, adets-mc and
// adets-sa).
//
// RacyScheduler is a SchedulerBase strategy, so it takes the path the
// six real strategies take: pooled workers, the reentrancy layer,
// condvar queues, timed waits, nested calls, the decision ring and
// stop() all come from the base.  It breaks the ADETS determinism
// contract in two places, on purpose:
//  - a free mutex goes to the waiter with the earliest real-time
//    arrival stamp (common::Clock::now()), not to a position in the
//    total order;
//  - every request is delayed by an amount derived from the REPLICA'S
//    OWN node id, so replicas reach their locks in different orders.
// Replicas therefore grant contended mutexes in different orders, and
// each check must catch the drift.  Never ship this; it exists so tests
// can prove the checks work.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "sched/base.hpp"

namespace adets::testing {

class RacyScheduler : public sched::SchedulerBase {
 public:
  RacyScheduler() : SchedulerBase(sched::SchedulerConfig{}) {}

  [[nodiscard]] sched::SchedulerKind kind() const override {
    return sched::SchedulerKind::kMat;  // closest model; label only
  }
  [[nodiscard]] sched::SchedulerCapabilities capabilities() const override {
    sched::SchedulerCapabilities caps;
    caps.multithreading = "MA (racy)";
    caps.reentrant_locks = true;
    caps.condition_variables = true;
    caps.timed_wait = true;
    caps.true_multithreading = true;
    return caps;
  }

 protected:
  void handle_request(Lk& lk, sched::Request request) override ADETS_REQUIRES(mon_) {
    spawn_thread(lk, std::move(request));
  }

  void on_thread_start(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_) {
    // The first violation: a replica-local stagger.
    std::uint64_t state =
        env_->self().value() * 0x9e3779b97f4a7c15ULL ^ t.request.id.value();
    lk.unlock();
    common::Clock::sleep_real(std::chrono::milliseconds(common::splitmix64(state) % 20));
    lk.lock();
  }

  void base_lock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override
      ADETS_REQUIRES(mon_) {
    MutexState& m = mutexes_[mutex.value()];
    // The second violation: real-time arrival decides the grant order.
    m.arrivals.emplace(common::Clock::now(), t.id.value());
    hand_over(lk, mutex);
    t.state = sched::ThreadState::kBlockedLock;
    while (m.owner != t.id && !stopping()) block(lk, t);
    t.state = sched::ThreadState::kRunning;
  }

  void base_unlock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override
      ADETS_REQUIRES(mon_) {
    MutexState& m = mutexes_[mutex.value()];
    if (m.owner != t.id) return;  // stop() ended t's wait before a grant
    m.owner = common::ThreadId::invalid();
    hand_over(lk, mutex);
  }

  void base_wait(Lk& lk, ThreadRecord& t, common::MutexId mutex) override
      ADETS_REQUIRES(mon_) {
    base_unlock(lk, t, mutex);
    while (t.state == sched::ThreadState::kBlockedWait && !stopping()) block(lk, t);
    base_lock(lk, t, mutex);
  }

  void resume_waiter(Lk&, ThreadRecord& t, common::MutexId) override ADETS_REQUIRES(mon_) {
    t.state = sched::ThreadState::kBlockedReacquire;
    wake(t);
  }

 private:
  struct MutexState {
    common::ThreadId owner = common::ThreadId::invalid();
    /// Waiters by (arrival stamp, thread id).
    std::set<std::pair<common::TimePoint, std::uint64_t>> arrivals;
  };

  /// Grants a free `mutex` to its earliest arrival.
  void hand_over(Lk& lk, common::MutexId mutex) ADETS_REQUIRES(mon_) {
    MutexState& m = mutexes_[mutex.value()];
    if (m.owner.valid() || m.arrivals.empty()) return;
    m.owner = common::ThreadId(m.arrivals.begin()->second);
    m.arrivals.erase(m.arrivals.begin());
    record_grant(mutex, m.owner);
    ThreadRecord* next = find_thread(lk, m.owner);
    if (next != nullptr && next->state == sched::ThreadState::kBlockedLock) wake(*next);
  }

  std::map<std::uint64_t, MutexState> mutexes_ ADETS_GUARDED_BY(mon_);
};

}  // namespace adets::testing
