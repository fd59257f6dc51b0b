// ADETS-SAT: single active thread with logical-thread identification
// (multithreading model SA+L, paper Sec. 3.2).
//
// Multiple physical threads exist (one per in-flight request plus timeout
// handlers), but exactly one is *active* at any time; all others are
// blocked.  The active thread runs unpreempted until it reaches a
// scheduling point: it completes, blocks on a busy mutex, waits on a
// condition variable, or issues a nested invocation.  The next active
// thread is then popped from a deterministic ready queue, which is fed
// only by deterministic events:
//   - request delivery (spawns a new thread),
//   - nested-reply delivery,
//   - lock hand-over during unlock (FIFO per mutex),
//   - notify()/timeout resumption (FIFO per condition variable, then
//     FIFO reacquisition of the guarding mutex).
// Reentrant locks and callback detection come from the logical-thread id
// layer in SchedulerBase.  Time-bounded waits use the timeout-broadcast
// mechanism: the local timer expiry is converted into a totally-ordered
// message that every replica turns into a normal request whose handler
// resumes the waiting thread under the guarding mutex.
#pragma once

#include <deque>
#include <map>
#include <variant>

#include "sched/base.hpp"

namespace adets::sched {

class SatScheduler : public SchedulerBase {
 public:
  explicit SatScheduler(SchedulerConfig config) : SchedulerBase(config) {}

  [[nodiscard]] SchedulerKind kind() const override { return SchedulerKind::kSat; }
  [[nodiscard]] SchedulerCapabilities capabilities() const override;

  void yield() override;
  void on_reply(common::RequestId nested_id) override;

 protected:
  void handle_request(Lk& lk, Request request) override ADETS_REQUIRES(mon_);
  void handle_reply(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);
  void base_lock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_unlock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_wait(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  /// Moves the waiter into the mutex-reacquire FIFO.
  void resume_waiter(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_before_nested(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);
  void base_after_nested(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);
  void on_thread_start(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);
  void on_thread_done(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);
  void debug_extra(std::string& out) const override ADETS_REQUIRES(mon_);

 private:
  using StreamEvent = std::variant<Request, common::RequestId>;

  struct MutexState {
    common::ThreadId owner = common::ThreadId::invalid();
    std::deque<common::ThreadId> waiters;  // FIFO: blocked lockers + reacquirers
  };
  /// Releases the activity token and activates the next ready thread.
  void release_activity(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);
  void activate_next(Lk& lk) ADETS_REQUIRES(mon_);
  /// Blocks `t` until it holds the activity token.
  void await_activation(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);
  /// Grants `mutex` to the FIFO head waiter (if any) and readies it.
  void hand_over(Lk& lk, common::MutexId mutex) ADETS_REQUIRES(mon_);

  common::ThreadId active_ ADETS_GUARDED_BY(mon_) = common::ThreadId::invalid();
  std::deque<common::ThreadId> ready_ ADETS_GUARDED_BY(mon_);       // internal resumptions (priority)
  std::deque<StreamEvent> stream_ ADETS_GUARDED_BY(mon_);           // external events, consumed lazily
  std::map<std::uint64_t, MutexState> mutexes_ ADETS_GUARDED_BY(mon_);
};

}  // namespace adets::sched
