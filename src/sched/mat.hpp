// ADETS-MAT: multiple active threads (paper Sec. 3.2, SRDS'06).
//
// All request-handler threads run truly concurrently; determinism is
// preserved by funnelling every *lock acquisition* through a primary
// token:
//   - Only the token holder may request a mutex.  A free mutex is
//     acquired immediately and the holder keeps the token (this is why
//     a "lock, then compute" pattern serialises MAT, paper Fig. 4c/d).
//     If the mutex is busy the holder waits *keeping the token*, so at
//     most one plain lock request is ever pending.
//   - Threads resumed from wait() reacquire the guarding mutex with
//     absolute priority over the (unique) token-holding waiter, making
//     every mutex's owner sequence a pure function of its critical-
//     section history.
//   - The token succession is a ticket queue fed only at totally
//     ordered stream positions: thread creation (request delivery),
//     nested-reply delivery, plus notify()-time tickets for resumed
//     waiters and explicit yield().  Tickets popped for threads that
//     went back to waiting or into a nested call are discarded (they
//     get fresh tickets at their next deterministic resume event), so
//     the token is never parked on a thread that cannot proceed.
//
// Known residual nondeterminism window (documented in DESIGN.md): a
// thread that acquires a *new* mutex after resuming from wait(), or
// whose nested reply arrives before it issues the call, receives its
// ticket at an execution-local point; programs that re-lock only the
// guarding mutex after wait() (ordinary monitor style — all workloads
// in this repository) are fully deterministic.
//
// yield() implements the paper's proposed MAT optimisation: it donates
// the token without waiting for an implicit scheduling point.
#pragma once

#include <deque>
#include <map>
#include <variant>

#include "sched/base.hpp"

namespace adets::sched {

class MatScheduler : public SchedulerBase {
 public:
  explicit MatScheduler(SchedulerConfig config) : SchedulerBase(config) {}

  [[nodiscard]] SchedulerKind kind() const override { return SchedulerKind::kMat; }
  [[nodiscard]] SchedulerCapabilities capabilities() const override;

  void yield() override;
  void on_reply(common::RequestId nested_id) override;

 protected:
  void handle_request(Lk& lk, Request request) override ADETS_REQUIRES(mon_);
  void handle_reply(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);
  void base_lock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_unlock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_wait(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  /// Queues the waiter as a priority reacquirer with a fresh ticket.
  void resume_waiter(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_before_nested(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);
  void on_thread_done(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);
  void debug_extra(std::string& out) const override ADETS_REQUIRES(mon_);
  std::unique_ptr<ThreadRecord> new_record() const override;

 private:
  struct MatThread final : ThreadRecord {
    std::uint64_t ticket_epoch = 1;  // re-eligibility generation (ThreadTicket)
  };
  static MatThread& mat(ThreadRecord& t) { return static_cast<MatThread&>(t); }
  struct MutexState {
    common::ThreadId owner = common::ThreadId::invalid();
    /// Waiters resumed by notify(), granted with priority (FIFO).
    std::deque<common::ThreadId> reacquirers;
    /// The unique token-holding plain waiter (if any).
    common::ThreadId token_waiter = common::ThreadId::invalid();
  };
  /// Pops tickets until a thread that can use the token is found.
  void try_assign_token(Lk& lk) ADETS_REQUIRES(mon_);
  /// Gives the token up (if held by `t`) and reassigns.
  void transfer_token(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);
  /// Grants `mutex` at unlock: pending reacquirers first, then the
  /// token-holding waiter.
  void hand_over(Lk& lk, common::MutexId mutex) ADETS_REQUIRES(mon_);

  /// A thread's claim on the token, valid for one eligibility *epoch*
  /// (epochs advance at nested-reply claims and notifications).  A
  /// stale-epoch ticket is discarded on every replica, so a thread can
  /// never acquire the token through an old queue position — that would
  /// make the grant order depend on when the pop raced its state change.
  struct ThreadTicket {
    common::ThreadId id;
    std::uint64_t epoch;
  };
  /// Either a thread ticket, or a *placeholder* holding the queue slot
  /// of a nested reply delivered before the local thread issued its
  /// call — the token waits there until the thread claims the reply.
  using Ticket = std::variant<ThreadTicket, common::RequestId>;

  common::ThreadId primary_ ADETS_GUARDED_BY(mon_) = common::ThreadId::invalid();
  std::deque<Ticket> tickets_ ADETS_GUARDED_BY(mon_);
  /// reply id -> claiming thread's ticket (resolves placeholders).
  std::map<std::uint64_t, ThreadTicket> claimed_replies_ ADETS_GUARDED_BY(mon_);
  std::map<std::uint64_t, MutexState> mutexes_ ADETS_GUARDED_BY(mon_);
};

}  // namespace adets::sched
