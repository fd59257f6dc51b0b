// SEQ: strictly sequential request execution (the baseline of the paper),
// and SL: the single-logical-thread model of the Eternal system.
//
// SEQ starts request R(i+1) only after R(i) has fully completed,
// including any nested invocation it performs.  Locks are no-ops (there
// is never concurrency), condition variables are unsupported (paper
// Sec. 5.5 uses polling instead), and a callback arriving during a
// nested invocation deadlocks the object — exactly the limitation that
// motivates the other strategies.
//
// SL additionally recognises callbacks: an incoming request that a
// synchronous nested call of a local thread led back into this group
// (Request::callback_of) belongs to the caller's logical thread and is
// executed on an additional physical thread, which makes nested
// invocation cycles (A -> B -> A) deadlock-free.  The callback runs only
// while its caller is parked in that call, and the call returns only
// after the callback finished (SchedulerBase's callback gate, shared
// with ADETS-LSA), so every replica runs it at the same point of the
// caller's program order.
#pragma once

#include <deque>

#include "sched/base.hpp"

namespace adets::sched {

class SeqScheduler : public SchedulerBase {
 public:
  explicit SeqScheduler(SchedulerConfig config) : SchedulerBase(config) {}

  [[nodiscard]] SchedulerKind kind() const override { return SchedulerKind::kSeq; }
  [[nodiscard]] SchedulerCapabilities capabilities() const override;

 protected:
  void handle_request(Lk& lk, Request request) override ADETS_REQUIRES(mon_);
  void base_lock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_unlock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void on_thread_done(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);

  /// True if `request` is a callback to admit through the callback
  /// gate.  Always false for plain SEQ.
  virtual bool is_callback(Lk& lk, const Request& request) ADETS_REQUIRES(mon_);

  std::deque<Request> queue_ ADETS_GUARDED_BY(mon_);
  bool busy_ ADETS_GUARDED_BY(mon_) = false;
  common::ThreadId slot_owner_ ADETS_GUARDED_BY(mon_) = common::ThreadId::invalid();
};

class SlScheduler : public SeqScheduler {
 public:
  explicit SlScheduler(SchedulerConfig config) : SeqScheduler(config) {}

  [[nodiscard]] SchedulerKind kind() const override { return SchedulerKind::kSl; }
  [[nodiscard]] SchedulerCapabilities capabilities() const override;

 protected:
  bool is_callback(Lk& lk, const Request& request) override ADETS_REQUIRES(mon_);
};

}  // namespace adets::sched
