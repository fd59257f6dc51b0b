#include "sched/seq.hpp"

#include <stdexcept>

namespace adets::sched {

using common::CondVarId;
using common::MutexId;
using common::ThreadId;

SchedulerCapabilities SeqScheduler::capabilities() const {
  SchedulerCapabilities caps;
  caps.coordination = "implicit";
  caps.deadlock_free = "-";
  caps.deployment = "-";
  caps.multithreading = "S";
  caps.reentrant_locks = true;  // trivially: a single thread never contends
  caps.condition_variables = false;
  caps.timed_wait = false;
  caps.true_multithreading = false;
  caps.needs_communication = false;
  caps.mc_explorable = true;
  return caps;
}

bool SeqScheduler::is_callback(Lk&, const Request&) { return false; }

void SeqScheduler::handle_request(Lk& lk, Request request) {
  if (is_callback(lk, request)) {
    // Runs on an additional physical thread inside its caller's call
    // (SL model).
    admit_callback(lk, std::move(request));
    return;
  }
  if (busy_) {
    queue_.push_back(std::move(request));
    return;
  }
  busy_ = true;
  slot_owner_ = spawn_thread(lk, std::move(request)).id;
}

void SeqScheduler::handle_reply(Lk&, ThreadRecord& t) { wake(t); }

void SeqScheduler::base_lock(Lk&, ThreadRecord& t, MutexId mutex) {
  // Never contended: at most one (logical) thread executes at a time.
  record_grant(mutex, t.id);
}

void SeqScheduler::base_unlock(Lk&, ThreadRecord&, MutexId) {}

WaitResult SeqScheduler::base_wait(Lk&, ThreadRecord&, MutexId, CondVarId,
                                   std::uint64_t, common::Duration) {
  throw std::logic_error("SEQ/SL cannot wait on condition variables");
}

void SeqScheduler::base_notify(Lk&, ThreadRecord&, MutexId, CondVarId, bool) {
  // No thread can ever be waiting (wait() is unsupported), so notify is
  // a harmless no-op; this lets condvar-style objects run under SEQ with
  // polling consumers (paper Sec. 5.5).
}

bool SeqScheduler::base_resume_timed_out(Lk&, ThreadRecord&, MutexId, CondVarId,
                                         ThreadId, std::uint64_t) {
  return false;
}

void SeqScheduler::base_before_nested(Lk& lk, ThreadRecord& t) {
  t.state = ThreadState::kBlockedNested;
  release_deferred_callbacks(lk, t);  // none under plain SEQ
}

void SeqScheduler::base_after_nested(Lk& lk, ThreadRecord& t) {
  // The (logical) thread blocks until the reply is delivered and its
  // callbacks (SL) finished; non-callback requests queue up behind it.
  while ((!t.reply_arrived || callbacks_running(t)) && !stopping()) {
    block(lk, t);
  }
  t.state = ThreadState::kRunning;
}

void SeqScheduler::on_thread_start(Lk&, ThreadRecord&) {}

void SeqScheduler::on_thread_done(Lk& lk, ThreadRecord& t) {
  finish_callback(lk, t);
  // Callback threads (SL) do not own the sequential slot.
  if (t.id != slot_owner_) return;
  if (queue_.empty()) {
    busy_ = false;
    slot_owner_ = ThreadId::invalid();
    return;
  }
  Request next = std::move(queue_.front());
  queue_.pop_front();
  slot_owner_ = spawn_thread(lk, std::move(next)).id;
}

// --- SL (Eternal) -------------------------------------------------------------

SchedulerCapabilities SlScheduler::capabilities() const {
  SchedulerCapabilities caps;
  caps.coordination = "implicit";
  caps.deadlock_free = "CB";
  caps.deployment = "interception";
  caps.multithreading = "SL";
  caps.reentrant_locks = true;
  caps.condition_variables = false;
  caps.timed_wait = false;
  caps.true_multithreading = false;
  caps.needs_communication = false;
  caps.mc_explorable = true;
  return caps;
}

bool SlScheduler::is_callback(Lk&, const Request& request) {
  return request.callback_of.valid();
}

}  // namespace adets::sched
