#include "sched/seq.hpp"

namespace adets::sched {

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

void SeqScheduler::base_lock(Lk&, ThreadRecord& t, MutexId mutex) {
  // Never contended: at most one (logical) thread executes at a time.
  record_grant(mutex, t.id);
}

void SeqScheduler::base_unlock(Lk&, ThreadRecord&, MutexId) {}

void SeqScheduler::on_thread_done(Lk& lk, ThreadRecord& t) {
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
  return caps;
}

bool SlScheduler::is_callback(Lk&, const Request& request) {
  return request.callback_of.valid();
}

}  // namespace adets::sched
