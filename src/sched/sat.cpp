#include "sched/sat.hpp"

namespace adets::sched {

using common::MutexId;
using common::RequestId;
using common::ThreadId;

SchedulerCapabilities SatScheduler::capabilities() const {
  SchedulerCapabilities caps;
  caps.coordination = "Java";
  caps.deadlock_free = "NI+CB";
  caps.deployment = "transformation";
  caps.multithreading = "SA+L";
  caps.reentrant_locks = true;
  caps.condition_variables = true;
  caps.timed_wait = true;
  caps.true_multithreading = false;
  caps.needs_communication = false;
  return caps;
}

// --- activity token -----------------------------------------------------------
//
// Determinism argument: exactly one thread runs at a time, so every
// push to ready_ happens either in the active thread's program order or
// at a stream-consumption point.  External events (requests, nested
// replies, timeout messages) are *not* acted upon at delivery; they are
// appended to stream_ and consumed one at a time, only when no internal
// thread is runnable.  Hence the activation sequence is a pure function
// of the totally-ordered stream and the threads' program behaviour —
// independent of when deliveries physically arrive.

void SatScheduler::activate_next(Lk& lk) {
  if (active_.valid()) return;
  while (!ready_.empty()) {
    const ThreadId id = ready_.front();
    ready_.pop_front();
    ThreadRecord* record = find_thread(lk, id);
    if (record == nullptr || record->state == ThreadState::kDone) continue;
    active_ = id;
    stats_.activations++;
    wake(*record);
    return;
  }
  // Nothing internal is runnable: consume the next external events.
  while (!stream_.empty()) {
    StreamEvent event = std::move(stream_.front());
    stream_.pop_front();
    if (auto* request = std::get_if<Request>(&event)) {
      ThreadRecord& t = spawn_thread(lk, std::move(*request));
      active_ = t.id;  // the new thread passes its admission gate
      stats_.activations++;
      wake(t);
      return;
    }
    const RequestId reply_id = std::get<RequestId>(event);
    ThreadRecord* target = nullptr;
    for (auto& [id, record] : threads_) {
      if (record->pending_nested == reply_id && !record->reply_arrived) {
        target = record.get();
        break;
      }
    }
    if (target == nullptr) {
      // The local thread has not reached its nested call yet; it will
      // find the reply at before_nested_call.
      early_replies_.insert(reply_id.value());
      continue;
    }
    target->reply_arrived = true;
    active_ = target->id;
    stats_.activations++;
    wake(*target);
    return;
  }
}

void SatScheduler::release_activity(Lk& lk, ThreadRecord& t) {
  if (active_ == t.id) active_ = ThreadId::invalid();
  activate_next(lk);
}

void SatScheduler::await_activation(Lk& lk, ThreadRecord& t) {
  while (active_ != t.id && !stopping()) block(lk, t);
}

void SatScheduler::yield() {
  ThreadRecord& t = current();
  Lk lk(mon_);
  if (active_ != t.id) return;
  ready_.push_back(t.id);
  active_ = ThreadId::invalid();
  activate_next(lk);
  await_activation(lk, t);
}

// --- event stream ---------------------------------------------------------------

void SatScheduler::handle_request(Lk& lk, Request request) {
  stream_.push_back(std::move(request));
  activate_next(lk);
}

void SatScheduler::on_reply(RequestId nested_id) {
  Lk lk(mon_);
  if (stopping()) return;
  stream_.push_back(nested_id);
  activate_next(lk);
}

void SatScheduler::handle_reply(Lk& lk, ThreadRecord& t) {
  // Only reached when the reply was consumed from the stream before the
  // thread issued its nested call (stashed in early_replies_): the
  // thread re-enters the ready queue at its own execution point.
  ready_.push_back(t.id);
  activate_next(lk);
}

void SatScheduler::on_thread_start(Lk& lk, ThreadRecord& t) {
  t.state = ThreadState::kBlockedAdmission;
  await_activation(lk, t);
}

void SatScheduler::on_thread_done(Lk& lk, ThreadRecord& t) {
  release_activity(lk, t);
}

// --- locks ------------------------------------------------------------------------

void SatScheduler::base_lock(Lk& lk, ThreadRecord& t, MutexId mutex) {
  MutexState& m = mutexes_[mutex.value()];
  if (!m.owner.valid()) {
    // Free mutex: the active thread acquires it and keeps running.
    m.owner = t.id;
    record_grant(mutex, t.id);
    return;
  }
  m.waiters.push_back(t.id);
  t.state = ThreadState::kBlockedLock;
  release_activity(lk, t);
  await_activation(lk, t);  // activation implies the grant happened
  t.state = ThreadState::kRunning;
}

void SatScheduler::base_unlock(Lk& lk, ThreadRecord&, MutexId mutex) {
  mutexes_[mutex.value()].owner = ThreadId::invalid();
  hand_over(lk, mutex);
}

void SatScheduler::hand_over(Lk& lk, MutexId mutex) {
  MutexState& m = mutexes_[mutex.value()];
  while (!m.owner.valid() && !m.waiters.empty()) {
    const ThreadId next = m.waiters.front();
    m.waiters.pop_front();
    ThreadRecord* record = find_thread(lk, next);
    if (record == nullptr || record->state == ThreadState::kDone) continue;
    m.owner = next;
    record_grant(mutex, next);
    ready_.push_back(next);
    activate_next(lk);
    return;
  }
}

// --- condition variables --------------------------------------------------------------

void SatScheduler::base_wait(Lk& lk, ThreadRecord& t, MutexId mutex) {
  base_unlock(lk, t, mutex);
  release_activity(lk, t);
  await_activation(lk, t);  // woken only after reacquiring the mutex
}

void SatScheduler::resume_waiter(Lk& lk, ThreadRecord& t, MutexId mutex) {
  t.state = ThreadState::kBlockedReacquire;
  mutexes_[mutex.value()].waiters.push_back(t.id);
  // The notifier holds the mutex; the waiter proceeds at its unlock.
  hand_over(lk, mutex);
}

// --- nested invocations ------------------------------------------------------------------

void SatScheduler::base_before_nested(Lk& lk, ThreadRecord& t) {
  t.state = ThreadState::kBlockedNested;
  release_activity(lk, t);
}

void SatScheduler::base_after_nested(Lk& lk, ThreadRecord& t) {
  await_activation(lk, t);  // activated at the reply's stream position
  t.state = ThreadState::kRunning;
}

void SatScheduler::debug_extra(std::string& out) const {
  out += " active=" +
         (active_.valid() ? std::to_string(active_.value()) : std::string("-"));
  out += " ready=[";
  for (const auto id : ready_) out += std::to_string(id.value()) + ",";
  out += "] stream=" + std::to_string(stream_.size());
}

}  // namespace adets::sched
