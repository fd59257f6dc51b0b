#include "sched/mat.hpp"

#include <algorithm>

namespace adets::sched {

using common::MutexId;
using common::ThreadId;

SchedulerCapabilities MatScheduler::capabilities() const {
  SchedulerCapabilities caps;
  caps.coordination = "Java";
  caps.deadlock_free = "NI+CB";
  caps.deployment = "transformation";
  caps.multithreading = "MA";
  caps.reentrant_locks = true;
  caps.condition_variables = true;
  caps.timed_wait = true;
  caps.true_multithreading = true;
  caps.needs_communication = false;
  return caps;
}

// --- token management -----------------------------------------------------------

void MatScheduler::try_assign_token(Lk& lk) {
  if (primary_.valid()) return;
  while (!tickets_.empty()) {
    ThreadTicket ticket;
    if (const auto* reply = std::get_if<common::RequestId>(&tickets_.front())) {
      // Placeholder: resolve to the thread that claimed this reply.  If
      // nobody claimed it yet, the token waits here — the claiming
      // thread is still running unsynchronised code before its nested
      // call, so it will arrive; consuming later slots first would make
      // the token order depend on local timing.
      const auto claimed = claimed_replies_.find(reply->value());
      if (claimed == claimed_replies_.end()) return;
      ticket = claimed->second;
      claimed_replies_.erase(claimed);
    } else {
      ticket = std::get<ThreadTicket>(tickets_.front());
    }
    tickets_.pop_front();
    ThreadRecord* record = find_thread(lk, ticket.id);
    if (record == nullptr || record->state == ThreadState::kDone ||
        mat(*record).ticket_epoch != ticket.epoch ||
        record->state == ThreadState::kBlockedWait ||
        record->state == ThreadState::kBlockedNested) {
      // Stale (the thread advanced to a new eligibility epoch) or the
      // thread cannot proceed: discard.  A fresh ticket exists or will
      // arrive at the thread's resume event; granting the token through
      // an old slot would reorder acquisitions across replicas, and
      // parking it on a blocked thread could deadlock.
      continue;
    }
    primary_ = ticket.id;
    stats_.activations++;
    if (record->state == ThreadState::kBlockedAdmission) wake(*record);
    return;
  }
}

void MatScheduler::transfer_token(Lk& lk, ThreadRecord& t) {
  if (primary_ == t.id) primary_ = ThreadId::invalid();
  try_assign_token(lk);
}

void MatScheduler::yield() {
  ThreadRecord& t = current();
  Lk lk(mon_);
  if (primary_ != t.id) return;
  tickets_.push_back(ThreadTicket{t.id, mat(t).ticket_epoch});
  primary_ = ThreadId::invalid();
  try_assign_token(lk);
  // The yielding thread keeps running as a secondary; it re-waits for
  // the token at its next lock request.
}

// --- event stream ------------------------------------------------------------------

std::unique_ptr<SchedulerBase::ThreadRecord> MatScheduler::new_record() const {
  return std::make_unique<MatThread>();
}

void MatScheduler::handle_request(Lk& lk, Request request) {
  MatThread& t = mat(spawn_thread(lk, std::move(request)));
  tickets_.push_back(ThreadTicket{t.id, t.ticket_epoch});  // creation ticket
  try_assign_token(lk);
}

void MatScheduler::on_reply(common::RequestId nested_id) {
  Lk lk(mon_);
  if (stopping()) return;
  for (auto& [id, record] : threads_) {
    if (record->pending_nested == nested_id && !record->reply_arrived) {
      MatThread& t = mat(*record);
      t.reply_arrived = true;
      t.state = ThreadState::kRunning;  // resumed as a secondary
      t.ticket_epoch++;                 // old tickets become stale
      tickets_.push_back(ThreadTicket{t.id, t.ticket_epoch});
      try_assign_token(lk);
      wake(t);
      return;
    }
  }
  // The local thread has not issued its nested call yet: stash the
  // reply and hold the token slot with a placeholder ticket.
  early_replies_.insert(nested_id.value());
  tickets_.push_back(nested_id);
  try_assign_token(lk);
}

void MatScheduler::handle_reply(Lk& lk, ThreadRecord& t) {
  // Reached from before_nested_call when the reply was early: claim the
  // placeholder that already sits at the reply's queue position.
  t.state = ThreadState::kRunning;
  const std::uint64_t epoch = ++mat(t).ticket_epoch;  // old tickets become stale
  claimed_replies_[t.pending_nested.value()] = ThreadTicket{t.id, epoch};
  try_assign_token(lk);
  wake(t);
}

void MatScheduler::on_thread_done(Lk& lk, ThreadRecord& t) {
  transfer_token(lk, t);
}

// --- locks -----------------------------------------------------------------------------

void MatScheduler::base_lock(Lk& lk, ThreadRecord& t, MutexId mutex) {
  // Only the token holder may request a lock.
  while (primary_ != t.id && !stopping()) {
    t.state = ThreadState::kBlockedAdmission;
    block(lk, t);
  }
  t.state = ThreadState::kRunning;
  if (stopping()) return;
  MutexState& m = mutexes_[mutex.value()];
  if (!m.owner.valid() && m.reacquirers.empty()) {
    m.owner = t.id;
    record_grant(mutex, t.id);
    return;  // acquire and keep the token
  }
  // Busy: wait *keeping the token* (hence at most one plain waiter);
  // resumed waiters are granted with priority at each unlock.
  m.token_waiter = t.id;
  t.state = ThreadState::kBlockedLock;
  while (mutexes_[mutex.value()].owner != t.id && !stopping()) block(lk, t);
  t.state = ThreadState::kRunning;
}

void MatScheduler::base_unlock(Lk& lk, ThreadRecord&, MutexId mutex) {
  mutexes_[mutex.value()].owner = ThreadId::invalid();
  hand_over(lk, mutex);
}

void MatScheduler::hand_over(Lk& lk, MutexId mutex) {
  MutexState& m = mutexes_[mutex.value()];
  while (!m.owner.valid()) {
    // Priority 1: waiters resumed by notify(), in notification order.
    if (!m.reacquirers.empty()) {
      const ThreadId next = m.reacquirers.front();
      m.reacquirers.pop_front();
      ThreadRecord* record = find_thread(lk, next);
      if (record == nullptr || record->state == ThreadState::kDone) continue;
      m.owner = next;
      record_grant(mutex, next);
      wake(*record);  // resumes as a secondary
      return;
    }
    // Priority 2: the unique token-holding plain waiter.
    if (m.token_waiter.valid()) {
      const ThreadId next = m.token_waiter;
      m.token_waiter = ThreadId::invalid();
      ThreadRecord* record = find_thread(lk, next);
      if (record == nullptr || record->state == ThreadState::kDone) continue;
      m.owner = next;
      record_grant(mutex, next);
      wake(*record);  // still holds the token
      return;
    }
    return;
  }
}

// --- condition variables -----------------------------------------------------------------

void MatScheduler::base_wait(Lk& lk, ThreadRecord& t, MutexId mutex) {
  base_unlock(lk, t, mutex);
  transfer_token(lk, t);
  while (mutexes_[mutex.value()].owner != t.id && !stopping()) block(lk, t);
}

void MatScheduler::resume_waiter(Lk& lk, ThreadRecord& t, MutexId mutex) {
  t.state = ThreadState::kBlockedReacquire;
  mutexes_[mutex.value()].reacquirers.push_back(t.id);
  const std::uint64_t epoch = ++mat(t).ticket_epoch;  // old tickets become stale
  tickets_.push_back(ThreadTicket{t.id, epoch});
  try_assign_token(lk);
  hand_over(lk, mutex);  // no-op while the notifier holds the mutex
}

// --- nested invocations ---------------------------------------------------------------------

void MatScheduler::base_before_nested(Lk& lk, ThreadRecord& t) {
  t.state = ThreadState::kBlockedNested;
  transfer_token(lk, t);
}

void MatScheduler::debug_extra(std::string& out) const {
  out += " primary=" +
         (primary_.valid() ? std::to_string(primary_.value()) : std::string("-"));
  out += " tickets=[";
  for (const auto& ticket : tickets_) {
    if (const auto* t = std::get_if<ThreadTicket>(&ticket)) {
      out += std::to_string(t->id.value()) + "@" + std::to_string(t->epoch) + ",";
    } else {
      out += "reply:" + std::to_string(std::get<common::RequestId>(ticket).value()) + ",";
    }
  }
  out += "] mutexes:";
  for (const auto& [m, st] : mutexes_) {
    out += " m" + std::to_string(m) + "->" +
           (st.owner.valid() ? std::to_string(st.owner.value()) : "free");
  }
}

}  // namespace adets::sched
