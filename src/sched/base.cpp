#include "sched/base.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/mc_hooks.hpp"

namespace adets::sched {

using common::CondVarId;
using common::Duration;
using common::LogicalThreadId;
using common::MutexId;
using common::RequestId;
using common::ThreadId;

SchedulerBase::ThreadRecord*& SchedulerBase::tls_slot() {
  static thread_local ThreadRecord* slot = nullptr;
  return slot;
}

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSeq: return "SEQ";
    case SchedulerKind::kSl: return "SL";
    case SchedulerKind::kSat: return "SAT";
    case SchedulerKind::kMat: return "MAT";
    case SchedulerKind::kLsa: return "LSA";
    case SchedulerKind::kPds: return "PDS";
  }
  return "?";
}

void SchedulerBase::start(SchedulerEnv& env) {
  env_ = &env;
  timer_ = std::make_unique<common::TimerService>();
}

void SchedulerBase::stop() {
  stopping_.store(true);
  if (timer_) timer_->stop();
  {
    Lk lk(mon_);
    wake_all_for_stop(lk);
    for (Worker* w : idle_) {
      w->record = nullptr;
      w->post();
    }
    idle_.clear();
  }
  // Join the pool.  Blocked scheduler threads observe stopping() at their
  // wakeup predicates and unwind; a worker that finishes one after this
  // point exits instead of parking.
  while (true) {
    std::thread victim;
    {
      Lk lk(mon_);
      for (auto& w : workers_) {
        if (w->os_thread.joinable()) {
          victim = std::move(w->os_thread);
          break;
        }
      }
    }
    if (!victim.joinable()) break;
    victim.join();
  }
}

void SchedulerBase::wake_all_for_stop(Lk&) {
  for (auto& [id, record] : threads_) record->cv.notify_all();
}

void SchedulerBase::on_request(Request request) {
  Lk lk(mon_);
  if (stopping()) return;
  handle_request(lk, std::move(request));
}

void SchedulerBase::on_reply(RequestId nested_id) {
  Lk lk(mon_);
  if (stopping()) return;
  for (auto& [id, record] : threads_) {
    if (record->pending_nested == nested_id && !record->reply_arrived) {
      record->reply_arrived = true;
      handle_reply(lk, *record);
      return;
    }
  }
  early_replies_.insert(nested_id.value());
}

void SchedulerBase::on_scheduler_message(common::NodeId /*sender*/,
                                         const common::Bytes& payload) {
  const auto info = decode_timeout(payload);
  if (!info) return;
  Request request;
  request.kind = RequestKind::kTimeout;
  request.timeout = *info;
  submit_internal(std::move(request));
}

void SchedulerBase::submit_internal(Request request) {
  Lk lk(mon_);
  if (stopping()) return;
  const std::uint64_t internal = (1ULL << 62) | next_internal_request_++;
  request.id = RequestId(internal);
  request.logical = LogicalThreadId(internal);
  handle_request(lk, std::move(request));
}

void SchedulerBase::on_view_change(const std::vector<common::NodeId>&) {}

// --- synchronisation downcalls ----------------------------------------------

void SchedulerBase::lock(MutexId mutex) {
  ThreadRecord& t = current();
  Lk lk(mon_);
  ReentrantState& r = reentrant_[mutex.value()];
  if (r.owner == t.logical) {
    r.count++;
    return;
  }
  base_lock(lk, t, mutex);
  if (stopping()) {
    // A stopping strategy ends the wait whether or not it granted the
    // mutex.  Give back whatever base_lock took, so no later locker
    // waits on it, and leave before the caller touches the state the
    // mutex guards.
    base_unlock(lk, t, mutex);
    throw SchedulerStopping();
  }
  ReentrantState& r2 = reentrant_[mutex.value()];  // map may have rehashed
  r2.owner = t.logical;
  r2.count = 1;
}

void SchedulerBase::unlock(MutexId mutex) {
  ThreadRecord& t = current();
  Lk lk(mon_);
  ReentrantState& r = reentrant_[mutex.value()];
  if (r.owner != t.logical || r.count <= 0) {
    if (stopping()) return;  // lock state is torn during shutdown
    throw std::logic_error("unlock of mutex not held by this logical thread");
  }
  if (--r.count > 0) return;
  r.owner = LogicalThreadId::invalid();
  base_unlock(lk, t, mutex);
}

WaitResult SchedulerBase::wait(MutexId mutex, CondVarId condvar, Duration timeout) {
  if (!capabilities().condition_variables) {
    throw std::logic_error(to_string(kind()) + " does not support condition variables");
  }
  ThreadRecord& t = current();
  Lk lk(mon_);
  ReentrantState& r = reentrant_[mutex.value()];
  if (stopping()) throw SchedulerStopping();
  if (r.owner != t.logical || r.count <= 0) {
    throw std::logic_error("wait() requires holding the mutex");
  }
  // Java semantics: wait releases the monitor completely, whatever the
  // recursion depth, and restores the depth on return.
  const int saved_count = r.count;
  r.count = 0;
  r.owner = LogicalThreadId::invalid();
  stats_.waits++;
  const std::uint64_t generation = ++t.wait_generation;
  if (timeout.count() > 0) {
    if (!capabilities().timed_wait) {
      throw std::logic_error(to_string(kind()) + " does not support timed waits");
    }
    arm_wait_timer(t, mutex, condvar, generation, timeout);
  }
  cond_queues_[condvar.value()].push_back(Waiter{t.id, generation});
  t.timed_out = false;
  t.state = ThreadState::kBlockedWait;
  base_wait(lk, t, mutex);
  t.state = ThreadState::kRunning;
  ReentrantState& r2 = reentrant_[mutex.value()];
  r2.owner = t.logical;
  r2.count = saved_count;
  // A stop ends the wait without a notify or a timeout; the caller's
  // guards release the mutex on the way out.
  if (stopping()) throw SchedulerStopping();
  const WaitResult result{!t.timed_out};
  record_decision(result.notified ? Decision::Kind::kCvWakeup
                                  : Decision::Kind::kCvTimeout,
                  mutex, condvar, t.id, generation);
  return result;
}

void SchedulerBase::notify_one(MutexId mutex, CondVarId condvar) {
  notify(mutex, condvar, /*all=*/false);
}

void SchedulerBase::notify_all(MutexId mutex, CondVarId condvar) {
  notify(mutex, condvar, /*all=*/true);
}

void SchedulerBase::notify(MutexId mutex, CondVarId condvar, bool all) {
  // Note: notify is permitted even without condvar support (nothing
  // ever waits there), so condvar-style objects run under SEQ/SL with
  // polling consumers.
  ThreadRecord& t = current();
  Lk lk(mon_);
  const ReentrantState& r = reentrant_[mutex.value()];
  if (r.owner != t.logical) {
    if (stopping()) return;
    throw std::logic_error("notify requires holding the mutex");
  }
  stats_.notifies++;
  record_decision(Decision::Kind::kNotify, mutex, condvar, t.id);
  const auto queue = cond_queues_.find(condvar.value());
  if (queue == cond_queues_.end()) return;
  // FIFO: the head waiter is resumed.  A popped entry whose thread is no
  // longer in wait() (only possible while stopping) resumes nobody.
  do {
    if (queue->second.empty()) return;
    const Waiter waiter = queue->second.front();
    queue->second.pop_front();
    ThreadRecord* record = find_thread(lk, waiter.thread);
    if (record != nullptr && record->state == ThreadState::kBlockedWait) {
      resume_waiter(lk, *record, mutex);
    }
  } while (all);
}

bool SchedulerBase::resume_timed_out(Lk& lk, const TimeoutInfo& timeout) {
  const auto queue = cond_queues_.find(timeout.condvar.value());
  if (queue == cond_queues_.end()) return false;
  const auto waiter = std::find_if(
      queue->second.begin(), queue->second.end(), [&timeout](const Waiter& w) {
        return w.thread == timeout.thread && w.generation == timeout.generation;
      });
  // Not queued: a notify already resumed this wait (the "no effect"
  // branch of paper Fig. 1).
  if (waiter == queue->second.end()) return false;
  queue->second.erase(waiter);
  ThreadRecord* record = find_thread(lk, timeout.thread);
  if (record == nullptr || record->state != ThreadState::kBlockedWait) return false;
  record->timed_out = true;
  resume_waiter(lk, *record, timeout.mutex);
  return true;
}

void SchedulerBase::before_nested_call(RequestId nested_id) {
  ThreadRecord& t = current();
  Lk lk(mon_);
  stats_.nested_calls++;
  t.pending_nested = nested_id;
  t.reply_arrived = early_replies_.erase(nested_id.value()) > 0;
  base_before_nested(lk, t);
  if (t.reply_arrived) handle_reply(lk, t);
}

void SchedulerBase::after_nested_call(RequestId) {
  ThreadRecord& t = current();
  Lk lk(mon_);
  base_after_nested(lk, t);
  t.pending_nested = RequestId::invalid();
  t.reply_arrived = false;
}

// --- default hook bodies ----------------------------------------------------

void SchedulerBase::handle_reply(Lk&, ThreadRecord& t) { wake(t); }

void SchedulerBase::base_before_nested(Lk& lk, ThreadRecord& t) {
  t.state = ThreadState::kBlockedNested;
  release_deferred_callbacks(lk, t);
}

void SchedulerBase::base_after_nested(Lk& lk, ThreadRecord& t) {
  // Every callback of the call was delivered before its reply, so none
  // can start after this wait ends.
  while ((!t.reply_arrived || callbacks_running(t)) && !stopping()) {
    block(lk, t);
  }
  t.state = ThreadState::kRunning;
}

// --- introspection ------------------------------------------------------------

std::string SchedulerBase::debug_dump() const {
  static const char* names[] = {"starting", "running",  "blk-lock", "blk-wait",
                                "blk-reacq", "blk-nested", "blk-adm", "done"};
  const Lk guard(mon_);
  std::string out = to_string(kind()) + " threads:";
  for (const auto& [id, t] : threads_) {
    out += " [" + std::to_string(id) + ":" + names[static_cast<int>(t->state)] + "]";
  }
  debug_extra(out);
  return out;
}

void SchedulerBase::set_trace(bool keep_all) {
  const Lk guard(mon_);
  // Oldest entry first, so the ring can grow at its back or lose its
  // oldest entries at its front.
  std::rotate(decision_ring_.begin(),
              decision_ring_.begin() + static_cast<std::ptrdiff_t>(decision_oldest_),
              decision_ring_.end());
  decision_oldest_ = 0;
  if (!keep_all && decision_ring_.size() > kDecisionRingCapacity) {
    decision_ring_.erase(decision_ring_.begin(),
                         decision_ring_.end() -
                             static_cast<std::ptrdiff_t>(kDecisionRingCapacity));
  }
  keep_all_decisions_ = keep_all;
}

std::uint64_t SchedulerBase::completed_requests() const {
  // Acquire pairs with the release increment: a caller that observed
  // completion (e.g. a drain loop about to tear state down) also
  // observes everything the request body wrote.
  return completed_.load(std::memory_order_acquire);
}

SchedulerStats SchedulerBase::stats() const {
  const Lk guard(mon_);
  return stats_;
}

void SchedulerBase::record_grant(MutexId mutex, ThreadId thread) {
  stats_.lock_grants++;
  record_decision(Decision::Kind::kLockGrant, mutex, CondVarId::invalid(), thread,
                  /*generation=*/0, grants_per_mutex_[mutex.value()]++);
}

void SchedulerBase::record_decision(Decision::Kind kind, MutexId mutex,
                                    CondVarId condvar, ThreadId thread,
                                    std::uint64_t generation, std::uint64_t ordinal) {
  const Decision decision{kind,   decision_seq_++, mutex, condvar,
                          thread, generation,      ordinal};
  if (keep_all_decisions_ || decision_ring_.size() < kDecisionRingCapacity) {
    decision_ring_.push_back(decision);
  } else {
    decision_ring_[decision_oldest_] = decision;
    decision_oldest_ = (decision_oldest_ + 1) % kDecisionRingCapacity;
  }
}

std::vector<Decision> SchedulerBase::decision_trace() const {
  const Lk guard(mon_);
  const auto oldest = decision_ring_.begin() + static_cast<std::ptrdiff_t>(decision_oldest_);
  std::vector<Decision> out(oldest, decision_ring_.end());
  out.insert(out.end(), decision_ring_.begin(), oldest);
  return out;
}

std::string to_string(const Decision& decision) {
  std::string out = "#" + std::to_string(decision.seq) + " ";
  switch (decision.kind) {
    case Decision::Kind::kLockGrant:
      out += "grant m" + std::to_string(decision.mutex.value()) + " -> t" +
             std::to_string(decision.thread.value()) + " (ordinal " +
             std::to_string(decision.ordinal) + ")";
      break;
    case Decision::Kind::kCvWakeup:
      out += "wakeup t" + std::to_string(decision.thread.value()) + " cv" +
             std::to_string(decision.condvar.value()) + " gen" +
             std::to_string(decision.generation);
      break;
    case Decision::Kind::kCvTimeout:
      out += "timeout t" + std::to_string(decision.thread.value()) + " cv" +
             std::to_string(decision.condvar.value()) + " gen" +
             std::to_string(decision.generation);
      break;
    case Decision::Kind::kStaleTimeout:
      out += "stale-timeout t" + std::to_string(decision.thread.value()) + " gen" +
             std::to_string(decision.generation);
      break;
    case Decision::Kind::kNotify:
      out += "notify by t" + std::to_string(decision.thread.value()) + " cv" +
             std::to_string(decision.condvar.value());
      break;
  }
  return out;
}

std::map<std::uint64_t, std::vector<std::uint64_t>> per_mutex_decisions(
    const std::vector<Decision>& decisions) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> result;
  for (const Decision& decision : decisions) {
    if (decision.kind != Decision::Kind::kLockGrant || is_internal_mutex(decision.mutex)) {
      continue;
    }
    result[decision.mutex.value()].push_back(decision.thread.value());
  }
  return result;
}

std::vector<GrantRecord> grant_records(const std::vector<Decision>& decisions) {
  std::vector<GrantRecord> grants;
  for (const Decision& decision : decisions) {
    if (decision.kind == Decision::Kind::kLockGrant) {
      grants.push_back(GrantRecord{decision.mutex, decision.thread});
    }
  }
  return grants;
}

// --- thread machinery -----------------------------------------------------------

std::unique_ptr<SchedulerBase::ThreadRecord> SchedulerBase::new_record() const {
  return std::make_unique<ThreadRecord>();
}

SchedulerBase::ThreadRecord& SchedulerBase::spawn_thread(
    Lk&, Request request, std::optional<ThreadId> forced_id) {
  const ThreadId id = forced_id.value_or(ThreadId(next_thread_id_));
  if (!forced_id) next_thread_id_++;
  stats_.threads_spawned++;
  std::unique_ptr<ThreadRecord> record = new_record();
  record->id = id;
  record->logical = request.logical;
  record->request = std::move(request);
  ThreadRecord& t = *record;
  threads_.emplace(id.value(), std::move(record));
  // The spawn ticket is drawn on the parent thread so the model checker
  // assigns task identities in program (spawn) order, whichever worker
  // adopts the record and however the workers race; outside a checking
  // run the ticket is 0 and the worker skips the begin/end calls.
  const std::uint64_t mc_ticket =
      mchook::active() ? mchook::active()->thread_spawning() : 0;
  Worker* w = nullptr;
  if (idle_.empty()) {
    // The pool grows to the high-water mark of live scheduler threads: any
    // of them may block indefinitely, so none may wait for a worker.
    w = workers_.emplace_back(std::make_unique<Worker>()).get();
    stats_.os_threads_started++;
    w->os_thread = std::thread([this, w] { worker_main(*w); });
  } else {
    w = idle_.back();
    idle_.pop_back();
  }
  w->record = &t;
  w->mc_ticket = mc_ticket;
  w->post();
  return t;
}

void SchedulerBase::worker_main(Worker& w) {
  while (true) {
    w.park();
    ThreadRecord* const t = w.record;
    if (t == nullptr) return;
    mchook::Interceptor* const mc = w.mc_ticket != 0 ? mchook::active() : nullptr;
    tls_slot() = t;
    if (mc != nullptr) mc->thread_begin(w.mc_ticket);
    bool parked = false;
    {
      Lk lk(mon_);
      thread_body(lk, *t);
      threads_.erase(t->id.value());  // with the strategy's per-thread state
      // Parking inside the critical section lets the next spawn reuse
      // this worker at once.  Once stopping, stop() may already have
      // released the idle workers, so exit instead.
      parked = !stopping();
      if (parked) idle_.push_back(&w);
    }
    if (mc != nullptr) mc->thread_end();
    tls_slot() = nullptr;
    if (!parked) return;
  }
}

void SchedulerBase::thread_body(Lk& lk, ThreadRecord& t) {
  on_thread_start(lk, t);
  if (stopping()) {
    t.state = ThreadState::kDone;
    return;
  }
  t.state = ThreadState::kRunning;
  lk.unlock();
  run_request_body(t.request);
  lk.lock();
  t.state = ThreadState::kDone;
  finish_callback(lk, t);
  on_thread_done(lk, t);
}

SchedulerBase::ThreadRecord& SchedulerBase::current() {
  if (tls_slot() == nullptr) {
    throw std::logic_error("synchronisation call from a non-scheduler thread");
  }
  return *tls_slot();
}

void SchedulerBase::block(Lk& lk, ThreadRecord& t) {
  t.cv.wait(lk, [this, &t] { return t.wake || stopping(); });
  t.wake = false;
}

void SchedulerBase::block_for(Lk& lk, ThreadRecord& t, common::Duration real_timeout) {
  // The timed wait bounds how long the OS thread sleeps; the scheduling
  // outcome is decided by the totally-ordered stream (timeout broadcasts
  // / PDS no-op fill), never by which replica's timer fired first.
  // adets-sa:allow(real-time-wait) wakeup outcome routed through the total order
  t.cv.wait_for(lk, real_timeout, [this, &t] { return t.wake || stopping(); });
  t.wake = false;
}

void SchedulerBase::wake(ThreadRecord& t) {
  stats_.wakeups++;
  t.wake = true;
  t.cv.notify_all();
}

SchedulerBase::ThreadRecord* SchedulerBase::find_thread(Lk&, ThreadId id) {
  const auto it = threads_.find(id.value());
  return it == threads_.end() ? nullptr : it->second.get();
}

void SchedulerBase::run_request_body(const Request& request) {
  try {
    switch (request.kind) {
      case RequestKind::kApplication:
        env_->execute(request);
        break;
      case RequestKind::kTimeout: {
        // Paper Sec. 4.2: "This message is handled by a normal
        // request-handler thread, which notifies the waiting thread.  As
        // all notifications are synchronized by mutexes, a deterministic
        // order is guaranteed."
        this->lock(request.timeout.mutex);
        {
          Lk lk(mon_);
          if (resume_timed_out(lk, request.timeout)) {
            stats_.timeouts_fired++;
          } else {
            // The waiter was already notified (or resumed by an earlier
            // copy): a stale generation must no-op identically everywhere.
            record_decision(Decision::Kind::kStaleTimeout, request.timeout.mutex,
                            request.timeout.condvar, request.timeout.thread,
                            request.timeout.generation);
          }
        }
        this->unlock(request.timeout.mutex);
        break;
      }
      case RequestKind::kNoop:
        break;
    }
  } catch (const SchedulerStopping&) {
    // stop() ended a lock or wait of this work item, which ends here.
  }
  if (request.kind == RequestKind::kApplication) {
    completed_.fetch_add(1, std::memory_order_release);
  }
}

// --- callback gate ----------------------------------------------------------------

void SchedulerBase::admit_callback(Lk& lk, Request request) {
  for (auto& [id, record] : threads_) {
    if (record->state == ThreadState::kBlockedNested &&
        record->pending_nested == request.callback_of) {
      spawn_callback(lk, *record, ThreadId(next_thread_id_++), std::move(request));
      return;
    }
  }
  // The caller has not reached the call on this replica yet.
  const std::uint64_t call = request.callback_of.value();
  deferred_callbacks_[call].emplace_back(ThreadId(next_thread_id_++), std::move(request));
}

void SchedulerBase::release_deferred_callbacks(Lk& lk, ThreadRecord& t) {
  const auto deferred = deferred_callbacks_.find(t.pending_nested.value());
  if (deferred == deferred_callbacks_.end()) return;
  for (auto& [id, request] : deferred->second) {
    spawn_callback(lk, t, id, std::move(request));
  }
  deferred_callbacks_.erase(deferred);
}

bool SchedulerBase::callbacks_running(const ThreadRecord& t) const {
  return running_callbacks_.count(t.id.value()) > 0;
}

void SchedulerBase::finish_callback(Lk& lk, ThreadRecord& t) {
  const auto caller = callback_caller_.find(t.id.value());
  if (caller == callback_caller_.end()) return;
  const auto running = running_callbacks_.find(caller->second);
  if (running != running_callbacks_.end() && --running->second == 0) {
    running_callbacks_.erase(running);
  }
  if (ThreadRecord* record = find_thread(lk, ThreadId(caller->second))) wake(*record);
  callback_caller_.erase(caller);
}

void SchedulerBase::spawn_callback(Lk& lk, ThreadRecord& caller, ThreadId id,
                                   Request request) {
  spawn_thread(lk, std::move(request), id);
  callback_caller_[id.value()] = caller.id.value();
  running_callbacks_[caller.id.value()]++;
}

// --- timed waits ------------------------------------------------------------------

void SchedulerBase::arm_wait_timer(ThreadRecord& t, MutexId mutex, CondVarId condvar,
                                   std::uint64_t generation, Duration timeout) {
  const ThreadId id = t.id;
  timer_->schedule(common::Clock::scaled(timeout),
                   [this, id, mutex, condvar, generation] {
                     if (!stopping()) {
                       on_wait_timer_expired(id, mutex, condvar, generation);
                     }
                   });
}

void SchedulerBase::on_wait_timer_expired(ThreadId thread, MutexId mutex,
                                          CondVarId condvar, std::uint64_t generation) {
  TimeoutInfo info{thread, mutex, condvar, generation};
  {
    Lk lk(mon_);
    stats_.broadcasts++;
  }
  env_->broadcast(encode_timeout(info));
}

common::Bytes SchedulerBase::encode_timeout(const TimeoutInfo& info) {
  common::Writer w;
  w.u8('T');
  w.id(info.thread);
  w.id(info.mutex);
  w.id(info.condvar);
  w.u64(info.generation);
  return w.take();
}

std::optional<TimeoutInfo> SchedulerBase::decode_timeout(const common::Bytes& payload) {
  try {
    common::Reader r(payload);
    if (r.u8() != 'T') return std::nullopt;
    TimeoutInfo info;
    info.thread = r.id<ThreadId>();
    info.mutex = r.id<MutexId>();
    info.condvar = r.id<CondVarId>();
    info.generation = r.u64();
    return info;
  } catch (const common::SerializationError&) {
    return std::nullopt;
  }
}

}  // namespace adets::sched
