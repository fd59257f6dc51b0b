#include "sched/pds.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace adets::sched {

using common::MutexId;
using common::ThreadId;

namespace {

/// How long a fetch-idle worker waits before broadcasting an artificial
/// request to un-wedge the round (real time).
constexpr common::Duration kIdleFillInterval = std::chrono::milliseconds(10);

}  // namespace

SchedulerCapabilities PdsScheduler::capabilities() const {
  SchedulerCapabilities caps;
  caps.coordination = "Java";        // extended from Basile's plain locks
  caps.deadlock_free = "NI";         // nested invocations block the round but
                                     // cannot cycle; callbacks are not special-cased
  caps.deployment = "manual";
  caps.multithreading = "MA (restr.)";
  caps.reentrant_locks = true;
  caps.condition_variables = true;
  caps.timed_wait = true;
  caps.true_multithreading = true;
  caps.needs_communication = false;
  return caps;
}

void PdsScheduler::start(SchedulerEnv& env) {
  SchedulerBase::start(env);
  Lk lk(mon_);
  initial_pool_ = std::max<std::size_t>(1, config_.pds_thread_pool);
  for (std::size_t i = 0; i < initial_pool_; ++i) {
    spawn_worker(lk, /*pre_suspended=*/false);
  }
}

std::uint64_t PdsScheduler::rounds() const {
  const Lk guard(mon_);
  return round_;
}

std::size_t PdsScheduler::pool_size() const {
  const Lk guard(mon_);
  std::size_t alive = 0;
  for (const auto& [id, record] : threads_) {
    if (record->state != ThreadState::kDone) alive++;
  }
  return alive;
}

std::unique_ptr<SchedulerBase::ThreadRecord> PdsScheduler::new_record() const {
  return std::make_unique<PdsThread>();
}

void PdsScheduler::spawn_worker(Lk& lk, bool pre_suspended) {
  Request request;
  request.kind = RequestKind::kApplication;  // placeholder until first fetch
  request.id = common::RequestId::invalid();
  request.logical = common::LogicalThreadId::invalid();
  PdsThread& t = pds(spawn_thread(lk, std::move(request)));
  if (pre_suspended) {
    // Join the *current* round-start grant computation deterministically:
    // the worker is born already suspended on the queue mutex.
    t.state = ThreadState::kBlockedLock;
    t.wanted_mutex = MutexId(kQueueMutexId);
    t.request_round = round_ == 0 ? 0 : round_ - 1;
  }
}

void PdsScheduler::wake_fetcher(Lk& lk) {
  if (request_queue_.empty()) return;
  // Synchronized assignment: only the queue-mutex holder fetches; the
  // other workers get the queue mutex from the round machinery.
  const ThreadId fetcher = config_.pds_round_robin_assignment
                               ? ThreadId(next_fetch_index_ % initial_pool_)
                               : mutexes_[kQueueMutexId].owner;
  if (!fetcher.valid()) return;
  if (ThreadRecord* record = find_thread(lk, fetcher)) wake(*record);
}

// --- worker loop -------------------------------------------------------------------

void PdsScheduler::thread_body(Lk& lk, ThreadRecord& record) {
  PdsThread& t = pds(record);
  while (!stopping() && !t.terminate) {
    auto fetched = fetch(lk, t);
    if (!fetched || stopping()) break;
    t.request = std::move(*fetched);
    t.logical = t.request.logical;
    t.state = ThreadState::kRunning;
    lk.unlock();
    run_request_body(t.request);
    lk.lock();
  }
  t.state = ThreadState::kDone;
  maybe_start_round(lk);
}

std::optional<Request> PdsScheduler::fetch(Lk& lk, PdsThread& t) {
  if (config_.pds_round_robin_assignment) {
    // Worker i executes requests i, i+N, i+2N, ...
    const std::uint64_t pool = initial_pool_;
    t.state = ThreadState::kRunning;
    while (!stopping() && !t.terminate) {
      if (!request_queue_.empty() && next_fetch_index_ % pool == t.id.value()) {
        Request request = std::move(request_queue_.front());
        request_queue_.pop_front();
        next_fetch_index_++;
        wake_fetcher(lk);  // the next request may be queued already
        return request;
      }
      block(lk, t);
    }
    return std::nullopt;
  }

  // Synchronized assignment: the queue mutex is granted by the normal
  // round machinery, so the i-th request goes to the same worker on
  // every replica.
  const MutexId queue_mutex(kQueueMutexId);
  if (mutexes_[kQueueMutexId].owner != t.id) {
    if (t.wanted_mutex == queue_mutex) {
      // Pre-suspended at spawn: the request is already registered with
      // the round machinery; just await the grant.
      while (mutexes_[kQueueMutexId].owner != t.id && !stopping() &&
             !t.terminate) {
        block(lk, t);
      }
    } else {
      pds_lock(lk, t, queue_mutex);
    }
  }
  if (stopping() || t.terminate) {
    if (mutexes_[kQueueMutexId].owner == t.id) pds_unlock(lk, queue_mutex);
    return std::nullopt;
  }
  // Holding the queue mutex while the queue is empty keeps this worker
  // "running": the round cannot advance without requests (paper Sec. 3.2:
  // "the system cannot start a new round").  The paper's remedy is to
  // "deterministically create artificial requests": after an idle spell
  // we broadcast a no-op through the total order, which this holder pops
  // and discards; re-fetching then suspends it like everyone else and
  // the round can start.  Only a worker suspended on an application
  // mutex needs that round, so an idle pool broadcasts nothing.  In
  // particular no no-op precedes the first request in the total order,
  // and an event log attached before any traffic holds the whole run.
  while (request_queue_.empty() && !stopping() && !t.terminate) {
    t.state = ThreadState::kRunning;
    block_for(lk, t, kIdleFillInterval);
    if (request_queue_.empty() && !stopping() && !t.terminate &&
        round_awaited(lk)) {
      stats_.broadcasts++;
      lk.unlock();
      env_->broadcast(common::Bytes{'P'});
      lk.lock();
    }
  }
  if (stopping() || t.terminate) {
    pds_unlock(lk, queue_mutex);
    return std::nullopt;
  }
  Request request = std::move(request_queue_.front());
  request_queue_.pop_front();
  next_fetch_index_++;
  pds_unlock(lk, queue_mutex);
  return request;
}

// --- event stream ------------------------------------------------------------------

void PdsScheduler::on_scheduler_message(common::NodeId sender,
                                        const common::Bytes& payload) {
  if (payload.size() == 1 && payload[0] == 'P') {
    // Artificial request: enters the (totally ordered) request queue so
    // every replica assigns it to the same worker.
    Request request;
    request.kind = RequestKind::kNoop;
    submit_internal(std::move(request));
    return;
  }
  SchedulerBase::on_scheduler_message(sender, payload);
}

void PdsScheduler::handle_request(Lk& lk, Request request) {
  request_queue_.push_back(std::move(request));
  wake_fetcher(lk);
}

void PdsScheduler::debug_extra(std::string& out) const {
  out += " wanted:";
  for (const auto& [id, record] : threads_) {
    const MutexId wanted = pds(*record).wanted_mutex;
    if (wanted.valid()) {
      out += " t" + std::to_string(id) + "->m" + std::to_string(wanted.value());
    }
  }
}

// --- rounds and locking ----------------------------------------------------------------

void PdsScheduler::base_lock(Lk& lk, ThreadRecord& t, MutexId mutex) {
  pds_lock(lk, pds(t), mutex);
}

void PdsScheduler::pds_lock(Lk& lk, PdsThread& t, MutexId mutex) {
  // Suspend; the grant comes at a round boundary, an in-round unlock or,
  // for a PDS-2 second request, the mid-round pass.
  t.second_request = config_.pds_variant == 2 && t.phase == 1 && t.granted_round == round_;
  t.wanted_mutex = mutex;
  t.request_round = round_;
  t.state = ThreadState::kBlockedLock;
  maybe_start_round(lk);
  while (mutexes_[mutex.value()].owner != t.id && !stopping() && !t.terminate) {
    block(lk, t);
  }
  t.state = ThreadState::kRunning;
}

bool PdsScheduler::round_awaited(Lk&) const {
  for (const auto& [id, record] : threads_) {
    const PdsThread& t = pds(*record);
    if (t.state == ThreadState::kBlockedLock && t.wanted_mutex.valid() &&
        t.wanted_mutex != MutexId(kQueueMutexId)) {
      return true;
    }
  }
  return false;
}

bool PdsScheduler::grant_second_requests(Lk& lk) {
  bool granted = false;
  for (auto& [id, record] : threads_) {  // ordered by id
    PdsThread& t = pds(*record);
    if (t.state != ThreadState::kBlockedLock || !t.second_request) continue;
    if (mutexes_[t.wanted_mutex.value()].owner.valid()) continue;
    grant(lk, t, t.wanted_mutex);
    t.phase = 2;
    granted = true;
  }
  return granted;
}

void PdsScheduler::grant(Lk&, PdsThread& t, MutexId mutex) {
  mutexes_[mutex.value()].owner = t.id;
  record_grant(mutex, t.id);
  t.wanted_mutex = MutexId::invalid();
  t.second_request = false;
  t.phase = 1;
  t.granted_round = round_;
  if (t.state == ThreadState::kBlockedLock) t.state = ThreadState::kRunning;
  wake(t);
}

void PdsScheduler::base_unlock(Lk& lk, ThreadRecord&, MutexId mutex) {
  pds_unlock(lk, mutex);
}

void PdsScheduler::pds_unlock(Lk& lk, MutexId mutex) {
  mutexes_[mutex.value()].owner = ThreadId::invalid();
  // In-round hand-over: the next *same-round* requester (lowest id) may
  // execute concurrently with the unlocker (paper Sec. 3.2).
  PdsThread* next = nullptr;
  for (auto& [id, record] : threads_) {
    PdsThread& t = pds(*record);
    if (t.state == ThreadState::kBlockedLock && t.wanted_mutex == mutex &&
        t.request_round < round_) {
      next = &t;
      break;  // threads_ is ordered by id
    }
  }
  if (next != nullptr) grant(lk, *next, mutex);
}

void PdsScheduler::maybe_start_round(Lk& lk) {
  if (threads_.empty() || stopping()) return;
  bool any_lock_suspended = false;
  std::size_t non_waiting_alive = 0;
  for (const auto& [id, record] : threads_) {
    switch (record->state) {
      case ThreadState::kBlockedLock:
        any_lock_suspended = true;
        non_waiting_alive++;
        break;
      case ThreadState::kBlockedWait:
      case ThreadState::kDone:
        break;
      default:
        return;  // someone is still running / in a nested call
    }
  }
  // PDS-2: before the next round starts, one mid-round pass grants the
  // round's second requests.  Every worker is suspended at a
  // deterministic program point now, so the pass sees the same mutexes
  // free on every replica.
  if (config_.pds_variant == 2 && passed_round_ != round_) {
    passed_round_ = round_;
    if (grant_second_requests(lk)) return;
  }
  // ADETS-PDS pool resizing (paper Sec. 4.2): when every worker waits
  // (or is done), add one to avoid the all-waiting deadlock; retire
  // surplus fetch-idle workers beyond the initial pool.
  if (non_waiting_alive == 0) {
    spawn_worker(lk, /*pre_suspended=*/true);
    any_lock_suspended = true;
    ADETS_LOG_DEBUG("pds") << "pool grown by 1 at round " << round_;
  } else if (non_waiting_alive > initial_pool_) {
    // Retire the youngest surplus workers that are idle at the queue
    // mutex (a deterministic, state-based choice).
    std::size_t surplus = non_waiting_alive - initial_pool_;
    for (auto it = threads_.rbegin(); it != threads_.rend() && surplus > 0; ++it) {
      PdsThread& record = pds(*it->second);
      if (record.state == ThreadState::kBlockedLock &&
          record.wanted_mutex == MutexId(kQueueMutexId) &&
          it->first >= initial_pool_) {
        record.terminate = true;
        record.wanted_mutex = MutexId::invalid();
        wake(record);
        surplus--;
      }
    }
  }
  if (!any_lock_suspended) return;
  round_++;
  stats_.rounds = round_;
  // Grant phase: all pending requests are known; assign mutexes in
  // increasing thread-id order.
  for (auto& [id, record] : threads_) {
    PdsThread& t = pds(*record);
    if (t.state != ThreadState::kBlockedLock) continue;
    if (t.request_round >= round_) continue;
    if (!t.wanted_mutex.valid()) continue;
    if (!mutexes_[t.wanted_mutex.value()].owner.valid()) grant(lk, t, t.wanted_mutex);
  }
}

// --- condition variables -----------------------------------------------------------------

void PdsScheduler::base_wait(Lk& lk, ThreadRecord& t, MutexId mutex) {
  pds_unlock(lk, mutex);
  maybe_start_round(lk);
  // Resumption: resume_waiter converts us into a mutex request; we
  // proceed once the round machinery grants the guarding mutex.
  while (mutexes_[mutex.value()].owner != t.id && !stopping()) block(lk, t);
}

void PdsScheduler::resume_waiter(Lk&, ThreadRecord& t, MutexId mutex) {
  // Paper Fig. 2: the resumed thread must first reacquire the lock,
  // which makes it wait until the start of the next round.
  PdsThread& waiter = pds(t);
  waiter.wanted_mutex = mutex;
  waiter.request_round = round_;
  waiter.state = ThreadState::kBlockedLock;
}

}  // namespace adets::sched
