#include "sched/lsa.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace adets::sched {

using common::Bytes;
using common::CondVarId;
using common::MutexId;
using common::ThreadId;

namespace {
/// How long a partial batch of mutex-table entries waits for the rest
/// of its lsa_batch_grants entries before it is broadcast (real time).
constexpr common::Duration kBatchDelay = std::chrono::milliseconds(5);

/// Deterministic id for an ADETS-LSA timeout thread: derived from the
/// waiting thread and its wait generation, identical on every replica.
ThreadId timeout_thread_id(ThreadId waiter, std::uint64_t generation) {
  return ThreadId((1ULL << 63) | (waiter.value() << 20) | (generation & 0xFFFFFULL));
}
}  // namespace

SchedulerCapabilities LsaScheduler::capabilities() const {
  SchedulerCapabilities caps;
  caps.coordination = "Java";          // extended from Basile's locks/monitors
  caps.deadlock_free = "NI+CB";
  caps.deployment = "manual";
  caps.multithreading = "MA";
  caps.reentrant_locks = true;
  caps.condition_variables = true;
  caps.timed_wait = true;
  caps.true_multithreading = true;
  caps.needs_communication = true;     // mutex-table broadcasts
  return caps;
}

void LsaScheduler::start(SchedulerEnv& env) {
  SchedulerBase::start(env);
  const auto members = env.view_members();
  Lk lk(mon_);  // no threads yet; taken for the thread-safety analysis
  leader_ = !members.empty() && members.front() == env.self();
}

bool LsaScheduler::is_leader() const {
  const Lk guard(mon_);
  return leader_;
}

std::size_t LsaScheduler::tracked_threads() const {
  const Lk guard(mon_);
  return threads_.size() + callback_caller_.size() + running_callbacks_.size() +
         unknown_requests_.size() + early_new_entries_.size();
}

std::unique_ptr<SchedulerBase::ThreadRecord> LsaScheduler::new_record() const {
  return std::make_unique<LsaThread>();
}

void LsaScheduler::on_view_change(const std::vector<common::NodeId>& members) {
  Lk lk(mon_);
  const bool now_leader = !members.empty() && members.front() == env_->self();
  if (now_leader && !leader_) {
    ADETS_LOG_INFO("lsa") << "node " << env_->self()
                          << " takes over as LSA leader; honouring "
                          << expected_.size() << " recorded grant queues first";
  }
  leader_ = now_leader;
  // A new leader grants from rt_waiters once the recorded grants are
  // honoured, so every lock-blocked thread re-checks which branch it is
  // in.  View changes are rare; this is LSA's only every-thread wake.
  for (auto& [id, record] : threads_) {
    if (lsa(*record).waiting_for.valid()) wake(*record);
  }
}

// --- event stream -------------------------------------------------------------

void LsaScheduler::handle_request(Lk& lk, Request request) {
  if (request.callback_of.valid()) {
    admit_callback(lk, std::move(request));
    return;
  }
  spawn_thread(lk, std::move(request));  // runs concurrently right away
}

void LsaScheduler::on_scheduler_message(common::NodeId sender, const Bytes& payload) {
  auto table = decode_table(payload);
  if (!table) return;
  Lk lk(mon_);
  if (stopping()) return;
  if (table->number < next_table_[sender.value()]) return;  // already applied
  held_tables_[{sender.value(), table->number}] = std::move(table->entries);
  apply_ready_tables(lk, sender.value());
}

void LsaScheduler::apply_ready_tables(Lk& lk, std::uint64_t sender) {
  std::uint64_t& next = next_table_[sender];
  for (auto it = held_tables_.find({sender, next}); it != held_tables_.end();
       it = held_tables_.find({sender, next})) {
    apply_table(lk, it->second);
    held_tables_.erase(it);
    next++;
  }
}

void LsaScheduler::apply_table(Lk& lk, const std::vector<TableEntry>& entries) {
  for (const TableEntry& entry : entries) {
    // Every replica numbers past each id in the total order, bound here
    // or not (an is_new entry may still wait in early_new_entries_): the
    // survivors of a fail-over then agree where a fresh leader goes on.
    next_lsa_id_ = std::max(next_lsa_id_, entry.lsa_id + 1);
    if (leader_) continue;  // the leader already granted these
    std::deque<std::uint64_t>& queue = expected_[entry.lsa_id];
    queue.push_back(entry.thread);
    const auto bound = lsa_to_app_.find(entry.lsa_id);
    if (bound != lsa_to_app_.end()) {
      // Only an entry at the head of its queue gives anyone a turn.
      if (queue.size() == 1) wake_next_owner(lk, MutexId(bound->second));
    } else if (entry.is_new) {
      // Dynamic mutex registration: bind via the creating thread's
      // (thread, lock-op) pair, which is replica-independent.
      const auto key = std::make_pair(entry.thread, entry.op);
      const auto unknown = unknown_requests_.find(key);
      if (unknown != unknown_requests_.end()) {
        bind(lk, MutexId(unknown->second), entry.lsa_id);
        unknown_requests_.erase(unknown);
      } else {
        early_new_entries_[key] = entry.lsa_id;
      }
    }
  }
}

void LsaScheduler::bind(Lk& lk, MutexId mutex, std::uint64_t lsa_id) {
  app_to_lsa_[mutex.value()] = lsa_id;
  lsa_to_app_[lsa_id] = mutex.value();
  // Threads that blocked on the mutex while it was unknown here can now
  // look up its recorded grants.
  for (const auto& [key, app] : unknown_requests_) {
    if (app != mutex.value()) continue;
    if (ThreadRecord* record = find_thread(lk, ThreadId(key.first))) wake(*record);
  }
}

void LsaScheduler::wake_next_owner(Lk& lk, MutexId mutex) {
  const MutexState& m = mutexes_[mutex.value()];
  if (m.owner.valid()) return;  // the owner's unlock wakes the next one
  // Recorded grants come first, as in lock_impl.
  ThreadId next = ThreadId::invalid();
  const auto binding = app_to_lsa_.find(mutex.value());
  const auto recorded =
      binding == app_to_lsa_.end() ? expected_.end() : expected_.find(binding->second);
  if (recorded != expected_.end() && !recorded->second.empty()) {
    next = ThreadId(recorded->second.front());
  } else if (leader_ && !m.rt_waiters.empty()) {
    next = m.rt_waiters.front();
  }
  if (!next.valid()) return;
  ThreadRecord* record = find_thread(lk, next);
  // A recorded grantee that has not reached its lock call finds its turn
  // there without a wake.
  if (record != nullptr && lsa(*record).waiting_for == mutex) wake(*record);
}

// --- locking ---------------------------------------------------------------------

void LsaScheduler::base_lock(Lk& lk, ThreadRecord& t, MutexId mutex) {
  t.state = ThreadState::kBlockedLock;
  lock_impl(lk, t, mutex);
  t.state = ThreadState::kRunning;
}

void LsaScheduler::lock_impl(Lk& lk, ThreadRecord& t, MutexId mutex) {
  // Every base-level lock call gets a per-thread operation index; lock
  // calls happen in program order, so `op` values agree across replicas
  // and key the dynamic mutex-id binding protocol.
  LsaThread& self = lsa(t);
  const std::uint64_t op = ++self.lock_ops;
  self.waiting_for = mutex;
  bool enqueued = false;
  while (!stopping()) {
    MutexState& m = mutexes_[mutex.value()];
    const auto binding = app_to_lsa_.find(mutex.value());

    // Replay phase: recorded grants (follower, or fresh leader after
    // fail-over) take absolute precedence.
    if (binding != app_to_lsa_.end()) {
      auto exp = expected_.find(binding->second);
      if (exp != expected_.end() && !exp->second.empty()) {
        if (exp->second.front() == t.id.value() && !m.owner.valid()) {
          exp->second.pop_front();
          m.owner = t.id;
          record_grant(mutex, t.id);
          self.waiting_for = MutexId::invalid();
          // A fresh leader honoured the old leader's last recorded grant
          // of this mutex: whoever waited here for a recorded turn now
          // queues in rt_waiters instead.
          if (leader_ && exp->second.empty()) {
            for (auto& [id, record] : threads_) {
              if (lsa(*record).waiting_for == mutex) wake(*record);
            }
          }
          return;
        }
        block(lk, t);  // woken when it is this thread's recorded turn
        continue;
      }
    }

    if (leader_) {
      if (!enqueued) {
        m.rt_waiters.push_back(t.id);
        enqueued = true;
      }
      if (!m.owner.valid() && !m.rt_waiters.empty() && m.rt_waiters.front() == t.id) {
        m.rt_waiters.pop_front();
        m.owner = t.id;
        record_grant(mutex, t.id);
        self.waiting_for = MutexId::invalid();
        append_entry(lk, mutex, t.id, op);
        return;
      }
      block(lk, t);
      continue;
    }

    // Follower with no binding yet: wait for the leader's is_new entry
    // for exactly this (thread, op) lock operation.
    if (binding == app_to_lsa_.end()) {
      const auto key = std::make_pair(t.id.value(), op);
      const auto early = early_new_entries_.find(key);
      if (early != early_new_entries_.end()) {
        const std::uint64_t lsa_id = early->second;
        early_new_entries_.erase(early);
        bind(lk, mutex, lsa_id);
        continue;
      }
      unknown_requests_[key] = mutex.value();
      block(lk, t);
      unknown_requests_.erase(key);
      continue;
    }
    // Bound but no recorded grants yet: wait for the next table.
    block(lk, t);
  }
  self.waiting_for = MutexId::invalid();
}

void LsaScheduler::base_unlock(Lk& lk, ThreadRecord&, MutexId mutex) {
  unlock_impl(lk, mutex);
}

void LsaScheduler::unlock_impl(Lk& lk, MutexId mutex) {
  mutexes_[mutex.value()].owner = ThreadId::invalid();
  wake_next_owner(lk, mutex);
}

void LsaScheduler::append_entry(Lk& lk, MutexId mutex, ThreadId thread,
                                std::uint64_t op) {
  auto binding = app_to_lsa_.find(mutex.value());
  bool is_new = false;
  std::uint64_t lsa_id;
  if (binding == app_to_lsa_.end()) {
    lsa_id = next_lsa_id_++;
    bind(lk, mutex, lsa_id);
    is_new = true;
  } else {
    lsa_id = binding->second;
  }
  outgoing_.push_back(TableEntry{lsa_id, thread.value(), is_new, op});
  if (outgoing_.size() >= config_.lsa_batch_grants) {
    flush_outgoing(lk);
  } else if (outgoing_.size() == 1) {
    // The lambda body stays lock-free (clang analyzes lambdas as
    // separate functions); flush_batched acquires mon_ itself.
    timer_->schedule(kBatchDelay, [this] { flush_batched(); });
  }
}

void LsaScheduler::flush_batched() {
  Lk lk(mon_);
  if (!stopping()) flush_outgoing(lk);
}

void LsaScheduler::flush_outgoing(Lk&) {
  if (outgoing_.empty()) return;
  stats_.broadcasts++;
  // Broadcast must stay under mon_ so the broadcast order matches the
  // table-append order.  The GCS submit only queues a send (GCS callbacks
  // run only after GroupService releases its lock), so the monitor is
  // never held across a park.
  // adets-sa:allow(blocking-under-monitor) ordered broadcast; send is enqueue-only
  env_->broadcast(encode_table(Table{next_outgoing_table_++, outgoing_}));
  outgoing_.clear();
}

// --- condition variables ------------------------------------------------------------

void LsaScheduler::base_wait(Lk& lk, ThreadRecord& t, MutexId mutex) {
  unlock_impl(lk, mutex);
  while (t.state == ThreadState::kBlockedWait && !stopping()) block(lk, t);
  // Reacquire the guarding mutex through the normal LSA machinery: the
  // leader records the reacquisition, followers replay it.
  lock_impl(lk, t, mutex);
}

void LsaScheduler::resume_waiter(Lk&, ThreadRecord& t, MutexId) {
  t.state = ThreadState::kBlockedReacquire;
  wake(t);
}

void LsaScheduler::on_wait_timer_expired(ThreadId thread, MutexId mutex,
                                         CondVarId condvar, std::uint64_t generation) {
  // Paper Fig. 1: spawn a TO-thread subject to ADETS-LSA scheduling.  It
  // locks the guarding mutex (recorded/replayed) and tries to resume the
  // waiter; if a notify won the race the resume has no effect.
  Lk lk(mon_);
  if (stopping()) return;
  Request request;
  request.kind = RequestKind::kTimeout;
  const ThreadId derived = timeout_thread_id(thread, generation);
  request.id = common::RequestId(derived.value());
  request.logical = common::LogicalThreadId(derived.value());
  request.timeout = TimeoutInfo{thread, mutex, condvar, generation};
  spawn_thread(lk, std::move(request), derived);
}

// --- wire format ------------------------------------------------------------------------

Bytes LsaScheduler::encode_table(const Table& table) {
  common::Writer w;
  w.u8('L');
  w.u64(table.number);
  w.u32(static_cast<std::uint32_t>(table.entries.size()));
  for (const TableEntry& e : table.entries) {
    w.u64(e.lsa_id);
    w.u64(e.thread);
    w.boolean(e.is_new);
    w.u64(e.op);
  }
  return w.take();
}

std::optional<LsaScheduler::Table> LsaScheduler::decode_table(const Bytes& payload) {
  try {
    common::Reader r(payload);
    if (r.u8() != 'L') return std::nullopt;
    Table table;
    table.number = r.u64();
    const auto count = r.u32();
    table.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      TableEntry e;
      e.lsa_id = r.u64();
      e.thread = r.u64();
      e.is_new = r.boolean();
      e.op = r.u64();
      table.entries.push_back(e);
    }
    return table;
  } catch (const common::SerializationError&) {
    return std::nullopt;
  }
}

}  // namespace adets::sched
