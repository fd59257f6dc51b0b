// ADETS-LSA: loose synchronisation algorithm (Basile et al., SRDS'02)
// with the paper's Sec. 4.1 extensions.
//
// The leader (lowest node id of the current view) executes threads with
// true concurrency and lets real-time races decide lock acquisition
// order; every grant is recorded as a (mutex, thread) pair and broadcast
// through the group's total order ("mutex table").  Followers suspend a
// thread that requests a lock until the table says it is that thread's
// turn, replaying the leader's order exactly.
//
// Extensions implemented here:
//  - Reentrant locks and condition variables (wait queues are FIFO and
//    all condvar operations happen under the guarding mutex, so the
//    basic grant order makes them deterministic).
//  - Time-bounded waits via the timeout-thread construct of paper
//    Fig. 1: the local timer spawns a TO-thread (with a deterministic
//    derived id) that locks the guarding mutex through the scheduler and
//    resumes the waiter iff its wait generation is still pending.  On
//    the leader the TO-thread races the notifier; the outcome is
//    recorded and replayed by followers.
//  - Dynamic mutex ids (paper Sec. 4.1): followers learn the binding
//    between a leader-assigned table id and a local mutex from the
//    first-grant entry.  The paper identifies the operation "by the
//    thread ID"; that alone is ambiguous when the thread blocks on a
//    mutex that is locally unknown but already registered at the leader,
//    so the entry additionally carries the thread's lock-operation index
//    — a replica-independent value, since lock calls follow program
//    order.
//  - Leader fail-over: when the view changes, the new leader first
//    honours all grants recorded by the old leader (identical on all
//    survivors thanks to totally-ordered table broadcasts), then starts
//    recording its own.  It numbers new mutexes past every table id it
//    applied, as every replica does, so it never reuses the old
//    leader's ids.
//  - Callbacks (a synchronous nested call that leads back into this
//    group on the same logical thread) run only while the calling
//    thread is parked in that call, and the call returns only after
//    they finish, on every replica alike.  Otherwise a lagging replica
//    could run a callback before its caller took a lock the callback
//    re-enters, and wait for a grant the leader never recorded (on the
//    leader the acquisition was reentrant).  A callback delivered before
//    its caller reached the call waits with its thread id reserved.
//  - Table order: the total order does not keep one sender's broadcasts
//    in send order (the sequencer orders submissions as they arrive,
//    and the network may reorder them), so every table carries the
//    leader's running table number and followers apply each leader's
//    tables in that order, holding back any that arrive early.
//
// Wake-ups: an unlock, an applied table entry or a binding wakes only
// the thread that may take that mutex next: the head of its recorded
// grants (expected_) if that thread is blocked on it, else, on the
// leader, the head of rt_waiters.  A binding wakes the threads blocked
// on the mutex while it was unknown; a fresh leader wakes the threads
// that waited for a recorded turn once the last one is honoured.  Only
// a view change wakes every lock-blocked thread.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "sched/base.hpp"

namespace adets::sched {

class LsaScheduler : public SchedulerBase {
 public:
  explicit LsaScheduler(SchedulerConfig config) : SchedulerBase(config) {}

  [[nodiscard]] SchedulerKind kind() const override { return SchedulerKind::kLsa; }
  [[nodiscard]] SchedulerCapabilities capabilities() const override;

  void start(SchedulerEnv& env) override;
  void on_scheduler_message(common::NodeId sender, const common::Bytes& payload) override;
  void on_view_change(const std::vector<common::NodeId>& members) override;

  /// True while this replica records (rather than replays) grants.
  [[nodiscard]] bool is_leader() const;
  /// Scheduler threads LSA still keeps state for: live threads (whose
  /// records hold their lock and wait state) plus the callback and
  /// dynamic-binding entries keyed by a thread id (introspection; 0 once
  /// every thread has finished).
  [[nodiscard]] std::size_t tracked_threads() const;

 protected:
  void handle_request(Lk& lk, Request request) override ADETS_REQUIRES(mon_);
  void base_lock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_unlock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_wait(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  /// Marks the waiter as reacquiring and wakes it.
  void resume_waiter(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void on_wait_timer_expired(common::ThreadId thread, common::MutexId mutex,
                             common::CondVarId condvar, std::uint64_t generation) override;
  std::unique_ptr<ThreadRecord> new_record() const override;

 private:
  struct LsaThread final : ThreadRecord {
    /// Base-level lock operations so far.  Lock calls follow program
    /// order, so the count agrees across replicas and keys the
    /// dynamic-binding protocol.
    std::uint64_t lock_ops = 0;
    /// The mutex this thread waits for in lock_impl, invalid outside it:
    /// what lets an event wake only the thread it unblocks.
    common::MutexId waiting_for = common::MutexId::invalid();
  };
  static LsaThread& lsa(ThreadRecord& t) { return static_cast<LsaThread&>(t); }

  struct TableEntry {
    std::uint64_t lsa_id = 0;
    std::uint64_t thread = 0;
    bool is_new = false;
    /// For is_new entries: the grantee thread's lock-operation index
    /// (its op-th base-level lock call).  Lock operations happen in
    /// program order, so (thread, op) identifies the same local mutex on
    /// every replica — a thread id alone is ambiguous when the thread is
    /// blocked on a mutex that is new locally but not to the leader.
    std::uint64_t op = 0;
  };
  struct MutexState {
    common::ThreadId owner = common::ThreadId::invalid();
    std::deque<common::ThreadId> rt_waiters;  // leader: real-time arrival order
  };
  /// The full lock algorithm (leader record / follower replay).
  void lock_impl(Lk& lk, ThreadRecord& t, common::MutexId mutex) ADETS_REQUIRES(mon_);
  void unlock_impl(Lk& lk, common::MutexId mutex) ADETS_REQUIRES(mon_);
  void append_entry(Lk& lk, common::MutexId mutex, common::ThreadId thread,
                    std::uint64_t op) ADETS_REQUIRES(mon_);
  void flush_outgoing(Lk& lk) ADETS_REQUIRES(mon_);
  /// Timer callback target: acquires mon_ and flushes (kept out of the
  /// lambda so the lambda body contains no lock operations).
  void flush_batched();
  void bind(Lk& lk, common::MutexId mutex, std::uint64_t lsa_id) ADETS_REQUIRES(mon_);
  /// `mutex` is free, or its grant plan grew: wakes the thread that may
  /// take it next, if that thread is blocked on it.
  void wake_next_owner(Lk& lk, common::MutexId mutex) ADETS_REQUIRES(mon_);

  struct Table {
    std::uint64_t number = 0;  // the sending leader's running table count
    std::vector<TableEntry> entries;
  };

  /// Follower: applies the held tables of `sender` that are next in its
  /// table order.
  void apply_ready_tables(Lk& lk, std::uint64_t sender) ADETS_REQUIRES(mon_);
  void apply_table(Lk& lk, const std::vector<TableEntry>& entries) ADETS_REQUIRES(mon_);

  static common::Bytes encode_table(const Table& table);
  static std::optional<Table> decode_table(const common::Bytes& payload);

  bool leader_ ADETS_GUARDED_BY(mon_) = false;
  std::uint64_t next_lsa_id_ ADETS_GUARDED_BY(mon_) = 1;
  std::map<std::uint64_t, std::uint64_t> app_to_lsa_ ADETS_GUARDED_BY(mon_);
  std::map<std::uint64_t, std::uint64_t> lsa_to_app_ ADETS_GUARDED_BY(mon_);
  std::map<std::uint64_t, MutexState> mutexes_ ADETS_GUARDED_BY(mon_);
  /// Follower replay plan: recorded grantees per lsa id, FIFO.
  std::map<std::uint64_t, std::deque<std::uint64_t>> expected_ ADETS_GUARDED_BY(mon_);
  /// Follower: (thread, op) -> app mutex requested but not yet bound.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> unknown_requests_ ADETS_GUARDED_BY(mon_);
  /// Follower: is_new entries that arrived before the thread's op.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> early_new_entries_ ADETS_GUARDED_BY(mon_);
  std::vector<TableEntry> outgoing_ ADETS_GUARDED_BY(mon_);
  /// Leader: number of the next table it broadcasts.
  std::uint64_t next_outgoing_table_ ADETS_GUARDED_BY(mon_) = 0;
  /// Follower: per sending node, the number of the next table to apply,
  /// and the tables that arrived ahead of it.
  std::map<std::uint64_t, std::uint64_t> next_table_ ADETS_GUARDED_BY(mon_);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<TableEntry>> held_tables_
      ADETS_GUARDED_BY(mon_);
};

}  // namespace adets::sched
