// Shared machinery for all ADETS scheduler implementations.
//
// Every concrete scheduler is a monitor: one mutex (mon_) protects all
// scheduling state; application threads block on per-thread condition
// variables while the strategy decides, deterministically, when they may
// proceed.  SchedulerBase provides:
//
//  - the thread registry: one record per scheduler thread (a request
//    handler, LSA timeout thread or PDS pool member), its ThreadId
//    allocated in delivery order, and thread-local lookup of the
//    caller's record;
//  - the worker pool that runs scheduler threads: a spawned record is
//    handed to a parked OS worker (a new one starts only when none is
//    idle), which runs it, releases the record and parks again.  Workers
//    are interchangeable; which one runs a record never reaches a
//    scheduling decision;
//  - the reentrancy layer (paper Sec. 4): lock counts per logical thread,
//    so only 0->1 / 1->0 transitions reach the strategy's base_lock /
//    base_unlock;
//  - the condition-variable wait queues of every strategy that has
//    them (SAT, MAT, LSA, PDS): one FIFO queue per condvar, the notify
//    that resumes its head, and the timeout lookup that resumes only the
//    wait of a matching generation.  A strategy says only how it parks
//    a waiter (base_wait) and what it does with one that left its queue
//    (resume_waiter);
//  - wait-generation bookkeeping for deterministic time-bounded waits,
//    including the default "broadcast a timeout message, handle it as a
//    normal request" mechanism used by ADETS-SAT/MAT/PDS (ADETS-LSA
//    overrides it with the timeout-thread construct of paper Fig. 1);
//  - the callback gate used by SL and ADETS-LSA: a callback runs only
//    while its caller is parked in the call that caused it, and the
//    caller resumes only after the callback finished;
//  - the decision ring that cross-replica determinism checks read;
//  - wake(), the one way a blocked scheduler thread is made runnable.
//    Strategies call it only for the thread an event can unblock, and
//    each woken thread re-checks its own condition, so which threads
//    are woken never reaches a decision (SchedulerStats::wakeups counts
//    the calls).
//
// Strategies override the hooks below.  handle_request, base_lock and
// base_unlock are pure.  handle_reply, base_before_nested and
// base_after_nested default to the bodies most strategies share;
// on_thread_start and on_thread_done default to nothing; base_wait and
// resume_waiter matter only with condition variables, which SEQ and SL
// lack.
#pragma once

#include <atomic>
#include <cerrno>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <semaphore.h>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/timer.hpp"
#include "sched/api.hpp"

namespace adets::sched {

/// Lifecycle state of one scheduler-managed thread.
enum class ThreadState {
  kStarting,       // spawned, waiting for strategy admission
  kRunning,        // executing application code
  kBlockedLock,    // waiting for a mutex grant
  kBlockedWait,    // inside wait() on a condition variable
  kBlockedReacquire,  // woken from wait(), waiting to reacquire the mutex
  kBlockedNested,  // waiting for a nested-invocation reply
  kBlockedAdmission,  // waiting to become active/primary (SAT/MAT)
  kDone,
};

class SchedulerBase : public Scheduler {
 public:
  explicit SchedulerBase(SchedulerConfig config) : config_(config) {}
  ~SchedulerBase() override = default;

  void start(SchedulerEnv& env) override;
  void stop() override;

  void on_request(Request request) override;
  void on_reply(common::RequestId nested_id) override;
  void on_scheduler_message(common::NodeId sender, const common::Bytes& payload) override;
  void on_view_change(const std::vector<common::NodeId>& members) override;

  void lock(common::MutexId mutex) final;
  void unlock(common::MutexId mutex) final;
  WaitResult wait(common::MutexId mutex, common::CondVarId condvar,
                  common::Duration timeout) final;
  void notify_one(common::MutexId mutex, common::CondVarId condvar) final;
  void notify_all(common::MutexId mutex, common::CondVarId condvar) final;
  void before_nested_call(common::RequestId nested_id) final;
  void after_nested_call(common::RequestId nested_id) final;

  /// Human-readable snapshot of thread states (diagnostics).
  [[nodiscard]] std::string debug_dump() const;

  void set_trace(bool keep_all) override;
  [[nodiscard]] std::vector<Decision> decision_trace() const override;
  [[nodiscard]] std::uint64_t completed_requests() const override;
  [[nodiscard]] SchedulerStats stats() const override;

 protected:
  using Lk = common::MutexLock;

  /// Registry entry of one scheduler thread, released when it finishes.
  /// All mutable fields are protected by mon_ (clang's analysis cannot
  /// express "guarded by a mutex of the enclosing object" on
  /// nested-struct fields, so the invariant is enforced by convention
  /// plus the REQUIRES(mon_) annotations on every function that receives
  /// a ThreadRecord&).  A strategy with per-thread state of its own
  /// derives its record from this one and overrides new_record(), so
  /// that state is released with the record.
  struct ThreadRecord {
    ThreadRecord() = default;
    ThreadRecord(const ThreadRecord&) = delete;
    ThreadRecord& operator=(const ThreadRecord&) = delete;
    virtual ~ThreadRecord() = default;

    common::ThreadId id;
    common::LogicalThreadId logical;
    Request request;                 // current work item
    common::CondVar cv;              // waits on mon_
    ThreadState state = ThreadState::kStarting;
    bool wake = false;               // one-shot wakeup flag for cv
    // wait()/timeout bookkeeping
    std::uint64_t wait_generation = 0;
    bool timed_out = false;
    // nested invocation bookkeeping
    common::RequestId pending_nested = common::RequestId::invalid();
    bool reply_arrived = false;
  };

  // --- strategy hook points (all called with mon_ held via `lk`) ----------
  // NOTE: ADETS_REQUIRES is not inherited -- every override must repeat it.

  /// A new totally-ordered request arrived.
  virtual void handle_request(Lk& lk, Request request) ADETS_REQUIRES(mon_) = 0;
  /// A nested reply for `t` arrived (t.reply_arrived already set).
  /// Default: wake `t`, which waits for it in base_after_nested.
  virtual void handle_reply(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);
  /// Block the calling thread until it holds `mutex` (base level: the
  /// reentrancy layer already filtered recursive acquisitions).
  virtual void base_lock(Lk& lk, ThreadRecord& t, common::MutexId mutex)
      ADETS_REQUIRES(mon_) = 0;
  virtual void base_unlock(Lk& lk, ThreadRecord& t, common::MutexId mutex)
      ADETS_REQUIRES(mon_) = 0;
  // The defaults of base_wait and resume_waiter are never called: only
  // SEQ and SL keep them, and wait() rejects those first.
  /// wait() has queued `t` on the condvar and set it kBlockedWait:
  /// release `mutex`, park until resume_waiter() took `t` out of the
  /// wait, and return holding `mutex` again.
  virtual void base_wait(Lk&, ThreadRecord&, common::MutexId) ADETS_REQUIRES(mon_) {}
  /// `t` left its condvar queue, notified or (t.timed_out) timed out,
  /// while the calling thread holds `mutex`: start `t` on its way back
  /// to `mutex`.
  virtual void resume_waiter(Lk&, ThreadRecord&, common::MutexId)
      ADETS_REQUIRES(mon_) {}
  /// `t` issues a nested call.  Default: mark it kBlockedNested and
  /// spawn the callbacks of that call that arrived early (callback gate).
  virtual void base_before_nested(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);
  /// `t` waits for its nested call to return.  Default: block until the
  /// reply arrived and the call's callbacks finished.
  virtual void base_after_nested(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);
  /// Called when a thread's work item finished and the callback gate
  /// released its caller, just before its record is released.
  virtual void on_thread_done(Lk&, ThreadRecord&) ADETS_REQUIRES(mon_) {}
  /// Called once when the thread starts, before executing its request;
  /// SAT gates admission here (single active thread).
  virtual void on_thread_start(Lk&, ThreadRecord&) ADETS_REQUIRES(mon_) {}

  /// Appends strategy-specific diagnostics (called with mon_ held).
  virtual void debug_extra(std::string&) const ADETS_REQUIRES(mon_) {}

  /// Allocates the record of a new scheduler thread (see ThreadRecord).
  virtual std::unique_ptr<ThreadRecord> new_record() const;

  /// Runs scheduler thread `t` on the worker that adopted it; entered and
  /// left with mon_ held, and `t` must be kDone on return.  The default
  /// runs one work item: admission gate, execute, callback gate,
  /// completion hook.  PDS overrides it with a loop that fetches work
  /// items from its queue.
  virtual void thread_body(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);

  /// A wait() timeout expired locally.  Default: broadcast a timeout
  /// message handled as a normal request on every replica (dedup by wait
  /// generation).  ADETS-LSA overrides with the TO-thread construct.
  virtual void on_wait_timer_expired(common::ThreadId thread, common::MutexId mutex,
                                     common::CondVarId condvar, std::uint64_t generation);

  // --- helpers -------------------------------------------------------------

  /// Spawns a new scheduler thread for `request` and hands it to an idle
  /// worker, starting a worker only when none is idle.  ThreadIds are
  /// allocated in call order, so all replicas must call this in the same
  /// order (delivery order).  `forced_id` is for threads with derived
  /// deterministic ids (LSA timeout threads and callbacks).
  /// NON_BLOCKING: it releases a parked worker or starts one, and never
  /// waits for either.
  ThreadRecord& spawn_thread(Lk& lk, Request request,
                             std::optional<common::ThreadId> forced_id = std::nullopt)
      ADETS_REQUIRES(mon_) ADETS_NON_BLOCKING;

  /// Allocates the next internal request id for `request` (a timeout or
  /// PDS no-op message) and hands it to handle_request, in one critical
  /// section.
  void submit_internal(Request request);

  /// The registry record of the calling thread (TLS).
  ThreadRecord& current();

  /// Blocks `t` on its condition variable until t.wake (resets it).
  void block(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);
  /// Like block(), but returns after `real_timeout` even without a wake.
  /// The real-time bound never reaches the strategy: the expiry is
  /// routed through the totally-ordered stream (on_wait_timer_expired)
  /// or, for PDS idle-fill, through a broadcast no-op request.
  void block_for(Lk& lk, ThreadRecord& t, common::Duration real_timeout)
      ADETS_REQUIRES(mon_);
  /// Makes `t` runnable (sets wake, notifies its cv) and counts it.
  void wake(ThreadRecord& t) ADETS_REQUIRES(mon_);

  /// Records a base-level grant of `mutex` with its grant ordinal.
  void record_grant(common::MutexId mutex, common::ThreadId thread)
      ADETS_REQUIRES(mon_);

  /// Appends to the decision ring, overwriting its oldest entry once
  /// the ring is full unless it keeps every decision.
  void record_decision(Decision::Kind kind, common::MutexId mutex,
                       common::CondVarId condvar, common::ThreadId thread,
                       std::uint64_t generation = 0, std::uint64_t ordinal = 0)
      ADETS_REQUIRES(mon_);

  /// Executes one work item (application request or timeout handler) on
  /// the calling scheduler thread.  mon_ must NOT be held.  A work item
  /// that stop() cuts short ends here; an application request counts as
  /// completed either way.
  void run_request_body(const Request& request);

  /// Arms the local timer for a timed wait.
  void arm_wait_timer(ThreadRecord& t, common::MutexId mutex, common::CondVarId condvar,
                      std::uint64_t generation, common::Duration timeout);

  // --- callback gate (SL, LSA) ------------------------------------------
  // How far a caller has got when its callback is delivered differs
  // between replicas.  Running the callback only inside the caller's
  // call, and resuming the caller only after it, gives the callback the
  // same place in the caller's program order on every replica.

  /// Spawns callback `request` (callback_of valid) under its caller if
  /// the caller is parked in that call; otherwise reserves its ThreadId
  /// now, in delivery order, and defers it until the caller gets there.
  void admit_callback(Lk& lk, Request request) ADETS_REQUIRES(mon_);
  /// `t` is parked in its pending call (kBlockedNested): spawns the
  /// callbacks of that call that arrived before it.
  void release_deferred_callbacks(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);
  /// True while callbacks spawned under `t`'s pending call still run.
  [[nodiscard]] bool callbacks_running(const ThreadRecord& t) const
      ADETS_REQUIRES(mon_);
  /// Thread `t` finished: if it ran a callback, wakes its caller.
  void finish_callback(Lk& lk, ThreadRecord& t) ADETS_REQUIRES(mon_);

  /// Encodes/decodes the timeout broadcast payload.
  static common::Bytes encode_timeout(const TimeoutInfo& info);
  static std::optional<TimeoutInfo> decode_timeout(const common::Bytes& payload);

  [[nodiscard]] ThreadRecord* find_thread(Lk& lk, common::ThreadId id)
      ADETS_REQUIRES(mon_);
  static ThreadRecord*& tls_slot();
  [[nodiscard]] bool stopping() const { return stopping_.load(std::memory_order_relaxed); }

  // Both are wired by start() before any scheduler thread exists and
  // are read-only from then on; guarding them would put the monitor on
  // every request hot path for no protection.
  // adets-sa:allow(unguarded-field) written only in start(), before threads
  SchedulerConfig config_;
  // adets-sa:allow(unguarded-field) written only in start(), before threads
  SchedulerEnv* env_ = nullptr;
  mutable common::Mutex mon_{"sched::mon"};
  std::map<std::uint64_t, std::unique_ptr<ThreadRecord>> threads_ ADETS_GUARDED_BY(mon_);
  std::uint64_t next_thread_id_ ADETS_GUARDED_BY(mon_) = 0;
  std::uint64_t next_internal_request_ ADETS_GUARDED_BY(mon_) = 0;
  /// Replies delivered before the caller registered.
  std::set<std::uint64_t> early_replies_ ADETS_GUARDED_BY(mon_);
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> completed_{0};

  // Reentrancy layer (keyed by app mutex id).  Ordered map: nothing
  // iterates it today, but scheduler decision state must never tempt a
  // future hash-order traversal (adets-sa unordered-iter rule).
  struct ReentrantState {
    common::LogicalThreadId owner = common::LogicalThreadId::invalid();
    int count = 0;
  };
  std::map<std::uint64_t, ReentrantState> reentrant_ ADETS_GUARDED_BY(mon_);

  // Callback gate state.
  /// Callbacks whose caller has not reached the call yet, keyed by the
  /// call's request id, with the thread ids reserved at delivery.
  std::map<std::uint64_t, std::vector<std::pair<common::ThreadId, Request>>>
      deferred_callbacks_ ADETS_GUARDED_BY(mon_);
  /// Callback thread id -> the thread whose call it runs under.
  std::map<std::uint64_t, std::uint64_t> callback_caller_ ADETS_GUARDED_BY(mon_);
  /// Thread id -> callbacks still running under its pending call.
  std::map<std::uint64_t, std::size_t> running_callbacks_ ADETS_GUARDED_BY(mon_);

  // Decision ring and counters.
  /// Oldest entry at decision_oldest_, wrapping.  At most
  /// kDecisionRingCapacity entries unless keep_all_decisions_, in which
  /// case it only grows and decision_oldest_ stays 0.
  std::vector<Decision> decision_ring_ ADETS_GUARDED_BY(mon_);
  std::size_t decision_oldest_ ADETS_GUARDED_BY(mon_) = 0;
  bool keep_all_decisions_ ADETS_GUARDED_BY(mon_) = false;  // set_trace
  std::uint64_t decision_seq_ ADETS_GUARDED_BY(mon_) = 0;
  /// Base-level grants so far per mutex: the next grant's ordinal.
  std::map<std::uint64_t, std::uint64_t> grants_per_mutex_ ADETS_GUARDED_BY(mon_);
  SchedulerStats stats_ ADETS_GUARDED_BY(mon_);

  // Created in start() before threads; TimerService synchronizes itself.
  // adets-sa:allow(unguarded-field) written only in start(), before threads
  std::unique_ptr<common::TimerService> timer_;

 private:
  /// One pooled OS thread.  Between scheduler threads it parks on
  /// `wakeup`, a semaphore rather than a monitor: a parked worker is not
  /// a model-checker task, so it must hold no intercepted lock.  A POSIX
  /// semaphore sleeps in the kernel at once; std::binary_semaphore's
  /// acquire() first yields the CPU a few times, and on one CPU each
  /// yield is a context switch.
  struct Worker {
    Worker() { sem_init(&wakeup, 0, 0); }
    ~Worker() { sem_destroy(&wakeup); }
    Worker(const Worker&) = delete;  // its thread holds its address
    Worker& operator=(const Worker&) = delete;

    void post() { sem_post(&wakeup); }
    /// Sleeps until the next post().
    void park() {
      while (sem_wait(&wakeup) != 0 && errno == EINTR) {
      }
    }

    sem_t wakeup{};
    // Written with mon_ held before `wakeup` is posted and read by the
    // worker after its sem_wait returns, which orders the two.
    ThreadRecord* record = nullptr;  // the scheduler thread to run; null: exit
    std::uint64_t mc_ticket = 0;     // adets-mc spawn ticket, 0 if unmanaged
    std::thread os_thread;           // declared last: it uses the fields above
  };

  /// One entry of a condvar wait queue.
  struct Waiter {
    common::ThreadId thread;
    std::uint64_t generation;
  };

  /// Loop of one pooled OS thread: run the handed-over record, release
  /// it, park; exit on a null record or once stopping.
  void worker_main(Worker& w);

  /// Wakes every blocked thread for shutdown.
  void wake_all_for_stop(Lk& lk) ADETS_REQUIRES(mon_);

  /// notify_one (all = false) and notify_all.
  void notify(common::MutexId mutex, common::CondVarId condvar, bool all);
  /// A timeout request's handler, holding the guarding mutex: resumes
  /// the wait `timeout` names if it is still queued; false if a notify
  /// (or an earlier copy of the timeout) already resumed it.
  bool resume_timed_out(Lk& lk, const TimeoutInfo& timeout) ADETS_REQUIRES(mon_);

  /// Spawns callback `request` as thread `id` under `caller`'s pending call.
  void spawn_callback(Lk& lk, ThreadRecord& caller, common::ThreadId id,
                      Request request) ADETS_REQUIRES(mon_);

  /// Condvar id -> its waiters in wait() order.  An entry leaves its
  /// queue when a notify or its timeout resumes it.
  std::map<std::uint64_t, std::deque<Waiter>> cond_queues_ ADETS_GUARDED_BY(mon_);
  /// Parked workers, most recently parked last.
  std::vector<Worker*> idle_ ADETS_GUARDED_BY(mon_);
  /// Every worker started; last, as the workers use the state above.
  std::vector<std::unique_ptr<Worker>> workers_ ADETS_GUARDED_BY(mon_);
};

}  // namespace adets::sched
