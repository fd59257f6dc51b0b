// ADETS-PDS: preemptive deterministic scheduling (Basile et al., DSN'03)
// with the paper's Sec. 4.2 extensions.
//
// A fixed pool of worker threads (scheduler threads that, like every
// strategy's, run on SchedulerBase's OS worker pool) executes requests
// in sequential rounds:
//  - A worker is suspended whenever it requests a mutex.
//  - Once every worker is suspended (on a mutex, in wait(), or
//    terminated), a new round starts and pending mutex requests are
//    granted in increasing thread-id order; an unlock inside the round
//    hands the mutex to the next requester from an earlier round.
//  - PDS-2 grants one extra acquisition per round.  A worker's second
//    request of a round suspends like any other; once every worker is
//    suspended again, one mid-round pass grants the second requests in
//    thread-id order wherever the mutex is free, and the next round
//    starts only after that.  At that point every worker sits at a
//    deterministic program point, so the pass sees the same state on
//    every replica.  Granting a second request when it is made would
//    let timing decide: whether another worker has released or taken
//    the mutex by then is timing.
// No communication is needed: the assignment is a pure function of the
// replica-independent request set.  Every wake-up is targeted: a grant
// wakes its grantee, and a request arrival wakes only the worker that
// fetches it (the queue-mutex holder, or under round-robin the worker
// whose turn it is).
//
// Extensions (paper Sec. 4.2):
//  - Request assignment: *synchronized* (workers fetch the next request
//    under a scheduler-managed queue mutex, so the i-th request goes to
//    the same worker everywhere — the paper's evaluated strategy) or
//    *round-robin* (request i -> worker i mod N).
//  - Nested invocations block the round (the paper's evaluated variant):
//    a worker waiting for a nested reply counts as running.
//  - Condition variables: wait() suspends the worker out of the round
//    set; notify() converts the waiter into a mutex request that is
//    granted at the next round start (paper Fig. 2).
//  - Time-bounded waits: timeout broadcast handled as a normal request.
//  - Automatic thread-pool resizing: if every worker is waiting at a
//    round boundary, a new worker is added (pre-suspended on the queue
//    mutex) to avoid the all-waiting deadlock; surplus fetch-idle
//    workers beyond the initial pool are retired at round boundaries.
#pragma once

#include <deque>
#include <map>

#include "sched/base.hpp"

namespace adets::sched {

class PdsScheduler : public SchedulerBase {
 public:
  explicit PdsScheduler(SchedulerConfig config) : SchedulerBase(config) {}

  [[nodiscard]] SchedulerKind kind() const override { return SchedulerKind::kPds; }
  [[nodiscard]] SchedulerCapabilities capabilities() const override;

  void start(SchedulerEnv& env) override;
  void on_scheduler_message(common::NodeId sender, const common::Bytes& payload) override;

  /// Completed scheduling rounds (introspection for tests/benches).
  [[nodiscard]] std::uint64_t rounds() const;
  /// Current pool size, waiting workers included (introspection).
  [[nodiscard]] std::size_t pool_size() const;

 protected:
  void handle_request(Lk& lk, Request request) override ADETS_REQUIRES(mon_);
  void base_lock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_unlock(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void base_wait(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  /// Converts the waiter into a next-round request for `mutex`.
  void resume_waiter(Lk& lk, ThreadRecord& t, common::MutexId mutex) override ADETS_REQUIRES(mon_);
  void debug_extra(std::string& out) const override ADETS_REQUIRES(mon_);
  std::unique_ptr<ThreadRecord> new_record() const override;
  void thread_body(Lk& lk, ThreadRecord& t) override ADETS_REQUIRES(mon_);

 private:
  /// Scheduler-internal mutex protecting the incoming request queue
  /// (synchronized assignment strategy).
  static constexpr std::uint64_t kQueueMutexId = kFirstInternalMutexId + 1;

  /// A pool worker's round state.
  struct PdsThread final : ThreadRecord {
    common::MutexId wanted_mutex = common::MutexId::invalid();
    int phase = 0;                   // mutexes acquired this round
    std::uint64_t request_round = 0; // round in which wanted_mutex was requested
    std::uint64_t granted_round = 0; // round of the last grant
    bool second_request = false;     // PDS-2: wanted_mutex is this round's second
    bool terminate = false;          // pool-shrink signal
  };
  static PdsThread& pds(ThreadRecord& t) { return static_cast<PdsThread&>(t); }
  static const PdsThread& pds(const ThreadRecord& t) {
    return static_cast<const PdsThread&>(t);
  }

  struct MutexState {
    common::ThreadId owner = common::ThreadId::invalid();
  };

  void pds_lock(Lk& lk, PdsThread& t, common::MutexId mutex) ADETS_REQUIRES(mon_);
  void pds_unlock(Lk& lk, common::MutexId mutex) ADETS_REQUIRES(mon_);
  void grant(Lk& lk, PdsThread& t, common::MutexId mutex) ADETS_REQUIRES(mon_);
  /// Starts a new round iff every worker is suspended/waiting/terminated.
  void maybe_start_round(Lk& lk) ADETS_REQUIRES(mon_);
  /// Some worker is suspended on an application mutex and only a new
  /// round lets it continue.  Workers waiting for the queue mutex get it
  /// once requests arrive, so they need no artificial one.
  bool round_awaited(Lk& lk) const ADETS_REQUIRES(mon_);
  /// PDS-2's mid-round pass: grants, in thread-id order, each pending
  /// second request whose mutex is free.  True if it granted any.
  bool grant_second_requests(Lk& lk) ADETS_REQUIRES(mon_);
  /// Fetches the next work item per the configured assignment strategy.
  std::optional<Request> fetch(Lk& lk, PdsThread& t) ADETS_REQUIRES(mon_);
  void spawn_worker(Lk& lk, bool pre_suspended) ADETS_REQUIRES(mon_);
  /// Wakes the one worker that fetches the queue's head next: the
  /// queue-mutex holder (synchronized assignment) or the worker whose
  /// turn it is (round-robin).  No-op while the queue is empty.
  void wake_fetcher(Lk& lk) ADETS_REQUIRES(mon_);

  std::uint64_t round_ ADETS_GUARDED_BY(mon_) = 0;
  std::uint64_t passed_round_ ADETS_GUARDED_BY(mon_) = 0;  // PDS-2: last round whose pass ran
  std::deque<Request> request_queue_ ADETS_GUARDED_BY(mon_);
  std::uint64_t next_fetch_index_ ADETS_GUARDED_BY(mon_) = 0;  // consumed count (round-robin)
  std::size_t initial_pool_ ADETS_GUARDED_BY(mon_) = 0;
  std::map<std::uint64_t, MutexState> mutexes_ ADETS_GUARDED_BY(mon_);
};

}  // namespace adets::sched
