// ADETS scheduler plug-in interface.
//
// This is the C++ analogue of FTflex's configurable ADETS module (paper
// Sec. 5.1): the scheduler sits between the group-communication module
// (which feeds it totally-ordered events) and the object adapter (which
// it calls to execute requests).  Application threads created by the
// scheduler call back into it for every synchronisation operation, and
// the scheduler decides — deterministically, identically on every
// replica — when each thread may proceed.
//
// Determinism contract: a scheduler may consume only
//   (1) the totally-ordered event stream (on_request / on_reply /
//       on_scheduler_message / on_view, in delivery order), and
//   (2) each thread's own program order (the sequence of downcalls it
//       makes).
// Real-time information (which thread reached its lock first) must never
// influence the *order* of lock grants, wait-queue positions or timeout
// resolutions — except on the ADETS-LSA leader, where real-time races are
// legal because their outcome is recorded and replayed by followers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/serialization.hpp"
#include "common/types.hpp"

namespace adets::sched {

/// The strategies surveyed/contributed by the paper.
enum class SchedulerKind {
  kSeq,  // strictly sequential execution (baseline)
  kSl,   // single logical thread (Eternal)
  kSat,  // ADETS-SAT: single active thread + logical-thread ids
  kMat,  // ADETS-MAT: primary + concurrent secondaries
  kLsa,  // ADETS-LSA: leader/follower loose synchronisation
  kPds,  // ADETS-PDS: preemptive deterministic scheduling (rounds)
};

[[nodiscard]] std::string to_string(SchedulerKind kind);

/// Property matrix row (paper Table 1).  adets-mc can explore every
/// strategy make_scheduler builds: each blocks only through
/// common::Mutex/CondVar/TimerService (docs/model-checking.md).
struct SchedulerCapabilities {
  std::string coordination;   // "implicit", "Locks", "Java", ...
  std::string deadlock_free;  // "-", "CB", "NI+CB", "NO"
  std::string deployment;     // "-", "interception", "transformation", "manual"
  std::string multithreading; // "S", "SL", "SA", "SA+L", "MA", "MA (restr.)"
  bool reentrant_locks = false;
  bool condition_variables = false;
  bool timed_wait = false;
  bool true_multithreading = false;
  bool needs_communication = false;  // extra messages to grant locks
};

/// What kind of work a delivered request represents.
enum class RequestKind : std::uint8_t {
  kApplication = 0,  // client or nested invocation of an object method
  kTimeout = 1,      // internal: resume a timed-out wait()
  kNoop = 2,         // internal: PDS artificial request (paper Sec. 3.2:
                     // keeps rounds starting when clients fall silent)
};

/// Payload of a kTimeout request.
struct TimeoutInfo {
  common::ThreadId thread;        // the waiting thread to resume
  common::MutexId mutex;          // guarding mutex of the wait
  common::CondVarId condvar;
  std::uint64_t generation = 0;   // wait-generation; stale timeouts no-op
};

/// One totally-ordered unit of work handed to the scheduler.
struct Request {
  RequestKind kind = RequestKind::kApplication;
  common::RequestId id;
  common::LogicalThreadId logical;
  common::Bytes payload;   // opaque to the scheduler (runtime decodes)
  TimeoutInfo timeout;     // valid when kind == kTimeout
  /// For a callback (a request that a synchronous nested call of this
  /// group led back into it): the id of that call, the innermost one
  /// if several.  Invalid for every other request.
  common::RequestId callback_of = common::RequestId::invalid();
};

/// Result of a wait(): notified or timed out (Java semantics).
struct WaitResult {
  bool notified = true;
};

/// Thrown out of lock() and wait() when the scheduler stops during the
/// call.  The work item ends there: lock() took no mutex, and wait()
/// leaves the mutex held as the caller's guards expect, so they unwind
/// as usual, but neither may touch the state the mutex guards.  A host
/// that runs object code catches it around the call; the scheduler
/// catches whatever escapes a request body.
class SchedulerStopping : public std::runtime_error {
 public:
  SchedulerStopping() : std::runtime_error("scheduler stopping") {}
};

/// Aggregate counters of one scheduler instance (monotone; thread-safe
/// snapshot via Scheduler::stats()).
struct SchedulerStats {
  std::uint64_t lock_grants = 0;      // base-level acquisitions
  std::uint64_t waits = 0;            // wait() calls
  std::uint64_t notifies = 0;         // notify_one/notify_all calls
  std::uint64_t timeouts_fired = 0;   // waits actually resumed by timeout
  std::uint64_t nested_calls = 0;     // synchronous nested invocations
  std::uint64_t threads_spawned = 0;  // scheduler threads created (request
                                      // handlers, LSA timeout threads,
                                      // PDS pool members)
  std::uint64_t os_threads_started = 0;  // pooled OS workers that run them
                                         // (high-water mark of live ones)
  std::uint64_t broadcasts = 0;       // scheduler messages sent (LSA tables,
                                      // timeout messages, PDS no-ops)
  std::uint64_t activations = 0;      // SAT activations / MAT token grants
  std::uint64_t rounds = 0;           // PDS rounds
  std::uint64_t wakeups = 0;          // blocked scheduler threads made
                                      // runnable (one per wake, useful or not)
};

/// One recorded lock grant; replicas must produce identical traces.
struct GrantRecord {
  common::MutexId mutex;
  common::ThreadId thread;
  friend bool operator==(const GrantRecord&, const GrantRecord&) = default;
};

/// One entry of a scheduler's decision ring: the scheduling verdicts
/// that must resolve identically on every replica (lock grants, condvar
/// wakeup order, timeout resolutions).  repl::check_group dumps the ring
/// when replicas disagree, so an operator can see *where* the strategies
/// parted ways, not just that the state hashes differ.
struct Decision {
  enum class Kind : std::uint8_t {
    kLockGrant,     // base-level mutex acquisition granted to `thread`
    kCvWakeup,      // wait() returned notified
    kCvTimeout,     // wait() resolved by its timeout event
    kStaleTimeout,  // timeout message ignored (generation already stale)
    kNotify,        // notify_one/notify_all issued by `thread`
  };
  Kind kind = Kind::kLockGrant;
  std::uint64_t seq = 0;  // per-scheduler monotone decision number
  common::MutexId mutex;
  common::CondVarId condvar;
  common::ThreadId thread;
  std::uint64_t generation = 0;  // wait generation (condvar kinds)
  /// kLockGrant: how many grants of `mutex` this replica made before
  /// this one.  The per-mutex grant order is the same on every replica,
  /// so the ordinal is too, and it aligns rings that kept different
  /// windows.
  std::uint64_t ordinal = 0;
  friend bool operator==(const Decision&, const Decision&) = default;
};

[[nodiscard]] std::string to_string(const Decision& decision);

/// How many of the newest decisions the ring keeps, unless
/// Scheduler::set_trace(true) makes it keep all of them.
inline constexpr std::size_t kDecisionRingCapacity = 256;

/// Mutex ids from here up belong to the schedulers themselves (the PDS
/// request queue), never to an object.  Their grants go on in idle
/// rounds after a workload drains, so replicas read at different
/// moments hold different numbers of them.
inline constexpr std::uint64_t kFirstInternalMutexId = 1ULL << 61;

[[nodiscard]] constexpr bool is_internal_mutex(common::MutexId mutex) {
  return mutex.value() >= kFirstInternalMutexId;
}

/// Per-mutex grantee projection of a decision trace: for each
/// application mutex, the threads its kLockGrant entries name, in
/// order.  That order is the determinism contract; the interleaving
/// across mutexes may differ between replicas of a truly multithreaded
/// strategy.
[[nodiscard]] std::map<std::uint64_t, std::vector<std::uint64_t>>
per_mutex_decisions(const std::vector<Decision>& decisions);

/// The kLockGrant entries of a decision trace, in order.
[[nodiscard]] std::vector<GrantRecord> grant_records(const std::vector<Decision>& decisions);

/// Services the hosting runtime provides to a scheduler.
class SchedulerEnv {
 public:
  virtual ~SchedulerEnv() = default;

  /// Executes an application request (unmarshal, dispatch to the object,
  /// send the reply).  Called on a scheduler-managed thread.  The
  /// object's synchronisation operations re-enter the scheduler.
  virtual void execute(const Request& request) ADETS_MAY_BLOCK = 0;

  /// Broadcasts a scheduler-internal message into this replica group's
  /// total order (LSA mutex tables, timeout messages).  It is delivered
  /// to every replica's on_scheduler_message in the same order.
  virtual void broadcast(const common::Bytes& payload) ADETS_MAY_BLOCK = 0;

  /// This replica's node id.
  [[nodiscard]] virtual common::NodeId self() const = 0;

  /// Members of the current view, sorted; front() is the LSA leader.
  [[nodiscard]] virtual std::vector<common::NodeId> view_members() const = 0;
};

/// The deterministic thread scheduler interface (one instance per replica).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual SchedulerKind kind() const = 0;
  [[nodiscard]] virtual SchedulerCapabilities capabilities() const = 0;

  /// Binds the environment and starts worker machinery.
  virtual void start(SchedulerEnv& env) = 0;

  /// Stops all threads.  In-flight requests are abandoned; only call
  /// after the workload has drained (or when tearing a replica down).
  virtual void stop() = 0;

  // --- totally-ordered event stream (GCS callbacks; non-blocking) ---

  virtual void on_request(Request request) = 0;
  virtual void on_reply(common::RequestId nested_id) = 0;
  virtual void on_scheduler_message(common::NodeId sender, const common::Bytes& payload) = 0;
  virtual void on_view_change(const std::vector<common::NodeId>& members) = 0;

  // --- downcalls from scheduler-managed application threads --------------

  /// Throws SchedulerStopping when stop() ends the call.
  virtual void lock(common::MutexId mutex) = 0;
  virtual void unlock(common::MutexId mutex) = 0;

  /// Releases `mutex`, waits on `condvar`, reacquires `mutex`.
  /// `timeout` is paper time; Duration::zero() waits indefinitely.
  /// Requires condition_variables capability.  Throws SchedulerStopping
  /// when stop() ends the call.
  virtual WaitResult wait(common::MutexId mutex, common::CondVarId condvar,
                          common::Duration timeout) = 0;

  virtual void notify_one(common::MutexId mutex, common::CondVarId condvar) = 0;
  virtual void notify_all(common::MutexId mutex, common::CondVarId condvar) = 0;

  /// Voluntary scheduling point (paper Sec. 5.3: yield operations
  /// "enable a selection of a new primary thread without reaching an
  /// implicit scheduling point", alleviating ADETS-MAT's worst case).
  /// No-op for strategies without an activity/primary token.
  virtual void yield() {}

  /// Brackets a synchronous nested invocation: the calling thread is
  /// about to block until on_reply(nested_id) is delivered.
  virtual void before_nested_call(common::RequestId nested_id) = 0;
  /// Blocks until the reply arrived *and* the strategy re-admits the
  /// thread (e.g. SAT re-activates it in deterministic order).
  virtual void after_nested_call(common::RequestId nested_id) = 0;

  // --- introspection -------------------------------------------------------

  /// The decision ring keeps the newest kDecisionRingCapacity decisions.
  /// set_trace(true) makes it keep every decision from then on, so a
  /// determinism test or adets-mc can compare whole runs;
  /// set_trace(false) cuts it back to the newest ones.
  virtual void set_trace(bool keep_all) = 0;
  /// The lock grants among decision_trace()'s entries.
  [[nodiscard]] virtual std::vector<GrantRecord> grant_trace() const {
    return grant_records(decision_trace());
  }

  /// The decision ring, oldest first.
  [[nodiscard]] virtual std::vector<Decision> decision_trace() const = 0;

  /// Number of requests whose execution completed (drain detection).
  [[nodiscard]] virtual std::uint64_t completed_requests() const = 0;

  /// Snapshot of the aggregate counters.
  [[nodiscard]] virtual SchedulerStats stats() const = 0;
};

/// Strategy-specific knobs (only the relevant subset applies to each).
struct SchedulerConfig {
  // PDS ----------------------------------------------------------------
  int pds_variant = 1;              // 1 = PDS-1, 2 = PDS-2
  std::size_t pds_thread_pool = 4;  // initial/fixed pool size
  bool pds_round_robin_assignment = false;  // false = synchronized (paper default)
  // LSA ----------------------------------------------------------------
  std::size_t lsa_batch_grants = 1;  // grants per mutex-table broadcast; a
                                     // partial batch waits at most 5 ms (real)
};

/// Factory used by the runtime and benches.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, SchedulerConfig config = {});

}  // namespace adets::sched
