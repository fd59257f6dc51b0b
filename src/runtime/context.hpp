// SyncContext: the synchronisation and interaction API available to
// replicated-object methods, plus RAII helpers.
#pragma once

#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/serialization.hpp"
#include "common/types.hpp"
#include "runtime/wire.hpp"

namespace adets::sched {
class Scheduler;
}  // namespace adets::sched

namespace adets::runtime {

class SyncContext;

/// What a SyncContext needs from its surroundings.  Implemented by the
/// live Replica (nested invocations go over the wire) and by the
/// passive-replication replay harness (nested replies come from the
/// recorded log).
class InvocationHost {
 public:
  virtual ~InvocationHost() = default;
  [[nodiscard]] virtual sched::Scheduler& context_scheduler() = 0;
  /// Throws sched::SchedulerStopping when the scheduler stops before the
  /// reply arrived.
  virtual common::Bytes nested_invoke(SyncContext& ctx, common::GroupId target,
                                      const std::string& method,
                                      const common::Bytes& args) = 0;
  virtual void nested_invoke_oneway(SyncContext& ctx, common::GroupId target,
                                    const std::string& method,
                                    const common::Bytes& args) = 0;
};

/// Per-invocation context handed to ReplicatedObject::dispatch.
///
/// Lock/wait/notify calls are forwarded to the replica's ADETS scheduler;
/// invoke() performs a synchronous nested invocation of another replica
/// group; compute() simulates computation the way the paper does
/// (suspending the handler thread for the scaled duration); rng() yields
/// a generator seeded by the request id, so "random" workload behaviour
/// is identical on every replica.
class SyncContext {
 public:
  SyncContext(InvocationHost& host, common::RequestId request,
              common::LogicalThreadId logical, std::vector<CallerCall> callers = {})
      : host_(host),
        request_(request),
        logical_(logical),
        callers_(std::move(callers)),
        rng_(request.value()) {}

  SyncContext(const SyncContext&) = delete;
  SyncContext& operator=(const SyncContext&) = delete;

  /// Throws sched::SchedulerStopping when the replica shuts down during
  /// the call, before the caller touches the state the mutex guards.
  void lock(common::MutexId mutex);
  void unlock(common::MutexId mutex);
  /// wait() with Java semantics; returns false when the bounded wait
  /// timed out.  `paper_timeout` zero waits indefinitely.  Throws
  /// sched::SchedulerStopping when the replica shuts down during the
  /// wait, so a `while (!cond) wait()` loop ends instead of spinning.
  bool wait(common::MutexId mutex, common::CondVarId condvar,
            common::Duration paper_timeout = common::Duration::zero());
  void notify_one(common::MutexId mutex, common::CondVarId condvar);
  void notify_all(common::MutexId mutex, common::CondVarId condvar);
  /// Voluntary scheduling point (MAT optimisation, paper Sec. 5.3;
  /// no-op for the other strategies).
  void yield();

  /// Synchronous nested invocation of method `method` on `target`.
  common::Bytes invoke(common::GroupId target, const std::string& method,
                       const common::Bytes& args);

  /// Asynchronous (one-way) invocation: fire-and-forget, no reply and no
  /// blocking.  Enables the paper's Sec. 2 pattern — issue an external
  /// request asynchronously, then wait() on a condition variable for the
  /// callback the service sends later.  The call runs on a logical thread
  /// of its own, so whatever it leads back into this group takes this
  /// thread's mutexes like any other request, not reentrantly.
  void invoke_oneway(common::GroupId target, const std::string& method,
                     const common::Bytes& args);

  /// Simulated local computation of `paper_time` (paper Sec. 5.3).
  void compute(common::Duration paper_time) { common::Clock::sleep_paper(paper_time); }

  /// Replica-independent randomness for workload behaviour.
  [[nodiscard]] common::Rng& rng() { return rng_; }

  [[nodiscard]] common::RequestId request_id() const { return request_; }
  [[nodiscard]] common::LogicalThreadId logical() const { return logical_; }
  /// The synchronous nested calls this request runs under (outermost
  /// first); a nested invoke() extends the list by its own call.
  [[nodiscard]] const std::vector<CallerCall>& callers() const { return callers_; }

  /// For InvocationHost implementations only: per-request sequence
  /// number of nested calls (feeds derive_nested_id).
  [[nodiscard]] std::uint64_t next_nested_counter() { return ++nested_counter_; }

 private:
  InvocationHost& host_;
  common::RequestId request_;
  common::LogicalThreadId logical_;
  std::vector<CallerCall> callers_;
  common::Rng rng_;
  std::uint64_t nested_counter_ = 0;
};

/// RAII deterministic lock (CP.20: never plain lock/unlock in app code).
class DetLock {
 public:
  DetLock(SyncContext& ctx, common::MutexId mutex) : ctx_(ctx), mutex_(mutex) {
    ctx_.lock(mutex_);
  }
  ~DetLock() {
    try {
      ctx_.unlock(mutex_);
    } catch (...) {
      // Unlock failures only occur during replica shutdown; never throw
      // from a destructor mid-unwind.
    }
  }
  DetLock(const DetLock&) = delete;
  DetLock& operator=(const DetLock&) = delete;

 private:
  SyncContext& ctx_;
  common::MutexId mutex_;
};

}  // namespace adets::runtime
