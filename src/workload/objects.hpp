// Replicated objects implementing the paper's benchmark workloads
// (Sec. 5.3–5.5), plus small application objects used by the examples.
//
// All "computation" is simulated by suspending the handler thread for
// the configured paper-time duration, exactly as in the paper, and all
// durations/mutex choices are derived from the request id so every
// replica behaves identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/object.hpp"

namespace adets::workload {

/// Helpers for marshalling small argument tuples.
template <typename... Args>
common::Bytes pack_u64(Args... values) {
  common::Writer w;
  (w.u64(static_cast<std::uint64_t>(values)), ...);
  return w.take();
}
std::vector<std::uint64_t> unpack_u64(const common::Bytes& bytes);

/// Paper Fig. 3 — the four local-computation patterns:
///   method "a": compute
///   method "b": compute - lock - state access - unlock
///   method "c": lock - state access and compute - unlock
///   method "d": lock - state access - unlock - compute
/// Args: (compute_paper_ms, mutex_index).  The object owns `mutexes`
/// logical mutexes (the paper uses 10) and a per-mutex access log as its
/// replicated state.
class ComputePatterns : public runtime::ReplicatedObject {
 public:
  explicit ComputePatterns(std::uint32_t mutexes = 10)
      : mutexes_(mutexes), access_log_(mutexes) {}

  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override;
  [[nodiscard]] std::uint64_t state_hash() const override;

 private:
  // Pattern handlers.  "a" is pure computation; the rest serialize on
  // the chosen logical mutex and append to its access log.
  common::Bytes do_a(std::uint64_t compute_ms, runtime::SyncContext& ctx);
  common::Bytes do_b(std::uint64_t compute_ms, std::uint64_t mutex_index,
                     runtime::SyncContext& ctx);
  common::Bytes do_c(std::uint64_t compute_ms, std::uint64_t mutex_index,
                     runtime::SyncContext& ctx);
  common::Bytes do_d(std::uint64_t compute_ms, std::uint64_t mutex_index,
                     runtime::SyncContext& ctx);
  common::Bytes do_dy(std::uint64_t compute_ms, std::uint64_t mutex_index,
                      runtime::SyncContext& ctx);

  void access_state(std::uint64_t mutex_index, runtime::SyncContext& ctx);

  const std::uint32_t mutexes_;  // configuration, not replicated state
  // One log per mutex, allocated up front: calls on different mutexes
  // run concurrently and must not insert into a shared container.
  std::vector<std::vector<std::uint64_t>> access_log_;
};

/// Callee object of the nested-invocation benchmarks (paper Sec. 5.4):
///   "echo"   — returns immediately
///   "delay"  — suspends for args[0] paper-ms, then returns
///   "callback" — calls method args[1] back on group args[0] (same
///                logical thread), for callback/deadlock tests.
class EchoService : public runtime::ReplicatedObject {
 public:
  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override;
  [[nodiscard]] std::uint64_t state_hash() const override { return calls_.load(); }

 private:
  common::Bytes do_echo(const common::Bytes& args);
  common::Bytes do_delay(std::uint64_t delay_ms, runtime::SyncContext& ctx);
  common::Bytes do_callback(std::uint64_t group, runtime::SyncContext& ctx);

  // Monotone and not lock-protected; atomic because strategies that run
  // lock-free code side by side (MAT, LSA, PDS) may run two calls at once.
  std::atomic<std::uint64_t> calls_{0};
};

/// Front object of the nested benchmarks: executes a permutation of
///   N — nested invocation of "delay" on the callee group,
///   C — local computation,
///   S — synchronized state update (lock, access, unlock)
/// Method name = the permutation ("NCS", "CSN", ...).  Args:
/// (callee_group, nested_lo, nested_hi, compute_lo, compute_hi) in
/// paper-ms; durations are sampled uniformly per request (seeded by the
/// request id, hence replica-independent).
class NestedPatterns : public runtime::ReplicatedObject {
 public:
  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override;
  [[nodiscard]] std::uint64_t state_hash() const override;

 private:
  common::Bytes do_pattern(const std::string& pattern,
                           const std::vector<std::uint64_t>& a,
                           runtime::SyncContext& ctx);

  std::vector<std::uint64_t> state_log_;
};

/// Unbounded producer/consumer buffer (paper Sec. 5.5, Fig. 6a):
///   "produce"      — append args[0], notify a waiting consumer
///   "consume"      — blocking: waits on a condition variable until an
///                    item is available, returns it
///   "poll_consume" — non-blocking variant for pure sequential
///                    scheduling: returns (1, item) or (0) if empty
class UnboundedBuffer : public runtime::ReplicatedObject {
 public:
  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override;
  [[nodiscard]] std::uint64_t state_hash() const override;

 private:
  common::Bytes do_produce(std::uint64_t item, runtime::SyncContext& ctx);
  common::Bytes do_consume(runtime::SyncContext& ctx);
  common::Bytes do_poll_consume(runtime::SyncContext& ctx);

  std::deque<std::uint64_t> items_;
  std::uint64_t consumed_ = 0;
};

/// Bounded buffer with two condition variables (paper Fig. 6b):
/// "produce" blocks while full, "consume" blocks while empty.
/// "poll_produce"/"poll_consume" are non-blocking variants returning a
/// success flag, for polling clients under pure sequential scheduling.
class BoundedBuffer : public runtime::ReplicatedObject {
 public:
  explicit BoundedBuffer(std::size_t capacity = 2) : capacity_(capacity) {}

  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override;
  [[nodiscard]] std::uint64_t state_hash() const override;

 private:
  common::Bytes do_produce(std::uint64_t item, runtime::SyncContext& ctx);
  common::Bytes do_consume(runtime::SyncContext& ctx);
  common::Bytes do_poll_produce(std::uint64_t item, runtime::SyncContext& ctx);
  common::Bytes do_poll_consume(runtime::SyncContext& ctx);

  const std::size_t capacity_;  // configuration, not replicated state
  std::deque<std::uint64_t> items_;
  std::uint64_t consumed_ = 0;
  std::uint64_t produced_ = 0;
};

/// Bank-account object used by the quickstart/examples: fine-grained
/// locking (one mutex per account), nested auditing, timed waits.
///   "deposit"  (account, amount)        -> new balance
///   "withdraw" (account, amount)        -> 1/0 success (waits up to
///                                          args[2] paper-ms for funds)
///   "balance"  (account)                -> balance
///   "transfer" (from, to, amount)       -> 1/0 success
class BankAccounts : public runtime::ReplicatedObject {
 public:
  explicit BankAccounts(std::uint32_t accounts = 16) : balances_(accounts, 0) {}

  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override;
  [[nodiscard]] std::uint64_t state_hash() const override;

 private:
  common::Bytes do_deposit(std::uint64_t account, std::uint64_t amount,
                           runtime::SyncContext& ctx);
  common::Bytes do_withdraw(std::uint64_t account, std::uint64_t amount,
                            common::Duration timeout, runtime::SyncContext& ctx);
  common::Bytes do_balance(std::uint64_t account, runtime::SyncContext& ctx);
  common::Bytes do_transfer(std::uint64_t from, std::uint64_t to,
                            std::uint64_t amount, runtime::SyncContext& ctx);

  std::vector<std::int64_t> balances_;
};

}  // namespace adets::workload
