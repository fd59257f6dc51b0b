#include "workload/objects.hpp"

#include <stdexcept>

#include "replication/statehash.hpp"

namespace adets::workload {

using common::Bytes;
using common::CondVarId;
using common::MutexId;
using common::paper_ms;
using runtime::DetLock;
using runtime::SyncContext;

// --- marshalling -------------------------------------------------------------

std::vector<std::uint64_t> unpack_u64(const Bytes& bytes) {
  common::Reader r(bytes);
  std::vector<std::uint64_t> values;
  while (!r.exhausted()) values.push_back(r.u64());
  return values;
}

// --- ComputePatterns (paper Fig. 3 / Fig. 4) -----------------------------------

void ComputePatterns::access_state(std::uint64_t mutex_index, SyncContext& ctx) {
  // Caller holds the mutex; the access itself is "negligible" (paper).
  access_log_[mutex_index].push_back(ctx.request_id().value());
}

Bytes ComputePatterns::dispatch(const std::string& method, const Bytes& args,
                                SyncContext& ctx) {
  const auto a = unpack_u64(args);
  if (a.size() < 2) throw std::invalid_argument("ComputePatterns needs (ms, mutex)");
  if (method == "a") return do_a(a[0], ctx);
  if (method == "b") return do_b(a[0], a[1], ctx);
  if (method == "c") return do_c(a[0], a[1], ctx);
  if (method == "d") return do_d(a[0], a[1], ctx);
  if (method == "dy") return do_dy(a[0], a[1], ctx);
  throw std::invalid_argument("unknown pattern: " + method);
}

Bytes ComputePatterns::do_a(std::uint64_t compute_ms, SyncContext& ctx) {
  ctx.compute(paper_ms(static_cast<long long>(compute_ms)));
  return pack_u64(0);
}

Bytes ComputePatterns::do_b(std::uint64_t compute_ms, std::uint64_t mutex_index,
                            SyncContext& ctx) {
  const MutexId mutex(mutex_index % mutexes_);
  ctx.compute(paper_ms(static_cast<long long>(compute_ms)));
  DetLock lock(ctx, mutex);
  access_state(mutex.value(), ctx);
  return pack_u64(0);
}

Bytes ComputePatterns::do_c(std::uint64_t compute_ms, std::uint64_t mutex_index,
                            SyncContext& ctx) {
  const MutexId mutex(mutex_index % mutexes_);
  DetLock lock(ctx, mutex);
  access_state(mutex.value(), ctx);
  ctx.compute(paper_ms(static_cast<long long>(compute_ms)));
  return pack_u64(0);
}

Bytes ComputePatterns::do_d(std::uint64_t compute_ms, std::uint64_t mutex_index,
                            SyncContext& ctx) {
  const MutexId mutex(mutex_index % mutexes_);
  {
    DetLock lock(ctx, mutex);
    access_state(mutex.value(), ctx);
  }
  ctx.compute(paper_ms(static_cast<long long>(compute_ms)));
  return pack_u64(0);
}

Bytes ComputePatterns::do_dy(std::uint64_t compute_ms, std::uint64_t mutex_index,
                             SyncContext& ctx) {
  // Pattern (d) plus an explicit yield: the paper's proposed MAT
  // optimisation — donate the primary token before computing, so the
  // next thread can lock without waiting for our completion.
  const MutexId mutex(mutex_index % mutexes_);
  {
    DetLock lock(ctx, mutex);
    access_state(mutex.value(), ctx);
  }
  ctx.yield();
  ctx.compute(paper_ms(static_cast<long long>(compute_ms)));
  return pack_u64(0);
}

std::uint64_t ComputePatterns::state_hash() const {
  repl::StateHash h;
  // Untouched mutexes contribute nothing: the digest depends only on the
  // accesses made, not on how many mutexes the object was built with.
  for (std::uint64_t mutex = 0; mutex < access_log_.size(); ++mutex) {
    if (access_log_[mutex].empty()) continue;
    h.mix(mutex);
    h.mix_range(access_log_[mutex]);
  }
  return h.digest();
}

// --- EchoService ----------------------------------------------------------------

Bytes EchoService::dispatch(const std::string& method, const Bytes& args,
                            SyncContext& ctx) {
  if (method == "echo") return do_echo(args);
  if (method == "delay") {
    const auto a = unpack_u64(args);
    return do_delay(a.empty() ? 0 : a[0], ctx);
  }
  if (method == "callback") {
    const auto a = unpack_u64(args);
    if (a.empty()) throw std::invalid_argument("callback needs (group)");
    return do_callback(a[0], ctx);
  }
  throw std::invalid_argument("unknown method: " + method);
}

Bytes EchoService::do_echo(const Bytes& args) {
  calls_++;
  return args;
}

Bytes EchoService::do_delay(std::uint64_t delay_ms, SyncContext& ctx) {
  const std::uint64_t calls = ++calls_;
  ctx.compute(paper_ms(static_cast<long long>(delay_ms)));
  return pack_u64(calls);
}

Bytes EchoService::do_callback(std::uint64_t group, SyncContext& ctx) {
  calls_++;
  return ctx.invoke(common::GroupId(static_cast<std::uint32_t>(group)), "__cb", {});
}

// --- NestedPatterns (paper Fig. 5b) ----------------------------------------------

Bytes NestedPatterns::dispatch(const std::string& method, const Bytes& args,
                               SyncContext& ctx) {
  const auto a = unpack_u64(args);
  if (a.size() < 5) {
    throw std::invalid_argument(
        "NestedPatterns needs (callee, nested_lo, nested_hi, compute_lo, compute_hi)");
  }
  return do_pattern(method, a, ctx);
}

Bytes NestedPatterns::do_pattern(const std::string& method,
                                 const std::vector<std::uint64_t>& a,
                                 SyncContext& ctx) {
  const common::GroupId callee(static_cast<std::uint32_t>(a[0]));
  for (const char op : method) {
    switch (op) {
      case 'N': {
        const auto duration = a[1] + ctx.rng().uniform(0, a[2] - a[1]);
        ctx.invoke(callee, "delay", pack_u64(duration));
        break;
      }
      case 'C': {
        const auto duration = a[3] + ctx.rng().uniform(0, a[4] - a[3]);
        ctx.compute(paper_ms(static_cast<long long>(duration)));
        break;
      }
      case 'S': {
        DetLock lock(ctx, MutexId(0));
        state_log_.push_back(ctx.request_id().value());
        break;
      }
      default:
        throw std::invalid_argument("pattern may only contain N, C, S");
    }
  }
  return pack_u64(0);
}

std::uint64_t NestedPatterns::state_hash() const {
  repl::StateHash h;
  h.mix_range(state_log_);
  return h.digest();
}

// --- UnboundedBuffer (paper Fig. 6a) -----------------------------------------------

Bytes UnboundedBuffer::dispatch(const std::string& method, const Bytes& args,
                                SyncContext& ctx) {
  if (method == "produce") {
    const auto a = unpack_u64(args);
    return do_produce(a.empty() ? 0 : a[0], ctx);
  }
  if (method == "consume") return do_consume(ctx);
  if (method == "poll_consume") return do_poll_consume(ctx);
  throw std::invalid_argument("unknown method: " + method);
}

Bytes UnboundedBuffer::do_produce(std::uint64_t item, SyncContext& ctx) {
  const MutexId m(0);
  const CondVarId available(0);
  DetLock lock(ctx, m);
  items_.push_back(item);
  ctx.notify_one(m, available);
  return pack_u64(items_.size());
}

Bytes UnboundedBuffer::do_consume(SyncContext& ctx) {
  const MutexId m(0);
  const CondVarId available(0);
  DetLock lock(ctx, m);
  while (items_.empty()) ctx.wait(m, available);
  const std::uint64_t item = items_.front();
  items_.pop_front();
  consumed_++;
  return pack_u64(item);
}

Bytes UnboundedBuffer::do_poll_consume(SyncContext& ctx) {
  const MutexId m(0);
  DetLock lock(ctx, m);
  if (items_.empty()) return pack_u64(0);
  const std::uint64_t item = items_.front();
  items_.pop_front();
  consumed_++;
  return pack_u64(1, item);
}

std::uint64_t UnboundedBuffer::state_hash() const {
  repl::StateHash h;
  h.mix(consumed_);
  h.mix_range(items_);
  return h.digest();
}

// --- BoundedBuffer (paper Fig. 6b) ----------------------------------------------------

Bytes BoundedBuffer::dispatch(const std::string& method, const Bytes& args,
                              SyncContext& ctx) {
  if (method == "produce") {
    const auto a = unpack_u64(args);
    return do_produce(a.empty() ? 0 : a[0], ctx);
  }
  if (method == "consume") return do_consume(ctx);
  if (method == "poll_produce") {
    const auto a = unpack_u64(args);
    return do_poll_produce(a.empty() ? 0 : a[0], ctx);
  }
  if (method == "poll_consume") return do_poll_consume(ctx);
  throw std::invalid_argument("unknown method: " + method);
}

Bytes BoundedBuffer::do_produce(std::uint64_t item, SyncContext& ctx) {
  const MutexId m(0);
  const CondVarId not_full(0);
  const CondVarId not_empty(1);
  DetLock lock(ctx, m);
  while (items_.size() >= capacity_) ctx.wait(m, not_full);
  items_.push_back(item);
  produced_++;
  ctx.notify_one(m, not_empty);
  return pack_u64(produced_);
}

Bytes BoundedBuffer::do_consume(SyncContext& ctx) {
  const MutexId m(0);
  const CondVarId not_full(0);
  const CondVarId not_empty(1);
  DetLock lock(ctx, m);
  while (items_.empty()) ctx.wait(m, not_empty);
  const std::uint64_t item = items_.front();
  items_.pop_front();
  consumed_++;
  ctx.notify_one(m, not_full);
  return pack_u64(item);
}

Bytes BoundedBuffer::do_poll_produce(std::uint64_t item, SyncContext& ctx) {
  const MutexId m(0);
  DetLock lock(ctx, m);
  if (items_.size() >= capacity_) return pack_u64(0);
  items_.push_back(item);
  produced_++;
  return pack_u64(1);
}

Bytes BoundedBuffer::do_poll_consume(SyncContext& ctx) {
  const MutexId m(0);
  DetLock lock(ctx, m);
  if (items_.empty()) return pack_u64(0);
  const std::uint64_t item = items_.front();
  items_.pop_front();
  consumed_++;
  return pack_u64(1, item);
}

std::uint64_t BoundedBuffer::state_hash() const {
  repl::StateHash h;
  h.mix(consumed_);
  h.mix(produced_);
  h.mix_range(items_);
  return h.digest();
}

// --- BankAccounts ------------------------------------------------------------------------

namespace {
MutexId account_mutex(std::uint64_t account) { return MutexId(account); }
CondVarId account_cv(std::uint64_t account) { return CondVarId(account); }
}  // namespace

Bytes BankAccounts::dispatch(const std::string& method, const Bytes& args,
                             SyncContext& ctx) {
  const auto a = unpack_u64(args);
  if (method == "deposit") return do_deposit(a.at(0), a.at(1), ctx);
  if (method == "withdraw") {
    const auto timeout = a.size() > 2 ? paper_ms(static_cast<long long>(a[2]))
                                      : common::Duration::zero();
    return do_withdraw(a.at(0), a.at(1), timeout, ctx);
  }
  if (method == "balance") return do_balance(a.at(0), ctx);
  if (method == "transfer") return do_transfer(a.at(0), a.at(1), a.at(2), ctx);
  throw std::invalid_argument("unknown method: " + method);
}

Bytes BankAccounts::do_deposit(std::uint64_t account, std::uint64_t amount,
                               SyncContext& ctx) {
  account %= balances_.size();
  DetLock lock(ctx, account_mutex(account));
  balances_[account] += static_cast<std::int64_t>(amount);
  ctx.notify_all(account_mutex(account), account_cv(account));
  return pack_u64(static_cast<std::uint64_t>(balances_[account]));
}

Bytes BankAccounts::do_withdraw(std::uint64_t account, std::uint64_t amount,
                                common::Duration timeout, SyncContext& ctx) {
  account %= balances_.size();
  const auto debit = static_cast<std::int64_t>(amount);
  DetLock lock(ctx, account_mutex(account));
  while (balances_[account] < debit) {
    const bool notified =
        ctx.wait(account_mutex(account), account_cv(account), timeout);
    if (!notified && balances_[account] < debit) return pack_u64(0);
  }
  balances_[account] -= debit;
  return pack_u64(1);
}

Bytes BankAccounts::do_balance(std::uint64_t account, SyncContext& ctx) {
  account %= balances_.size();
  DetLock lock(ctx, account_mutex(account));
  return pack_u64(static_cast<std::uint64_t>(balances_[account]));
}

Bytes BankAccounts::do_transfer(std::uint64_t from, std::uint64_t to,
                                std::uint64_t amount, SyncContext& ctx) {
  from %= balances_.size();
  to %= balances_.size();
  const auto debit = static_cast<std::int64_t>(amount);
  if (from == to) return pack_u64(1);
  // Canonical lock order prevents application-level deadlock.
  const std::uint64_t first = std::min(from, to);
  const std::uint64_t second = std::max(from, to);
  DetLock lock_first(ctx, account_mutex(first));
  DetLock lock_second(ctx, account_mutex(second));
  if (balances_[from] < debit) return pack_u64(0);
  balances_[from] -= debit;
  balances_[to] += debit;
  ctx.notify_all(account_mutex(to), account_cv(to));
  return pack_u64(1);
}

std::uint64_t BankAccounts::state_hash() const {
  repl::StateHash h;
  h.mix_range(balances_);
  return h.digest();
}

}  // namespace adets::workload
