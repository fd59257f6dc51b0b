#include "workload/kvstore.hpp"

#include <stdexcept>

#include "replication/statehash.hpp"

namespace adets::workload {

using common::Bytes;
using common::CondVarId;
using common::MutexId;
using runtime::DetLock;
using runtime::SyncContext;

namespace {
std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

// Bucket b is guarded by mutex b; its watchers wait on condition variable b.
std::uint32_t KvStore::bucket(const std::string& key) const {
  return static_cast<std::uint32_t>(fnv(key) % buckets_);
}

void KvStore::touch(std::uint32_t b, const std::string& key, SyncContext& ctx) {
  versions_[b][key]++;
  // Wake every watcher of this bucket; they re-check their key version.
  ctx.notify_all(MutexId(b), CondVarId(b));
}

Bytes KvStore::pack_put(const std::string& key, const std::string& value) {
  common::Writer w;
  w.str(key);
  w.str(value);
  return w.take();
}

Bytes KvStore::pack_key(const std::string& key) {
  common::Writer w;
  w.str(key);
  return w.take();
}

Bytes KvStore::pack_cas(const std::string& key, const std::string& expected,
                        const std::string& value) {
  common::Writer w;
  w.str(key);
  w.str(expected);
  w.str(value);
  return w.take();
}

Bytes KvStore::pack_watch(const std::string& key, std::uint64_t timeout_paper_ms) {
  common::Writer w;
  w.str(key);
  w.u64(timeout_paper_ms);
  return w.take();
}

// dispatch only unmarshals and delegates: all state access lives in the
// handlers below.
Bytes KvStore::dispatch(const std::string& method, const Bytes& args,
                        SyncContext& ctx) {
  common::Reader r(args);
  if (method == "put") {
    const std::string key = r.str();
    const std::string value = r.str();
    return do_put(key, value, ctx);
  }
  if (method == "get") return do_get(r.str(), ctx);
  if (method == "remove") return do_remove(r.str(), ctx);
  if (method == "cas") {
    const std::string key = r.str();
    const std::string expected = r.str();
    const std::string value = r.str();
    return do_cas(key, expected, value, ctx);
  }
  if (method == "watch") {
    const std::string key = r.str();
    const auto timeout = common::paper_ms(static_cast<long long>(r.u64()));
    return do_watch(key, timeout, ctx);
  }
  if (method == "size") return do_size(ctx);
  throw std::invalid_argument("unknown method: " + method);
}

Bytes KvStore::do_put(const std::string& key, const std::string& value,
                      SyncContext& ctx) {
  common::Writer reply;
  const std::uint32_t b = bucket(key);
  DetLock lock(ctx, MutexId(b));
  const bool existed = data_[b].count(key) > 0;
  data_[b][key] = value;
  touch(b, key, ctx);
  reply.boolean(existed);
  return reply.take();
}

Bytes KvStore::do_get(const std::string& key, SyncContext& ctx) {
  common::Writer reply;
  const std::uint32_t b = bucket(key);
  DetLock lock(ctx, MutexId(b));
  const auto it = data_[b].find(key);
  reply.boolean(it != data_[b].end());
  reply.str(it != data_[b].end() ? it->second : "");
  return reply.take();
}

Bytes KvStore::do_remove(const std::string& key, SyncContext& ctx) {
  common::Writer reply;
  const std::uint32_t b = bucket(key);
  DetLock lock(ctx, MutexId(b));
  const bool existed = data_[b].erase(key) > 0;
  if (existed) touch(b, key, ctx);
  reply.boolean(existed);
  return reply.take();
}

Bytes KvStore::do_cas(const std::string& key, const std::string& expected,
                      const std::string& value, SyncContext& ctx) {
  common::Writer reply;
  const std::uint32_t b = bucket(key);
  DetLock lock(ctx, MutexId(b));
  const auto it = data_[b].find(key);
  const bool success = it != data_[b].end() && it->second == expected;
  if (success) {
    it->second = value;
    touch(b, key, ctx);
  }
  reply.boolean(success);
  return reply.take();
}

Bytes KvStore::do_watch(const std::string& key, common::Duration timeout,
                        SyncContext& ctx) {
  common::Writer reply;
  const std::uint32_t b = bucket(key);
  DetLock lock(ctx, MutexId(b));
  const std::uint64_t seen = versions_[b][key];
  bool changed = versions_[b][key] != seen;
  while (!changed) {
    const bool notified = ctx.wait(MutexId(b), CondVarId(b), timeout);
    changed = versions_[b][key] != seen;
    if (!notified && !changed) break;  // bounded wait expired
  }
  const auto it = data_[b].find(key);
  reply.boolean(changed);
  reply.str(it != data_[b].end() ? it->second : "");
  return reply.take();
}

Bytes KvStore::do_size(SyncContext& ctx) {
  common::Writer reply;
  // Size touches every bucket; take them in canonical order.
  for (std::uint32_t b = 0; b < buckets_; ++b) ctx.lock(MutexId(b));
  std::uint64_t size = 0;
  for (const auto& keys : data_) size += keys.size();
  reply.u64(size);
  for (std::uint32_t b = buckets_; b > 0; --b) ctx.unlock(MutexId(b - 1));
  return reply.take();
}

std::uint64_t KvStore::state_hash() const {
  repl::StateHash h;
  for (const auto& keys : data_) {
    for (const auto& [key, value] : keys) {
      h.mix(key);
      h.mix(value);
    }
  }
  for (const auto& keys : versions_) {
    for (const auto& [key, version] : keys) {
      h.mix(key);
      h.mix(version);
    }
  }
  return h.digest();
}

}  // namespace adets::workload
