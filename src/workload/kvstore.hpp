// A replicated key-value store: the kind of service object the paper's
// middleware targets, with fine-grained per-bucket locking, blocking
// "watch" reads coordinated through condition variables, and
// compare-and-swap — all through the deterministic scheduler, so every
// replica holds the same map and resolves every watch identically.
//
// Methods (arguments via Writer/Reader, strings length-prefixed):
//   "put"        (key, value)                -> previous-exists flag
//   "get"        (key)                       -> (exists, value)
//   "remove"     (key)                       -> existed flag
//   "cas"        (key, expected, value)      -> success flag
//   "watch"      (key, timeout_paper_ms)     -> (changed, value); blocks
//                until the key changes (put/remove/cas) or the bounded
//                wait times out — condition variable per bucket.
//   "size"       ()                          -> number of keys
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/object.hpp"

namespace adets::workload {

class KvStore : public runtime::ReplicatedObject {
 public:
  explicit KvStore(std::uint32_t buckets = 8)
      : buckets_(buckets), data_(buckets), versions_(buckets) {}

  common::Bytes dispatch(const std::string& method, const common::Bytes& args,
                         runtime::SyncContext& ctx) override;
  [[nodiscard]] std::uint64_t state_hash() const override;

  /// Marshalling helpers for clients.
  static common::Bytes pack_put(const std::string& key, const std::string& value);
  static common::Bytes pack_key(const std::string& key);
  static common::Bytes pack_cas(const std::string& key, const std::string& expected,
                                const std::string& value);
  static common::Bytes pack_watch(const std::string& key, std::uint64_t timeout_paper_ms);

 private:
  common::Bytes do_put(const std::string& key, const std::string& value,
                       runtime::SyncContext& ctx);
  common::Bytes do_get(const std::string& key, runtime::SyncContext& ctx);
  common::Bytes do_remove(const std::string& key, runtime::SyncContext& ctx);
  common::Bytes do_cas(const std::string& key, const std::string& expected,
                       const std::string& value, runtime::SyncContext& ctx);
  common::Bytes do_watch(const std::string& key, common::Duration timeout,
                         runtime::SyncContext& ctx);
  common::Bytes do_size(runtime::SyncContext& ctx);

  [[nodiscard]] std::uint32_t bucket(const std::string& key) const;
  void touch(std::uint32_t b, const std::string& key, runtime::SyncContext& ctx);

  const std::uint32_t buckets_;  // configuration, not replicated state
  // One map per bucket, allocated up front: a call holds only its key's
  // bucket mutex, so calls on different buckets run concurrently and
  // must not insert into a shared container.
  std::vector<std::map<std::string, std::string>> data_;  // ordered: hash stability
  std::vector<std::map<std::string, std::uint64_t>> versions_;  // bumped on every change
};

}  // namespace adets::workload
