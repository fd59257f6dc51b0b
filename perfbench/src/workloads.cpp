#include "workloads.hpp"

#include <cstdio>
#include <map>
#include <set>

#include "workload/kvstore.hpp"
#include "workload/objects.hpp"

namespace perfbench {

namespace common = adets::common;
namespace workload = adets::workload;
using adets::sched::SchedulerKind;

namespace {

/// Runs `decode` over a reply; false when it is missing, malformed or
/// has bytes left over.
template <typename Decode>
bool decodes(const common::Bytes* reply, Decode&& decode) {
  if (reply == nullptr) return false;
  try {
    common::Reader r(*reply);
    return decode(r) && r.exhausted();
  } catch (const common::SerializationError&) {
    return false;
  }
}

void fail(CheckResult& check, const std::string& detail) {
  if (check.ok) check.detail = detail;
  check.ok = false;
}

// --- kv_paced / kv_failover --------------------------------------------------------

constexpr std::uint32_t kKeys = 1024;
constexpr std::size_t kValueBytes = 32;

std::string key_name(std::uint32_t key) {
  char name[8];
  std::snprintf(name, sizeof name, "k%04u", key);
  return name;
}

/// A 32-byte value, unique per (key, serial).
std::string value_for(std::uint32_t key, std::uint64_t serial) {
  char value[kValueBytes + 1];
  std::snprintf(value, sizeof value, "%05u:%026llu", key,
                static_cast<unsigned long long>(serial));
  return value;
}

class KvWorkload final : public Workload {
 public:
  using Workload::Workload;

  [[nodiscard]] adets::runtime::ObjectFactory objects() const override {
    return [] { return std::make_unique<workload::KvStore>(); };
  }

  [[nodiscard]] std::vector<Op> preload() const override {
    std::vector<Op> ops;
    for (std::uint32_t key = 0; key < kKeys; ++key) ops.push_back(put(key, value_for(key, 0)));
    return ops;
  }

  [[nodiscard]] std::vector<Op> next(common::Rng& rng, std::uint64_t serial) const override {
    const bool is_put = rng.uniform(0, 1) == 0;
    const auto key = static_cast<std::uint32_t>(rng.uniform(0, kKeys - 1));
    if (is_put) return {put(key, value_for(key, serial + 1))};
    Op op;
    op.method = "get";
    op.args = workload::KvStore::pack_key(key_name(key));
    op.key = key;
    return {op};
  }

  [[nodiscard]] std::vector<CheckResult> check(
      const std::vector<Outcome>& outcomes) const override {
    std::map<std::uint32_t, std::set<std::string>> written;
    for (const Outcome& o : outcomes) {
      if (o.op->method == "put") written[o.op->key].insert(o.op->value);
    }
    CheckResult decode{"replies_decode", true, ""};
    CheckResult reads{"gets_return_written_values", true, ""};
    for (const Outcome& o : outcomes) {
      if (o.reply == nullptr) continue;  // counted as failed by the harness
      if (o.op->method == "put") {
        if (!decodes(o.reply, [](common::Reader& r) {
              r.boolean();  // previous-exists flag
              return true;
            })) {
          fail(decode, "malformed put reply for " + key_name(o.op->key));
        }
        continue;
      }
      bool exists = false;
      std::string value;
      if (!decodes(o.reply, [&](common::Reader& r) {
            exists = r.boolean();
            value = r.str();
            return true;
          })) {
        fail(decode, "malformed get reply for " + key_name(o.op->key));
        continue;
      }
      // Absent, or a value some put wrote to that key.
      if (exists && written[o.op->key].count(value) == 0) {
        fail(reads, "get " + key_name(o.op->key) + " returned unwritten value '" + value + "'");
      }
    }
    return {decode, reads};
  }

 private:
  static Op put(std::uint32_t key, std::string value) {
    Op op;
    op.method = "put";
    op.args = workload::KvStore::pack_put(key_name(key), value);
    op.key = key;
    op.value = std::move(value);
    return op;
  }
};

// --- fig4_lsa ----------------------------------------------------------------------------

constexpr std::uint64_t kComputePaperMs = 100;  // paper Fig. 4
constexpr std::uint32_t kMutexes = 10;

class ComputeWorkload final : public Workload {
 public:
  using Workload::Workload;

  [[nodiscard]] adets::runtime::ObjectFactory objects() const override {
    return [] { return std::make_unique<workload::ComputePatterns>(kMutexes); };
  }

  [[nodiscard]] std::vector<Op> next(common::Rng& rng, std::uint64_t) const override {
    static const char* const kPatterns[] = {"a", "b", "c", "d"};
    Op op;
    op.method = kPatterns[rng.uniform(0, 3)];
    op.args = workload::pack_u64(kComputePaperMs, rng.uniform(0, kMutexes - 1));
    return {op};
  }

  [[nodiscard]] std::vector<CheckResult> check(
      const std::vector<Outcome>& outcomes) const override {
    CheckResult decode{"replies_decode", true, ""};
    for (const Outcome& o : outcomes) {
      if (o.reply == nullptr) continue;
      if (!decodes(o.reply, [](common::Reader& r) { return r.u64() == 0; })) {
        fail(decode, "malformed reply to pattern " + o.op->method);
      }
    }
    return {decode};
  }
};

// --- fig6b_pds -----------------------------------------------------------------------------

constexpr std::size_t kBufferCapacity = 2;  // paper Fig. 6b

class BufferWorkload final : public Workload {
 public:
  using Workload::Workload;

  [[nodiscard]] adets::runtime::ObjectFactory objects() const override {
    return [] { return std::make_unique<workload::BoundedBuffer>(kBufferCapacity); };
  }

  /// A produce/consume pair in seeded random order, with a unique item.
  [[nodiscard]] std::vector<Op> next(common::Rng& rng, std::uint64_t serial) const override {
    Op produce;
    produce.method = "produce";
    produce.item = serial + 1;
    produce.args = workload::pack_u64(produce.item);
    Op consume;
    consume.method = "consume";
    if (rng.uniform(0, 1) == 0) return {produce, consume};
    return {consume, produce};
  }

  [[nodiscard]] std::vector<CheckResult> check(
      const std::vector<Outcome>& outcomes) const override {
    CheckResult decode{"replies_decode", true, ""};
    CheckResult once{"items_consumed_exactly_once", true, ""};
    std::set<std::uint64_t> produced;
    std::map<std::uint64_t, int> consumed;
    for (const Outcome& o : outcomes) {
      if (o.op->method == "produce") {
        produced.insert(o.op->item);
        if (o.reply != nullptr &&
            !decodes(o.reply, [](common::Reader& r) { return r.u64() > 0; })) {
          fail(decode, "malformed produce reply");
        }
        continue;
      }
      if (o.reply == nullptr) continue;
      std::uint64_t item = 0;
      if (!decodes(o.reply, [&](common::Reader& r) {
            item = r.u64();
            return true;
          })) {
        fail(decode, "malformed consume reply");
        continue;
      }
      ++consumed[item];
    }
    for (const auto& [item, times] : consumed) {
      if (produced.count(item) == 0) fail(once, "consumed unknown item " + std::to_string(item));
      if (times > 1) fail(once, "item " + std::to_string(item) + " consumed " +
                                    std::to_string(times) + " times");
    }
    for (const std::uint64_t item : produced) {
      if (consumed.count(item) == 0) fail(once, "item " + std::to_string(item) + " never consumed");
    }
    return {decode, once};
  }
};

// --- the workload table ------------------------------------------------------------------

struct Entry {
  WorkloadSpec spec;
  enum class Family { kKv, kCompute, kBuffer } family;
};

std::vector<Entry> entries() {
  WorkloadSpec kv_paced;
  // KvStore under ADETS-SAT, open loop, 50 % put / 50 % get over 1024
  // preloaded keys: the least scheduling work, so latency is mostly the
  // runtime -> gcs -> transport request path (plus SAT's one OS thread
  // per request per replica).  500/s is about 1/4 of the lowest
  // saturated rate seen on a 4-vCPU host, so the run never saturates.
  kv_paced.name = "kv_paced";
  kv_paced.kind = SchedulerKind::kSat;
  kv_paced.rate_per_s = 500;
  kv_paced.warmup = 512;

  // kv_paced plus a fail-stop crash of the sequencer a third of the way
  // in: the only workload that runs failure detection, view change,
  // sequencer failover and client retransmission.
  WorkloadSpec kv_failover = kv_paced;
  kv_failover.name = "kv_failover";
  kv_failover.crash_at_fraction = 1.0 / 3.0;

  // Paper Fig. 4 under ADETS-LSA, closed loop of 8 logical clients:
  // latency is mostly simulated compute and lock grants, and the leader
  // broadcasts grant tables, so scheduler concurrency and the sched ->
  // gcs path set throughput.
  WorkloadSpec fig4_lsa;
  fig4_lsa.name = "fig4_lsa";
  fig4_lsa.kind = SchedulerKind::kLsa;
  fig4_lsa.closed_clients = 8;
  fig4_lsa.warmup = 256;

  // Paper Fig. 6b under ADETS-PDS, open loop of produce/consume pairs:
  // scheduling through condition-variable waits and PDS rounds on a
  // fixed thread pool instead of lock grants and per-request threads.
  WorkloadSpec fig6b_pds;
  fig6b_pds.name = "fig6b_pds";
  fig6b_pds.kind = SchedulerKind::kPds;
  fig6b_pds.rate_per_s = 1000;
  fig6b_pds.warmup = 1024;

  return {{kv_paced, Entry::Family::kKv},
          {kv_failover, Entry::Family::kKv},
          {fig4_lsa, Entry::Family::kCompute},
          {fig6b_pds, Entry::Family::kBuffer}};
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  for (Entry& e : entries()) {
    if (e.spec.name != name) continue;
    switch (e.family) {
      case Entry::Family::kKv:
        return std::make_unique<KvWorkload>(std::move(e.spec));
      case Entry::Family::kCompute:
        return std::make_unique<ComputeWorkload>(std::move(e.spec));
      case Entry::Family::kBuffer:
        return std::make_unique<BufferWorkload>(std::move(e.spec));
    }
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Entry& e : entries()) names.push_back(e.spec.name);
  return names;
}

}  // namespace perfbench
