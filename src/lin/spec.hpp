// Sequential specification models for linearizability checking.
//
// A SequentialSpec is the oracle side of the Wing-Gong search: it says
// whether an operation, *with the result the client actually observed*,
// is legal from a given abstract state, and what the successor state is.
// States are canonical byte strings so the checker can memoize visited
// (linearized-set, state) configurations — the optimisation that makes
// fig4/fig6-scale histories check in seconds.
//
// Contract for implementations:
//  - initial_state() and every apply() result must be *canonical*: two
//    semantically equal states serialise identically (sort map keys,
//    no incidental bytes), or memoization silently degrades.
//  - apply() returns nullopt iff the observed result is impossible from
//    `state`; it must never throw on payloads produced by the matching
//    object (malformed payloads from a corrupted artifact may throw
//    SerializationError, which the checker reports as a spec error).
//  - partition_of() implements P-compositionality: operations in
//    different partitions never interact (per-key for the KV store), so
//    each partition is checked independently.  Return nullopt for an
//    operation that spans partitions (KvStore "size"); one such
//    operation collapses the whole history into a single partition.
//
// Adding a spec for a new object type = subclassing SequentialSpec and
// registering it in make_spec(); see docs/linearizability.md.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "lin/history.hpp"

namespace adets::lin {

class SequentialSpec {
 public:
  virtual ~SequentialSpec() = default;

  /// Registry name ("kv").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Canonical serialized initial state.
  [[nodiscard]] virtual std::string initial_state() const = 0;

  /// Successor state if `op` (with its observed result) can linearize
  /// from `state`; nullopt when the observed result is impossible.
  [[nodiscard]] virtual std::optional<std::string> apply(
      const std::string& state, const Operation& op) const = 0;

  /// Successor state when a *pending* op (no observed result — the
  /// request may have executed inside the group even though the client
  /// never saw a reply) linearizes from `state`.  The effect is applied
  /// with the result unconstrained; nullopt when the operation could
  /// not take effect from `state` at all (e.g. an unknown method).
  /// KvStore's methods have deterministic effects, so one successor
  /// suffices.
  [[nodiscard]] virtual std::optional<std::string> apply_pending(
      const std::string& state, const Operation& op) const = 0;

  /// P-compositionality partition of `op`; nullopt = spans partitions.
  [[nodiscard]] virtual std::optional<std::string> partition_of(
      const Operation& op) const = 0;

  /// Human-readable rendering ("put(k1, v2) -> existed") for reports.
  [[nodiscard]] virtual std::string describe(const Operation& op) const = 0;
};

/// The KvStore spec (src/workload/kvstore.*): put/get/remove/cas/size/
/// watch over string keys.  State: the sorted (key, value) map.  The
/// `watch` reply's changed-flag is timing-dependent (it reports whether
/// the bounded wait observed a version bump), so only the returned
/// value is checked against the state at the linearization point.
class KvSpec final : public SequentialSpec {
 public:
  [[nodiscard]] std::string name() const override { return "kv"; }
  [[nodiscard]] std::string initial_state() const override;
  [[nodiscard]] std::optional<std::string> apply(
      const std::string& state, const Operation& op) const override;
  [[nodiscard]] std::optional<std::string> apply_pending(
      const std::string& state, const Operation& op) const override;
  [[nodiscard]] std::optional<std::string> partition_of(
      const Operation& op) const override;
  [[nodiscard]] std::string describe(const Operation& op) const override;
};

/// Spec registry for the 'spec' header of a history file; nullptr for
/// an unknown name.
[[nodiscard]] std::unique_ptr<SequentialSpec> make_spec(const std::string& name);

}  // namespace adets::lin
