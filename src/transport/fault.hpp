// Deterministic fault-injection plans for the simulated network.
//
// A FaultPlan layers adversarial delivery conditions on top of the
// SimNetwork latency model: extra per-link delay, message duplication,
// bounded reordering (a message is held back so later messages on the
// same link overtake it), probabilistic loss, and scheduled node
// crash/restart events.  Every stochastic verdict is derived purely from
// (plan seed, src, dst, per-link message counter) via SplitMix64, so a
// plan produces the *same* per-link fault schedule on every run — the
// reproducibility contract the fault-injection tests assert — no matter
// how OS threads interleave.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace adets::transport {

/// Stochastic fault model of one directed link.
struct LinkFaults {
  /// Probability that a message is silently dropped (on top of any
  /// LinkConfig::drop_probability).
  double drop_probability = 0.0;
  /// Probability that a second copy of the message is delivered (the
  /// copy trails the original by one extra-delay draw; the GCS
  /// at-most-once filters must absorb it).
  double duplicate_probability = 0.0;
  /// Uniform extra one-way latency in [min, max], paper time.
  common::Duration extra_delay_min = common::Duration::zero();
  common::Duration extra_delay_max = common::Duration::zero();
  /// Probability that a message is held back past its FIFO slot so up
  /// to `reorder_span` successors on the same link overtake it.
  double reorder_probability = 0.0;
  std::uint32_t reorder_span = 4;

  [[nodiscard]] bool active() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           reorder_probability > 0.0 ||
           extra_delay_max > common::Duration::zero();
  }
};

/// Scheduled node lifecycle event, relative to the instant the plan is
/// armed (SimNetwork::set_fault_plan), expressed in paper time.
struct NodeEvent {
  enum class Kind : std::uint8_t { kCrash, kRestart };
  common::Duration at = common::Duration::zero();
  common::NodeId node;
  Kind kind = Kind::kCrash;
};

/// A complete, seeded fault-injection schedule.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Faults applied to every link (each link draws its own verdicts).
  LinkFaults default_faults;
  /// Crash/restart timeline.
  std::vector<NodeEvent> node_events;

  // --- fluent builders (tests read as one expression) ----------------------
  FaultPlan& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  FaultPlan& drop(double p) {
    default_faults.drop_probability = p;
    return *this;
  }
  FaultPlan& duplicate(double p) {
    default_faults.duplicate_probability = p;
    return *this;
  }
  FaultPlan& delay(common::Duration min, common::Duration max) {
    default_faults.extra_delay_min = min;
    default_faults.extra_delay_max = max;
    return *this;
  }
  FaultPlan& reorder(double p, std::uint32_t span = 4) {
    default_faults.reorder_probability = p;
    default_faults.reorder_span = span;
    return *this;
  }
  FaultPlan& crash_at(common::Duration at, common::NodeId node) {
    node_events.push_back({at, node, NodeEvent::Kind::kCrash});
    return *this;
  }
  FaultPlan& restart_at(common::Duration at, common::NodeId node) {
    node_events.push_back({at, node, NodeEvent::Kind::kRestart});
    return *this;
  }
};

/// The verdict the fault layer reached for one message on one link.
/// Recorded per directed link in send order, so two runs with the same
/// plan produce identical per-link decision streams.
struct FaultDecision {
  std::uint64_t link_counter = 0;  // nth message on this directed link
  bool dropped = false;
  bool duplicated = false;
  bool reordered = false;
  std::int64_t extra_delay_ns = 0;

  friend bool operator==(const FaultDecision&, const FaultDecision&) = default;
};

/// Per-link fault decision streams: (src, dst) -> decisions in send order.
using FaultTrace =
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<FaultDecision>>;

/// Order-insensitive digest of a fault trace (per-link streams are
/// ordered; links are combined through the sorted map), used by tests to
/// compare the delivery schedules of two runs cheaply.
[[nodiscard]] std::uint64_t fault_trace_digest(const FaultTrace& trace);

/// Draws the verdict for the `counter`-th message on link src->dst of
/// `plan`.  Pure function of its arguments: the decision stream of a
/// link does not depend on traffic elsewhere.
[[nodiscard]] FaultDecision decide_fault(const FaultPlan& plan, common::NodeId src,
                                         common::NodeId dst, std::uint64_t counter);

}  // namespace adets::transport
