// Simulated point-to-point network.
//
// Replaces the paper's 100 Mbit/s switched LAN.  Every simulated machine
// is a "node" with an id and one thread of its own.  A sent message goes
// onto its destination's queue of in-flight messages, ordered by due
// time (send time plus link latency); the node's thread sleeps until the
// earliest one is due and runs the node's handler on it.
//
// Properties (mirroring a TCP LAN, which the paper's middleware assumes):
//  - per-(src,dst) FIFO ordering, even with latency jitter;
//  - reliable delivery unless a drop probability is configured on the
//    link (used only by failure-detector tests) or a node is crashed;
//  - latencies are expressed in *paper time* and scaled through
//    common::Clock, so the compute/communication ratio of the paper's
//    testbed is preserved under any time scale.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "transport/fault.hpp"
#include "transport/message.hpp"

namespace adets::transport {

/// Latency/loss model of one directed link.
struct LinkConfig {
  /// Fixed one-way latency in paper time.
  common::Duration base_latency = common::paper_us(500);
  /// Uniform extra latency in [0, jitter] in paper time.
  common::Duration jitter = common::paper_us(200);
  /// Probability that a message is silently dropped (default: reliable).
  double drop_probability = 0.0;
};

/// Counters exposed for tests and the EXPERIMENTS report.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  // Fault-injection counters (all zero without an armed FaultPlan).
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_reordered = 0;
  std::uint64_t messages_fault_delayed = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t node_restarts = 0;
};

/// The simulated network fabric.  Thread-safe.
class SimNetwork {
 public:
  using Handler = std::function<void(Message)>;

  explicit SimNetwork(LinkConfig default_link = {}, std::uint64_t seed = 1);
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Creates a new node and returns its id.  The node starts receiving
  /// once a handler is registered.
  common::NodeId create_node();

  /// Registers (or replaces) the message handler of a node.  The handler
  /// runs on the node's thread, one message at a time, and holds up the
  /// node's later messages while it runs.  Returns once the node's thread
  /// is not inside the handler it replaced, so an empty `handler`
  /// unregisters a receiver for good; called on the node's own thread
  /// (from inside its handler), it returns at once.
  void set_handler(common::NodeId node, Handler handler);

  /// Sends `payload` from `src` to `dst`; returns false if either end is
  /// crashed (the message is silently lost, as on a real network).
  /// Multicast senders pass the same SharedBytes for every destination so
  /// the fabric never copies the bytes again.
  bool send(common::NodeId src, common::NodeId dst, common::SharedBytes payload);
  bool send(common::NodeId src, common::NodeId dst, common::Bytes payload) {
    return send(src, dst, common::SharedBytes(std::move(payload)));
  }

  /// Overrides the latency/loss model of the directed link src->dst.
  void set_link(common::NodeId src, common::NodeId dst, LinkConfig config);

  /// Crashes a node: all traffic to and from it is dropped from now on.
  void crash(common::NodeId node);

  [[nodiscard]] bool crashed(common::NodeId node) const;

  /// Arms `plan` now: link faults apply to every subsequent send, node
  /// events fire at their paper-time offsets from this instant.
  void set_fault_plan(FaultPlan plan);

  /// Per-link fault verdicts recorded since the plan was armed.
  [[nodiscard]] FaultTrace fault_trace() const;

  /// Scheduled FaultPlan crash/restart events that have not fired yet.
  [[nodiscard]] std::size_t pending_node_events() const;

  [[nodiscard]] NetworkStats stats() const;

  /// Stops all node threads; pending messages are discarded.
  void stop();

 private:
  struct Pending {
    common::TimePoint due;
    std::uint64_t seq;  // tie-break, preserves send order
    Message message;
    /// Set for scheduled FaultPlan crash/restart entries (message unused).
    std::optional<NodeEvent> node_event;
    friend bool operator>(const Pending& a, const Pending& b) {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  /// One simulated machine; its queue and handler live in heaps_ and
  /// handlers_ under the same index.
  struct Node {
    /// Waits on mutex_; woken when a send makes its entry the earliest,
    /// and on stop.
    common::CondVar cv;
    std::atomic<bool> crashed{false};
    std::thread thread;  // declared last: it uses the fields above
  };

  /// Sleeps until node `id`'s earliest entry is due, pops it and runs
  /// the handler on it with mutex_ released; returns once stopping.
  void node_loop(common::NodeId id, Node& node);
  /// Pushes `item` onto `dst`'s heap; true if it became the earliest.
  bool push(common::NodeId dst, Pending item) ADETS_REQUIRES(mutex_);
  void apply_node_event(const NodeEvent& event) ADETS_REQUIRES(mutex_);
  LinkConfig link_for(common::NodeId src, common::NodeId dst) const
      ADETS_REQUIRES(mutex_);

  // Set in the constructor, read-only afterwards (link_for falls back
  // to it under mutex_ anyway).
  const LinkConfig default_link_;
  mutable common::Mutex mutex_{"net::mutex"};
  std::vector<std::unique_ptr<Node>> nodes_ ADETS_GUARDED_BY(mutex_);
  /// Per node: messages and FaultPlan node events bound for it, a
  /// min-heap by (due, seq).
  std::vector<std::vector<Pending>> heaps_ ADETS_GUARDED_BY(mutex_);
  std::vector<Handler> handlers_ ADETS_GUARDED_BY(mutex_);
  /// Per node: its thread is running the handler (with mutex_ released).
  std::vector<bool> in_handler_ ADETS_GUARDED_BY(mutex_);
  /// Notified whenever a node's thread leaves its handler.
  common::CondVar handler_left_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkConfig> links_
      ADETS_GUARDED_BY(mutex_);
  std::map<std::pair<std::uint32_t, std::uint32_t>, common::TimePoint> last_scheduled_
      ADETS_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ ADETS_GUARDED_BY(mutex_) = 0;
  common::Rng rng_ ADETS_GUARDED_BY(mutex_);
  NetworkStats stats_ ADETS_GUARDED_BY(mutex_);
  // Fault injection.
  FaultPlan fault_plan_ ADETS_GUARDED_BY(mutex_);
  bool fault_plan_armed_ ADETS_GUARDED_BY(mutex_) = false;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> fault_counters_
      ADETS_GUARDED_BY(mutex_);
  FaultTrace fault_trace_ ADETS_GUARDED_BY(mutex_);
  std::size_t pending_node_events_ ADETS_GUARDED_BY(mutex_) = 0;
  bool stopping_ ADETS_GUARDED_BY(mutex_) = false;
};

}  // namespace adets::transport
