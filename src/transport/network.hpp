// Simulated point-to-point network.
//
// Replaces the paper's 100 Mbit/s switched LAN.  Every simulated machine
// is a "node" with an id.  A sent message joins the network's one queue
// of in-flight messages, ordered by (due, seq): its due time (send time
// plus link latency) and its send order.  Each node also has one
// deadline, set by its owner for timed duties (the GCS heartbeats,
// submit flushes and retransmissions).
//
// One thread, the network thread, runs every node.  It sleeps until the
// earliest entry over all nodes is due, a message or a node's deadline,
// and runs the matching handler of that node; entries that fall due
// together cost one wake-up.  A tie between a deadline and a message
// runs the deadline first; deadlines of different nodes go by node id,
// and messages by seq.  Handlers run one at a time, so a running handler
// holds up every node: it must never wait for another node's message,
// and must return far sooner than the GCS's suspect_timeout.
//
// Properties (mirroring a TCP LAN, which the paper's middleware assumes):
//  - per-(src,dst) FIFO ordering, even with latency jitter;
//  - reliable delivery unless a drop probability is configured on the
//    link (used only by failure-detector tests) or a node is crashed;
//  - latencies are expressed in *paper time* and scaled through
//    common::Clock, so the compute/communication ratio of the paper's
//    testbed is preserved under any time scale;
//  - loopback: a message a node sends to itself crosses no link (in the
//    paper's testbed the group communication module runs inside each
//    replica's process).  It gets no latency or jitter and is due at
//    once, unless a FaultPlan verdict delays it; the network thread
//    handles it after the handler that sent it returns, never inside
//    it.  It is counted, dropped on a crash and given fault verdicts
//    like any other message.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
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

/// The simulated network fabric.  Thread-safe; the constructor starts
/// the network thread and stop() joins it.
class SimNetwork {
 public:
  using Handler = std::function<void(Message)>;
  /// Runs a node's timed duties once its deadline is due and returns the
  /// next deadline (TimePoint::max() for none).
  using DeadlineHandler = std::function<common::TimePoint()>;

  explicit SimNetwork(LinkConfig default_link = {}, std::uint64_t seed = 1);
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Creates a new node and returns its id.  The node starts receiving
  /// once a handler is registered.
  common::NodeId create_node();

  /// Registers (or replaces) the handlers of a node and clears its
  /// deadline.  Both run on the network thread, one handler of any node
  /// at a time.  Called on the network thread (from inside a handler) it
  /// returns at once; from any other thread it returns once the network
  /// thread runs none of the node's handlers it replaced, so empty
  /// handlers unregister a receiver for good.
  void set_handler(common::NodeId node, Handler on_message,
                   DeadlineHandler on_deadline = {});

  /// Lowers `node`'s deadline to `at` (a later `at` changes nothing).
  /// Callable from any thread; like send() and set_fault_plan(), it wakes
  /// the network thread only when it adds an entry earlier than every
  /// entry the thread sleeps for, so never when called on that thread.
  void wake_at(common::NodeId node, common::TimePoint at);

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

  /// Stops the network thread; pending messages are discarded.
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

  /// One simulated machine.
  struct Node {
    Handler on_message;
    DeadlineHandler on_deadline;
    /// When on_deadline is due (TimePoint::max() for never).
    common::TimePoint deadline = common::TimePoint::max();
    bool crashed = false;
  };

  /// The network thread: runs each entry once due, handlers with mutex_
  /// released; returns once stopping.
  void loop();
  /// Runs `call` (a copy of one of node `id`'s handlers) with `lock`
  /// released and `id` marked as running; returns with `lock` held.
  template <typename Call>
  void run_handler(common::NodeId id, common::MutexLock& lock, Call&& call)
      ADETS_REQUIRES(mutex_);
  void push(Pending item) ADETS_REQUIRES(mutex_);
  /// True if an entry due at `due` must wake the sleeping network thread,
  /// which then counts as awake until it sleeps again.
  bool wakes_loop(common::TimePoint due) ADETS_REQUIRES(mutex_);
  void apply_node_event(const NodeEvent& event) ADETS_REQUIRES(mutex_);
  LinkConfig link_for(common::NodeId src, common::NodeId dst) const
      ADETS_REQUIRES(mutex_);

  const LinkConfig default_link_;
  mutable common::Mutex mutex_{"net::mutex"};
  /// Messages and FaultPlan node events, a min-heap by (due, seq).
  std::vector<Pending> heap_ ADETS_GUARDED_BY(mutex_);
  std::vector<Node> nodes_ ADETS_GUARDED_BY(mutex_);  // indexed by id
  /// The node whose handler runs (with mutex_ released), if any.
  std::optional<common::NodeId> running_ ADETS_GUARDED_BY(mutex_);
  /// Notified whenever the network thread leaves a handler.
  common::CondVar handler_left_;
  /// When the sleeping network thread wakes by itself (TimePoint::max()
  /// for never); TimePoint::min() while it is awake.
  common::TimePoint sleep_until_ ADETS_GUARDED_BY(mutex_) = common::TimePoint::min();
  common::CondVar wake_;  // the network thread sleeps on it
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
  std::thread thread_;  // declared last: it uses the fields above
};

}  // namespace adets::transport
