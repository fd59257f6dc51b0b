#include "transport/network.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace adets::transport {

using common::Duration;
using common::NodeId;
using common::TimePoint;

SimNetwork::SimNetwork(LinkConfig default_link, std::uint64_t seed)
    : default_link_(default_link), rng_(seed) {}

SimNetwork::~SimNetwork() { stop(); }

NodeId SimNetwork::create_node() {
  const common::MutexLock guard(mutex_);
  const auto id = NodeId(static_cast<NodeId::rep_type>(nodes_.size()));
  heaps_.emplace_back();
  deadlines_.push_back(TimePoint::max());
  handlers_.emplace_back();
  in_handler_.push_back(false);
  auto node = std::make_unique<Node>();
  Node* raw = node.get();
  node->thread = std::thread([this, id, raw] { node_loop(id, *raw); });
  nodes_.push_back(std::move(node));
  return id;
}

void SimNetwork::set_handler(NodeId node, Handler on_message, DeadlineHandler on_deadline) {
  common::MutexLock lock(mutex_);
  handlers_.at(node.value()) = Handlers{std::move(on_message), std::move(on_deadline)};
  deadlines_[node.value()] = TimePoint::max();
  if (nodes_[node.value()]->thread.get_id() == std::this_thread::get_id()) return;
  while (in_handler_[node.value()]) handler_left_.wait(lock);
}

void SimNetwork::wake_at(NodeId node, TimePoint at) {
  common::MutexLock lock(mutex_);
  if (node.value() >= nodes_.size() || at >= deadlines_[node.value()]) return;
  deadlines_[node.value()] = at;
  const std::vector<Pending>& heap = heaps_[node.value()];
  if (!heap.empty() && heap.front().due <= at) return;
  Node& to = *nodes_[node.value()];
  lock.unlock();
  to.cv.notify_one();
}

bool SimNetwork::send(NodeId src, NodeId dst, common::SharedBytes payload) {
  const auto now = common::Clock::now();
  common::MutexLock lock(mutex_);
  if (stopping_) return false;
  if (src.value() >= nodes_.size() || dst.value() >= nodes_.size()) return false;
  stats_.messages_sent++;
  stats_.bytes_sent += payload.size();
  if (nodes_[src.value()]->crashed.load() || nodes_[dst.value()]->crashed.load()) {
    stats_.messages_dropped++;
    return false;
  }
  LinkConfig link = link_for(src, dst);
  if (src == dst) {
    // Loopback crosses no link; faults below still apply.
    link.base_latency = Duration::zero();
    link.jitter = Duration::zero();
  }
  if (link.drop_probability > 0.0 &&
      rng_.uniform_real(0.0, 1.0) < link.drop_probability) {
    stats_.messages_dropped++;
    return false;
  }

  // Fault layer: one reproducible verdict per (link, message index).
  const auto key = std::make_pair(src.value(), dst.value());
  FaultDecision fault;
  if (fault_plan_armed_) {
    fault = decide_fault(fault_plan_, src, dst, fault_counters_[key]++);
    fault_trace_[key].push_back(fault);
    if (fault.dropped) {
      stats_.messages_dropped++;
      return false;
    }
  }

  Duration latency = common::Clock::scaled(link.base_latency);
  if (link.jitter.count() > 0) {
    const auto jitter_ns = common::Clock::scaled(link.jitter).count();
    latency += Duration(static_cast<Duration::rep>(
        rng_.uniform(0, static_cast<std::uint64_t>(jitter_ns))));
  }
  if (fault.extra_delay_ns > 0) {
    latency += common::Clock::scaled(Duration(fault.extra_delay_ns));
    stats_.messages_fault_delayed++;
  }
  TimePoint due = now + latency;
  if (fault.reordered) {
    // Bounded reordering: hold the message back far enough for up to
    // reorder_span in-window successors to overtake, exempt it from the
    // FIFO clamp, and leave the FIFO horizon untouched so successors are
    // not dragged behind it.
    const auto span = fault_plan_.default_faults.reorder_span;
    due += common::Clock::scaled((link.base_latency + link.jitter) * span);
    stats_.messages_reordered++;
  } else {
    // Preserve FIFO per directed link even when jitter would reorder.
    auto it = last_scheduled_.find(key);
    if (it != last_scheduled_.end() && due < it->second) due = it->second;
    last_scheduled_[key] = due;
  }

  Node& to = *nodes_[dst.value()];
  bool earliest = false;
  if (fault.duplicated) {
    // The trailing copy is delivered one base latency later and does not
    // advance the FIFO horizon (a late duplicate, as on a retransmitting
    // real network); dedup is the upper layers' job.  The duplicate
    // aliases the original's buffer.
    stats_.messages_duplicated++;
    earliest = push(dst, Pending{due + common::Clock::scaled(link.base_latency),
                                 next_seq_++, Message{src, dst, payload}, std::nullopt});
  }
  earliest |= push(
      dst, Pending{due, next_seq_++, Message{src, dst, std::move(payload)}, std::nullopt});
  lock.unlock();
  // A node thread sleeps until its earliest entry is due, so only a new
  // earliest entry needs to wake it.
  if (earliest) to.cv.notify_one();
  return true;
}

bool SimNetwork::push(NodeId dst, Pending item) {
  std::vector<Pending>& heap = heaps_[dst.value()];
  const std::uint64_t seq = item.seq;
  heap.push_back(std::move(item));
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  return heap.front().seq == seq;
}

void SimNetwork::set_link(NodeId src, NodeId dst, LinkConfig config) {
  const common::MutexLock guard(mutex_);
  links_[{src.value(), dst.value()}] = config;
}

void SimNetwork::crash(NodeId node) {
  const common::MutexLock guard(mutex_);
  apply_node_event(NodeEvent{common::Duration::zero(), node, NodeEvent::Kind::kCrash});
}

void SimNetwork::apply_node_event(const NodeEvent& event) {
  if (event.node.value() >= nodes_.size()) return;
  Node& node = *nodes_[event.node.value()];
  if (event.kind == NodeEvent::Kind::kCrash) {
    if (node.crashed.exchange(true)) return;
    stats_.node_crashes++;
    ADETS_LOG_INFO("net") << "node " << event.node << " crashed";
  } else {
    if (!node.crashed.exchange(false)) return;
    stats_.node_restarts++;
    ADETS_LOG_INFO("net") << "node " << event.node << " restarted";
  }
}

void SimNetwork::set_fault_plan(FaultPlan plan) {
  const auto now = common::Clock::now();
  const common::MutexLock guard(mutex_);
  if (stopping_) return;
  fault_plan_ = std::move(plan);
  fault_plan_armed_ = true;
  fault_counters_.clear();
  fault_trace_.clear();
  // Each event fires on the thread of the node it names.
  for (const auto& event : fault_plan_.node_events) {
    if (event.node.value() >= nodes_.size()) continue;
    if (push(event.node,
             Pending{now + common::Clock::scaled(event.at), next_seq_++, Message{}, event})) {
      nodes_[event.node.value()]->cv.notify_one();
    }
    pending_node_events_++;
  }
}

FaultTrace SimNetwork::fault_trace() const {
  const common::MutexLock guard(mutex_);
  return fault_trace_;
}

std::size_t SimNetwork::pending_node_events() const {
  const common::MutexLock guard(mutex_);
  return pending_node_events_;
}

bool SimNetwork::crashed(NodeId node) const {
  const common::MutexLock guard(mutex_);
  return node.value() < nodes_.size() && nodes_[node.value()]->crashed.load();
}

NetworkStats SimNetwork::stats() const {
  const common::MutexLock guard(mutex_);
  return stats_;
}

void SimNetwork::stop() {
  std::vector<Node*> nodes;
  {
    const common::MutexLock guard(mutex_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& n : nodes_) nodes.push_back(n.get());
  }
  for (Node* n : nodes) n->cv.notify_all();
  for (Node* n : nodes) {
    if (n->thread.joinable()) n->thread.join();
  }
}

LinkConfig SimNetwork::link_for(NodeId src, NodeId dst) const {
  const auto it = links_.find({src.value(), dst.value()});
  return it == links_.end() ? default_link_ : it->second;
}

template <typename Call>
void SimNetwork::run_handler(NodeId id, common::MutexLock& lock, Call&& call) {
  in_handler_[id.value()] = true;
  lock.unlock();
  // `call` drops its handler copy before returning, so whatever the
  // handler captured is released outside mutex_.
  call();
  lock.lock();
  in_handler_[id.value()] = false;
  handler_left_.notify_all();
}

void SimNetwork::node_loop(NodeId id, Node& node) {
  common::MutexLock lock(mutex_);
  // Plain (predicate-free) waits: the enclosing loop re-evaluates the
  // full condition after every wakeup, and keeping guarded members out
  // of wait predicates is what lets clang's thread-safety analysis see
  // this function whole (lambda bodies are analyzed separately).
  while (!stopping_) {
    // Looked up on every pass: create_node may grow heaps_ meanwhile.
    std::vector<Pending>& heap = heaps_[id.value()];
    const TimePoint deadline = deadlines_[id.value()];
    const TimePoint due = heap.empty() ? deadline : std::min(deadline, heap.front().due);
    if (due == TimePoint::max()) {
      node.cv.wait(lock);
      continue;
    }
    if (due > common::Clock::now()) {
      node.cv.wait_until(lock, due);
      continue;
    }
    if (due == deadline) {
      // Timed duties run on a crashed node too, as they would on a
      // machine cut off from the network; its sends are dropped.
      deadlines_[id.value()] = TimePoint::max();
      DeadlineHandler on_deadline = handlers_[id.value()].on_deadline;
      if (!on_deadline) continue;
      TimePoint next = TimePoint::max();
      run_handler(id, lock, [&] {
        next = on_deadline();
        on_deadline = nullptr;
      });
      // wake_at may have lowered the deadline while the handler ran.
      deadlines_[id.value()] = std::min(deadlines_[id.value()], next);
      continue;
    }
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    Pending item = std::move(heap.back());
    heap.pop_back();
    if (item.node_event) {
      pending_node_events_--;
      apply_node_event(*item.node_event);
      continue;
    }
    if (node.crashed.load()) {
      stats_.messages_dropped++;
      continue;
    }
    stats_.messages_delivered++;
    // A copy: the handler may replace itself, and create_node may grow
    // handlers_, while it runs.
    Handler on_message = handlers_[id.value()].on_message;
    if (!on_message) continue;
    run_handler(id, lock, [&] {
      on_message(std::move(item.message));
      on_message = nullptr;
    });
  }
}

}  // namespace adets::transport
