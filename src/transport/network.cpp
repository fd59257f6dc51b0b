#include "transport/network.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace adets::transport {

using common::Duration;
using common::NodeId;
using common::TimePoint;

namespace {

/// The network whose loop this thread runs, if any.
thread_local const SimNetwork* tls_network = nullptr;

}  // namespace

SimNetwork::SimNetwork(LinkConfig default_link, std::uint64_t seed)
    : default_link_(default_link), rng_(seed), thread_([this] { loop(); }) {}

SimNetwork::~SimNetwork() { stop(); }

NodeId SimNetwork::create_node() {
  const common::MutexLock guard(mutex_);
  nodes_.emplace_back();
  return NodeId(static_cast<NodeId::rep_type>(nodes_.size() - 1));
}

void SimNetwork::set_handler(NodeId node, Handler on_message, DeadlineHandler on_deadline) {
  common::MutexLock lock(mutex_);
  Node& n = nodes_.at(node.value());
  n.on_message = std::move(on_message);
  n.on_deadline = std::move(on_deadline);
  n.deadline = TimePoint::max();
  if (tls_network == this) return;
  while (running_ == node) handler_left_.wait(lock);
}

bool SimNetwork::wakes_loop(TimePoint due) {
  if (due >= sleep_until_) return false;
  sleep_until_ = TimePoint::min();
  return true;
}

void SimNetwork::wake_at(NodeId node, TimePoint at) {
  common::MutexLock lock(mutex_);
  if (node.value() >= nodes_.size() || at >= nodes_[node.value()].deadline) return;
  nodes_[node.value()].deadline = at;
  const bool wake = wakes_loop(at);
  lock.unlock();
  if (wake) wake_.notify_one();
}

bool SimNetwork::send(NodeId src, NodeId dst, common::SharedBytes payload) {
  const auto now = common::Clock::now();
  common::MutexLock lock(mutex_);
  if (stopping_) return false;
  if (src.value() >= nodes_.size() || dst.value() >= nodes_.size()) return false;
  stats_.messages_sent++;
  stats_.bytes_sent += payload.size();
  if (nodes_[src.value()].crashed || nodes_[dst.value()].crashed) {
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

  if (fault.duplicated) {
    // The trailing copy is delivered one base latency later and does not
    // advance the FIFO horizon (a late duplicate, as on a retransmitting
    // real network); dedup is the upper layers' job.  The duplicate
    // aliases the original's buffer.
    stats_.messages_duplicated++;
    push(Pending{due + common::Clock::scaled(link.base_latency), next_seq_++,
                 Message{src, dst, payload}, std::nullopt});
  }
  push(Pending{due, next_seq_++, Message{src, dst, std::move(payload)}, std::nullopt});
  const bool wake = wakes_loop(due);
  lock.unlock();
  if (wake) wake_.notify_one();
  return true;
}

void SimNetwork::push(Pending item) {
  heap_.push_back(std::move(item));
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
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
  const bool crash = event.kind == NodeEvent::Kind::kCrash;
  if (std::exchange(nodes_[event.node.value()].crashed, crash) == crash) return;
  (crash ? stats_.node_crashes : stats_.node_restarts)++;
  ADETS_LOG_INFO("net") << "node " << event.node << (crash ? " crashed" : " restarted");
}

void SimNetwork::set_fault_plan(FaultPlan plan) {
  const auto now = common::Clock::now();
  common::MutexLock lock(mutex_);
  if (stopping_) return;
  fault_plan_ = std::move(plan);
  fault_plan_armed_ = true;
  fault_counters_.clear();
  fault_trace_.clear();
  // Each event fires on the network thread, in (due, seq) order with
  // the messages.
  TimePoint earliest = TimePoint::max();
  for (const auto& event : fault_plan_.node_events) {
    if (event.node.value() >= nodes_.size()) continue;
    const TimePoint due = now + common::Clock::scaled(event.at);
    push(Pending{due, next_seq_++, Message{}, event});
    earliest = std::min(earliest, due);
    pending_node_events_++;
  }
  const bool wake = wakes_loop(earliest);
  lock.unlock();
  if (wake) wake_.notify_one();
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
  return node.value() < nodes_.size() && nodes_[node.value()].crashed;
}

NetworkStats SimNetwork::stats() const {
  const common::MutexLock guard(mutex_);
  return stats_;
}

void SimNetwork::stop() {
  {
    const common::MutexLock guard(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_.notify_one();
  thread_.join();
}

LinkConfig SimNetwork::link_for(NodeId src, NodeId dst) const {
  const auto it = links_.find({src.value(), dst.value()});
  return it == links_.end() ? default_link_ : it->second;
}

template <typename Call>
void SimNetwork::run_handler(NodeId id, common::MutexLock& lock, Call&& call) {
  running_ = id;
  lock.unlock();
  // `call` drops its handler copy before returning, so whatever the
  // handler captured is released outside mutex_.
  call();
  lock.lock();
  running_.reset();
  handler_left_.notify_all();
}

void SimNetwork::loop() {
  tls_network = this;
  common::MutexLock lock(mutex_);
  // Plain waits: guarded members kept out of wait predicates (lambdas)
  // let clang's thread-safety analysis see this function whole.
  while (!stopping_) {
    // The earliest deadline, the lowest node id on a tie; it runs before
    // a message due at the same instant.
    std::size_t node = 0;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].deadline < nodes_[node].deadline) node = i;
    }
    const TimePoint deadline = nodes_.empty() ? TimePoint::max() : nodes_[node].deadline;
    const TimePoint due = heap_.empty() ? deadline : std::min(deadline, heap_.front().due);
    if (due == TimePoint::max() || due > common::Clock::now()) {
      sleep_until_ = due;  // an earlier entry wakes the thread (wakes_loop)
      if (due == TimePoint::max()) {
        wake_.wait(lock);
      } else {
        wake_.wait_until(lock, due);
      }
      sleep_until_ = TimePoint::min();
      continue;
    }
    if (due == deadline) {
      // Timed duties run on a crashed node too, as they would on a
      // machine cut off from the network; its sends are dropped.
      nodes_[node].deadline = TimePoint::max();
      DeadlineHandler on_deadline = nodes_[node].on_deadline;
      if (!on_deadline) continue;
      TimePoint next = TimePoint::max();
      run_handler(NodeId(static_cast<NodeId::rep_type>(node)), lock, [&] {
        next = on_deadline();
        on_deadline = nullptr;
      });
      // wake_at may have lowered the deadline while the handler ran.
      nodes_[node].deadline = std::min(nodes_[node].deadline, next);
      continue;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Pending item = std::move(heap_.back());
    heap_.pop_back();
    if (item.node_event) {
      pending_node_events_--;
      apply_node_event(*item.node_event);
      continue;
    }
    const NodeId dst = item.message.dst;
    if (nodes_[dst.value()].crashed) {
      stats_.messages_dropped++;
      continue;
    }
    stats_.messages_delivered++;
    // A copy: the handler may replace itself, and create_node may grow
    // nodes_, while it runs.
    Handler on_message = nodes_[dst.value()].on_message;
    if (!on_message) continue;
    run_handler(dst, lock, [&] {
      on_message(std::move(item.message));
      on_message = nullptr;
    });
  }
}

}  // namespace adets::transport
