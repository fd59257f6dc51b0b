#include "transport/network.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/mc_hooks.hpp"

namespace adets::transport {

using common::Duration;
using common::NodeId;
using common::TimePoint;

SimNetwork::SimNetwork(LinkConfig default_link, std::uint64_t seed)
    : default_link_(default_link), rng_(seed) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SimNetwork::~SimNetwork() { stop(); }

NodeId SimNetwork::create_node() {
  const common::MutexLock guard(mutex_);
  const auto id = NodeId(static_cast<NodeId::rep_type>(nodes_.size()));
  auto node = std::make_unique<Node>();
  Node* raw = node.get();
  node->worker = std::thread([this, raw] { node_loop(*raw); });
  nodes_.push_back(std::move(node));
  return id;
}

void SimNetwork::set_handler(NodeId node, Handler handler) {
  Node* n = nullptr;
  {
    const common::MutexLock guard(mutex_);
    n = nodes_.at(node.value()).get();
  }
  const common::MutexLock guard(n->handler_mutex);
  n->handler = std::move(handler);
}

bool SimNetwork::send(NodeId src, NodeId dst, common::SharedBytes payload) {
  const auto now = common::Clock::now();
  const common::MutexLock guard(mutex_);
  if (stopping_) return false;
  if (src.value() >= nodes_.size() || dst.value() >= nodes_.size()) return false;
  stats_.messages_sent++;
  stats_.bytes_sent += payload.size();
  if (nodes_[src.value()]->crashed.load() || nodes_[dst.value()]->crashed.load()) {
    stats_.messages_dropped++;
    return false;
  }
  const LinkConfig link = link_for(src, dst);
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
    const auto span = fault_plan_.faults_for(src, dst).reorder_span;
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
    heap_.push_back(Pending{due + common::Clock::scaled(link.base_latency),
                            next_seq_++, Message{src, dst, payload}, std::nullopt});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  heap_.push_back(
      Pending{due, next_seq_++, Message{src, dst, std::move(payload)}, std::nullopt});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_cv_.notify_one();
  return true;
}

void SimNetwork::set_link(NodeId src, NodeId dst, LinkConfig config) {
  const common::MutexLock guard(mutex_);
  links_[{src.value(), dst.value()}] = config;
}

void SimNetwork::crash(NodeId node) {
  const common::MutexLock guard(mutex_);
  apply_node_event(NodeEvent{common::Duration::zero(), node, NodeEvent::Kind::kCrash});
}

void SimNetwork::restart(NodeId node) {
  const common::MutexLock guard(mutex_);
  apply_node_event(NodeEvent{common::Duration::zero(), node, NodeEvent::Kind::kRestart});
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
  for (const auto& event : fault_plan_.node_events) {
    heap_.push_back(Pending{now + common::Clock::scaled(event.at), next_seq_++,
                            Message{}, event});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    pending_node_events_++;
  }
  heap_cv_.notify_one();
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
  {
    const common::MutexLock guard(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  heap_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Close inboxes after the dispatcher is gone (no more pushes).
  std::vector<Node*> nodes;
  {
    const common::MutexLock guard(mutex_);
    for (auto& n : nodes_) nodes.push_back(n.get());
  }
  for (Node* n : nodes) n->inbox.close();
  for (Node* n : nodes) {
    if (n->worker.joinable()) n->worker.join();
  }
}

LinkConfig SimNetwork::link_for(NodeId src, NodeId dst) const {
  const auto it = links_.find({src.value(), dst.value()});
  return it == links_.end() ? default_link_ : it->second;
}

SimNetwork::Pending SimNetwork::pop_earliest_due() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  Pending item = std::move(heap_.back());
  heap_.pop_back();
  return item;
}

void SimNetwork::dispatcher_loop() {
  common::MutexLock lock(mutex_);
  // Plain (predicate-free) waits: the enclosing loop re-evaluates the
  // full condition after every wakeup, and keeping guarded members out
  // of wait predicates is what lets clang's thread-safety analysis see
  // this function whole (lambda bodies are analyzed separately).
  while (true) {
    if (stopping_) return;
    if (heap_.empty()) {
      heap_cv_.wait(lock);
      continue;
    }
    const TimePoint due = heap_.front().due;
    const auto now = common::Clock::now();
    if (due > now) {
      heap_cv_.wait_until(lock, due);
      continue;
    }
    // Everything due at-or-before `now` is releasable; real latency only
    // sampled one order, so under adets-mc the release order across
    // *distinct* links becomes an exploration point.  Per-link FIFO stays
    // inviolable: only the oldest due message of each (src,dst) link is a
    // candidate, so the choice can never reorder within a link.
    Pending item = [&]() ADETS_REQUIRES(mutex_) {
      auto* mc = mchook::active();
      if (mc == nullptr) return pop_earliest_due();
      std::vector<Pending> released;
      while (!heap_.empty() && heap_.front().due <= now) {
        released.push_back(pop_earliest_due());
      }
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < released.size(); ++i) {
        bool first_on_link = true;
        for (std::size_t j = 0; j < i; ++j) {
          if (!released[i].node_event && !released[j].node_event &&
              released[i].message.src == released[j].message.src &&
              released[i].message.dst == released[j].message.dst) {
            first_on_link = false;
            break;
          }
        }
        if (first_on_link) candidates.push_back(i);
      }
      const std::size_t pick =
          candidates.empty()
              ? 0
              : candidates[mc->delivery_choice(candidates.size()) %
                           candidates.size()];
      Pending chosen = std::move(released[pick]);
      for (std::size_t i = 0; i < released.size(); ++i) {
        if (i == pick) continue;
        heap_.push_back(std::move(released[i]));
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      }
      return chosen;
    }();
    if (item.node_event) {
      pending_node_events_--;
      apply_node_event(*item.node_event);
      continue;
    }
    Node* dst = nodes_[item.message.dst.value()].get();
    if (dst->crashed.load()) {
      stats_.messages_dropped++;
      continue;
    }
    stats_.messages_delivered++;
    dst->inbox.push(std::move(item.message));
  }
}

void SimNetwork::node_loop(Node& node) {
  while (auto message = node.inbox.pop()) {
    if (node.crashed.load()) continue;
    Handler handler;
    {
      const common::MutexLock guard(node.handler_mutex);
      handler = node.handler;
    }
    if (handler) handler(std::move(*message));
  }
}

}  // namespace adets::transport
