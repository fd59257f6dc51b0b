// In-process test harness for scheduler implementations.
//
// Drives N replica instances of one scheduler kind through an emulated
// total-order event bus (requests, nested replies, scheduler broadcasts
// are delivered to every replica in the same global order, mirroring
// what the GCS provides in the full runtime).  Request bodies are C++
// lambdas registered per request id; they receive a context with the
// synchronisation API and an append-only per-replica trace used to
// compare state-access orders across replicas.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "blocking_queue.hpp"
#include "common/clock.hpp"
#include "common/types.hpp"
#include "sched/api.hpp"

namespace adets::testing {

class SchedulerCluster;

/// What a request body sees: the replica's scheduler plus tracing helpers.
class BodyCtx {
 public:
  BodyCtx(SchedulerCluster& cluster, int replica, sched::Scheduler& scheduler,
          const sched::Request& request)
      : cluster_(cluster), replica_(replica), scheduler_(scheduler), request_(request) {}

  void lock(std::uint64_t m) { scheduler_.lock(common::MutexId(m)); }
  void unlock(std::uint64_t m) { scheduler_.unlock(common::MutexId(m)); }
  bool wait(std::uint64_t m, std::uint64_t cv) {
    return scheduler_.wait(common::MutexId(m), common::CondVarId(cv), common::Duration::zero()).notified;
  }
  bool wait_for(std::uint64_t m, std::uint64_t cv, common::Duration paper_timeout) {
    return scheduler_.wait(common::MutexId(m), common::CondVarId(cv), paper_timeout).notified;
  }
  void notify_one(std::uint64_t m, std::uint64_t cv) {
    scheduler_.notify_one(common::MutexId(m), common::CondVarId(cv));
  }
  void notify_all(std::uint64_t m, std::uint64_t cv) {
    scheduler_.notify_all(common::MutexId(m), common::CondVarId(cv));
  }
  void yield() { scheduler_.yield(); }

  /// Simulated computation: sleeps real time (already tiny in tests).
  void compute(common::Duration real_time) { common::Clock::sleep_real(real_time); }

  /// Synchronous nested invocation; the reply is delivered by the test
  /// driver (or automatically if auto_reply is enabled on the cluster).
  void nested_call(std::uint64_t nested_id);

  /// Appends to the replica's state trace (call only under a lock when
  /// simulating shared-state access).
  void trace(const std::string& entry);

  [[nodiscard]] int replica() const { return replica_; }
  [[nodiscard]] const sched::Request& request() const { return request_; }

 private:
  SchedulerCluster& cluster_;
  int replica_;
  sched::Scheduler& scheduler_;
  sched::Request request_;
};

using Body = std::function<void(BodyCtx&)>;

/// N replicas of one scheduler kind joined by an emulated total order.
class SchedulerCluster {
 public:
  SchedulerCluster(sched::SchedulerKind kind, int replicas,
                   sched::SchedulerConfig config = {})
      : kind_(kind) {
    for (int i = 0; i < replicas; ++i) {
      members_.emplace_back(static_cast<std::uint32_t>(i));
    }
    for (int i = 0; i < replicas; ++i) {
      auto scheduler = sched::make_scheduler(kind, config);
      auto env = std::make_unique<Env>(*this, i, *scheduler);
      scheduler->set_trace(true);  // tests compare whole runs
      scheduler->start(*env);
      envs_.push_back(std::move(env));
      schedulers_.push_back(std::move(scheduler));
      traces_.push_back(std::make_unique<TraceLog>());
    }
    bus_thread_ = std::thread([this] { bus_loop(); });
  }

  ~SchedulerCluster() { stop(); }

  void stop() {
    std::vector<std::thread> reply_threads;
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      if (stopped_) return;
      stopped_ = true;
      reply_threads.swap(auto_reply_threads_);
    }
    for (auto& t : reply_threads) {
      if (t.joinable()) t.join();
    }
    bus_.close();
    if (bus_thread_.joinable()) bus_thread_.join();
    for (auto& s : schedulers_) s->stop();
  }

  /// Registers the body executed (on every replica) for `request_id`.
  void set_body(std::uint64_t request_id, Body body) {
    const std::lock_guard<std::mutex> guard(mutex_);
    bodies_[request_id] = std::move(body);
  }

  /// Per-replica artificial delay before each body runs — perturbs the
  /// physical interleaving without touching logical behaviour.
  void set_perturbation(std::function<void(int replica, std::uint64_t request)> fn) {
    const std::lock_guard<std::mutex> guard(mutex_);
    perturbation_ = std::move(fn);
  }

  /// When enabled, nested_call() replies are auto-delivered after `delay`.
  void set_auto_reply(common::Duration delay) {
    const std::lock_guard<std::mutex> guard(mutex_);
    auto_reply_ = true;
    auto_reply_delay_ = delay;
  }

  /// Submits a request, on its own logical thread, into the emulated
  /// total order.
  void submit(std::uint64_t request_id) {
    sched::Request request;
    request.kind = sched::RequestKind::kApplication;
    request.id = common::RequestId(request_id);
    request.logical = common::LogicalThreadId(request_id);
    bus_.push(RequestEvent{request});
  }

  /// Submits a callback: a request of `logical_id` that the nested call
  /// `callback_of` (made by a thread of that logical thread) led back
  /// into this group.
  void submit_callback(std::uint64_t request_id, std::uint64_t logical_id,
                       std::uint64_t callback_of) {
    sched::Request request;
    request.kind = sched::RequestKind::kApplication;
    request.id = common::RequestId(request_id);
    request.logical = common::LogicalThreadId(logical_id);
    request.callback_of = common::RequestId(callback_of);
    bus_.push(RequestEvent{request});
  }

  /// When enabled, scheduler broadcasts reach the total order in swapped
  /// pairs (the second of two is delivered first), as a reordering
  /// network can make happen.  A trailing unpaired one stays held.
  void set_swap_broadcasts(bool enabled) {
    const std::lock_guard<std::mutex> guard(mutex_);
    swap_broadcasts_ = enabled;
  }

  /// Delivers the reply of a nested invocation to all replicas.
  void deliver_reply(std::uint64_t nested_id) { bus_.push(ReplyEvent{nested_id}); }

  /// Blocks until every replica completed `count` application requests.
  [[nodiscard]] bool wait_completed(std::uint64_t count,
                                    std::chrono::milliseconds timeout =
                                        std::chrono::seconds(30)) {
    const auto deadline = common::Clock::now() + timeout;
    for (auto& s : schedulers_) {
      while (s->completed_requests() < count) {
        if (common::Clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return true;
  }

  [[nodiscard]] sched::Scheduler& replica(int i) { return *schedulers_[i]; }
  [[nodiscard]] int size() const { return static_cast<int>(schedulers_.size()); }

  [[nodiscard]] std::vector<std::string> trace(int replica) const {
    const std::lock_guard<std::mutex> guard(traces_[replica]->mutex);
    return traces_[replica]->entries;
  }

  void append_trace(int replica, const std::string& entry) {
    const std::lock_guard<std::mutex> guard(traces_[replica]->mutex);
    traces_[replica]->entries.push_back(entry);
  }

  void broadcast_from(int replica, const common::Bytes& payload) {
    const std::lock_guard<std::mutex> guard(mutex_);
    SchedMsgEvent event{members_[replica], payload};
    if (!swap_broadcasts_) {
      bus_.push(std::move(event));
    } else if (!held_broadcast_) {
      held_broadcast_ = std::move(event);
    } else {
      bus_.push(std::move(event));
      bus_.push(std::move(*held_broadcast_));
      held_broadcast_.reset();
    }
  }

  void run_body(int replica, const sched::Request& request) {
    Body body;
    std::function<void(int, std::uint64_t)> perturbation;
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      const auto it = bodies_.find(request.id.value());
      if (it != bodies_.end()) body = it->second;
      perturbation = perturbation_;
    }
    if (perturbation) perturbation(replica, request.id.value());
    if (body) {
      BodyCtx ctx(*this, replica, *schedulers_[replica], request);
      body(ctx);
    }
  }

  void on_nested_started(std::uint64_t nested_id) {
    const std::lock_guard<std::mutex> guard(mutex_);
    if (!auto_reply_ || stopped_) return;
    if (!pending_auto_replies_.insert(nested_id).second) return;
    const common::Duration delay = auto_reply_delay_;
    // Joined in stop(), so a straggler can't outlive the bus.
    auto_reply_threads_.emplace_back([this, nested_id, delay] {
      common::Clock::sleep_real(delay);
      deliver_reply(nested_id);
    });
  }

  [[nodiscard]] std::vector<common::NodeId> members() const { return members_; }

 private:
  struct RequestEvent {
    sched::Request request;
  };
  struct ReplyEvent {
    std::uint64_t nested_id;
  };
  struct SchedMsgEvent {
    common::NodeId sender;
    common::Bytes payload;
  };
  using Event = std::variant<RequestEvent, ReplyEvent, SchedMsgEvent>;

  struct TraceLog {
    mutable std::mutex mutex;
    std::vector<std::string> entries;
  };

  class Env : public sched::SchedulerEnv {
   public:
    Env(SchedulerCluster& cluster, int replica, sched::Scheduler&)
        : cluster_(cluster), replica_(replica) {}
    void execute(const sched::Request& request) override {
      cluster_.run_body(replica_, request);
    }
    void broadcast(const common::Bytes& payload) override {
      cluster_.broadcast_from(replica_, payload);
    }
    [[nodiscard]] common::NodeId self() const override {
      return common::NodeId(static_cast<std::uint32_t>(replica_));
    }
    [[nodiscard]] std::vector<common::NodeId> view_members() const override {
      return cluster_.members();
    }

   private:
    SchedulerCluster& cluster_;
    int replica_;
  };

  void bus_loop() {
    while (auto event = bus_.pop()) {
      if (auto* req = std::get_if<RequestEvent>(&*event)) {
        for (auto& s : schedulers_) s->on_request(req->request);
      } else if (auto* reply = std::get_if<ReplyEvent>(&*event)) {
        for (auto& s : schedulers_) s->on_reply(common::RequestId(reply->nested_id));
      } else if (auto* msg = std::get_if<SchedMsgEvent>(&*event)) {
        for (auto& s : schedulers_) s->on_scheduler_message(msg->sender, msg->payload);
      }
    }
  }

  sched::SchedulerKind kind_;
  std::vector<common::NodeId> members_;
  std::vector<std::unique_ptr<Env>> envs_;
  std::vector<std::unique_ptr<sched::Scheduler>> schedulers_;
  std::vector<std::unique_ptr<TraceLog>> traces_;
  BlockingQueue<Event> bus_;
  std::thread bus_thread_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Body> bodies_;
  std::function<void(int, std::uint64_t)> perturbation_;
  bool auto_reply_ = false;
  common::Duration auto_reply_delay_ = common::Duration::zero();
  std::set<std::uint64_t> pending_auto_replies_;
  std::vector<std::thread> auto_reply_threads_;
  bool swap_broadcasts_ = false;
  std::optional<SchedMsgEvent> held_broadcast_;
  bool stopped_ = false;
};

inline void BodyCtx::nested_call(std::uint64_t nested_id) {
  scheduler_.before_nested_call(common::RequestId(nested_id));
  cluster_.on_nested_started(nested_id);
  scheduler_.after_nested_call(common::RequestId(nested_id));
}

inline void BodyCtx::trace(const std::string& entry) {
  cluster_.append_trace(replica_, entry);
}

}  // namespace adets::testing
