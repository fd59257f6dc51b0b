// A deliberately NONDETERMINISTIC scheduler: the negative control of
// the cross-replica consistency check (repl::check_group).
//
// RacyScheduler violates the ADETS determinism contract on purpose: it
// runs every delivered request on its own OS thread immediately, grants
// locks in real-time arrival order (plain mutexes), and staggers request
// execution by a pseudo-random delay derived from the REPLICA'S OWN node
// id — exactly the "replica-local information must never influence
// scheduling" rule every real strategy obeys.  Replicas therefore
// interleave concurrent requests differently, and check_group, run after
// the drain, must catch the drift with a decision-trace diff.
// Never ship this; it exists so tests can prove the check works.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "sched/api.hpp"

namespace adets::testing {

class RacyScheduler : public sched::Scheduler {
 public:
  ~RacyScheduler() override { stop(); }

  [[nodiscard]] sched::SchedulerKind kind() const override {
    return sched::SchedulerKind::kMat;  // closest model; label only
  }
  [[nodiscard]] sched::SchedulerCapabilities capabilities() const override {
    sched::SchedulerCapabilities caps;
    caps.multithreading = "MA (racy)";
    caps.reentrant_locks = true;
    caps.condition_variables = true;
    caps.timed_wait = true;
    caps.true_multithreading = true;
    return caps;
  }

  void start(sched::SchedulerEnv& env) override { env_ = &env; }

  void stop() override {
    std::vector<std::thread> workers;
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      if (stopping_) return;
      stopping_ = true;
      workers.swap(workers_);
    }
    cv_.notify_all();
    for (auto& worker : workers) {
      if (worker.joinable()) worker.join();
    }
  }

  void on_request(sched::Request request) override {
    const std::lock_guard<std::mutex> guard(mutex_);
    if (stopping_ || request.kind != sched::RequestKind::kApplication) return;
    workers_.emplace_back([this, request = std::move(request)] {
      // The determinism violation: a replica-local stagger, so each
      // replica resolves the real-time lock races below differently.
      std::uint64_t state = env_->self().value() * 0x9e3779b97f4a7c15ULL ^
                            request.id.value();
      common::Clock::sleep_real(
          std::chrono::milliseconds(common::splitmix64(state) % 20));
      current_request() = request.id.value();
      env_->execute(request);
      completed_.fetch_add(1, std::memory_order_release);
    });
  }

  void on_reply(common::RequestId nested_id) override {
    const std::lock_guard<std::mutex> guard(mutex_);
    replies_.insert({nested_id.value(), true});
    cv_.notify_all();
  }
  void on_scheduler_message(common::NodeId, const common::Bytes&) override {}
  void on_view_change(const std::vector<common::NodeId>&) override {}

  void lock(common::MutexId mutex) override {
    app_mutex(mutex).lock();  // real-time arrival order: the violation
    const std::lock_guard<std::mutex> guard(mutex_);
    std::uint64_t ordinal = 0;  // earlier grants of `mutex`: every decision is a grant
    for (const sched::Decision& d : decisions_) ordinal += d.mutex == mutex ? 1 : 0;
    decisions_.push_back(sched::Decision{sched::Decision::Kind::kLockGrant, decision_seq_++,
        mutex, common::CondVarId::invalid(), common::ThreadId(current_request()), 0, ordinal});
  }
  void unlock(common::MutexId mutex) override { app_mutex(mutex).unlock(); }

  sched::WaitResult wait(common::MutexId mutex, common::CondVarId condvar,
                         common::Duration timeout) override {
    auto& cv = app_condvar(condvar);
    auto& m = app_mutex(mutex);
    if (timeout.count() > 0) {
      const auto status = cv.wait_for(m, common::Clock::scaled(timeout));
      return sched::WaitResult{status == std::cv_status::no_timeout};
    }
    cv.wait(m);
    return sched::WaitResult{true};
  }

  void notify_one(common::MutexId, common::CondVarId condvar) override {
    app_condvar(condvar).notify_one();
  }
  void notify_all(common::MutexId, common::CondVarId condvar) override {
    app_condvar(condvar).notify_all();
  }

  void before_nested_call(common::RequestId) override {}
  void after_nested_call(common::RequestId nested_id) override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(30), [this, nested_id] {
      return stopping_ || replies_.count(nested_id.value()) > 0;
    });
  }

  void set_trace(bool) override {}  // keeps every decision anyway
  [[nodiscard]] std::vector<sched::Decision> decision_trace() const override {
    const std::lock_guard<std::mutex> guard(mutex_);
    return decisions_;
  }
  [[nodiscard]] std::uint64_t completed_requests() const override {
    return completed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] sched::SchedulerStats stats() const override { return {}; }

 private:
  static std::uint64_t& current_request() {
    static thread_local std::uint64_t id = 0;
    return id;
  }

  std::recursive_mutex& app_mutex(common::MutexId id) {
    const std::lock_guard<std::mutex> guard(mutex_);
    auto& slot = app_mutexes_[id.value()];
    if (!slot) slot = std::make_unique<std::recursive_mutex>();
    return *slot;
  }
  std::condition_variable_any& app_condvar(common::CondVarId id) {
    const std::lock_guard<std::mutex> guard(mutex_);
    auto& slot = app_condvars_[id.value()];
    if (!slot) slot = std::make_unique<std::condition_variable_any>();
    return *slot;
  }

  sched::SchedulerEnv* env_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::map<std::uint64_t, std::unique_ptr<std::recursive_mutex>> app_mutexes_;
  std::map<std::uint64_t, std::unique_ptr<std::condition_variable_any>> app_condvars_;
  std::map<std::uint64_t, bool> replies_;
  std::vector<sched::Decision> decisions_;
  std::uint64_t decision_seq_ = 0;
  std::atomic<std::uint64_t> completed_{0};
};

}  // namespace adets::testing
