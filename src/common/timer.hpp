// One-shot timer service.
//
// Schedulers use local timers for time-bounded wait() operations: the
// timer fires locally and the scheduler converts the expiry into a
// deterministic, totally-ordered event (a timeout broadcast or an
// ADETS-LSA timeout thread).  Callbacks run on the timer thread and must
// be short.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/mc_hooks.hpp"

namespace adets::common {

class TimerService {
 public:
  TimerService() : worker_([this] { run(); }) {}
  ~TimerService() { stop(); }

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  /// Schedules `fn` to run once after `delay` (real time).  Under a
  /// model-checking run the expiry is virtualised: the checker owns when
  /// (and whether) `fn` fires, so the clock never gates exploration (see
  /// docs/model-checking.md).
  void schedule(Duration delay, std::function<void()> fn) {
    if (auto* mc = mchook::active()) {
      if (mc->timer_schedule(&fn)) return;
    }
    const std::lock_guard<std::mutex> guard(mutex_);
    // Timer deadlines are wall-clock by design; expiry re-enters
    // scheduling through the total order, so this clock read cannot
    // steer a grant decision.
    // adets-sa:allow(grant-path-taint) deadline arithmetic, not a decision input
    timers_.emplace(Key{Clock::now() + delay, next_id_++}, std::move(fn));
    cv_.notify_all();
  }

  void stop() {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

 private:
  struct Key {
    TimePoint due;
    std::uint64_t id;  // creation order: ties fire first-scheduled first
    friend bool operator<(const Key& a, const Key& b) {
      return a.due != b.due ? a.due < b.due : a.id < b.id;
    }
  };

  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      if (timers_.empty()) {
        cv_.wait(lock, [this] { return stopping_ || !timers_.empty(); });
        continue;
      }
      const TimePoint due = timers_.begin()->first.due;
      if (Clock::now() < due) {
        cv_.wait_until(lock, due);
        continue;
      }
      auto fn = std::move(timers_.begin()->second);
      timers_.erase(timers_.begin());
      lock.unlock();
      fn();
      lock.lock();
    }
  }

  // Raw std::mutex: adets-mc virtualises the timer (schedule() above)
  // instead of modelling its lock, and a common::Mutex would report the
  // lock to the checker; guard facts are for adets-sa only.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<Key, std::function<void()>> timers_ ADETS_GUARDED_BY_STATIC(mutex_);
  std::uint64_t next_id_ ADETS_GUARDED_BY_STATIC(mutex_) = 1;
  bool stopping_ ADETS_GUARDED_BY_STATIC(mutex_) = false;
  std::thread worker_;
};

}  // namespace adets::common
