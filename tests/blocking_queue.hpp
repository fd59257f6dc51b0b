// Unbounded MPMC blocking queue with shutdown support: the event bus of
// the scheduler test harness (sched_harness.hpp).
// pop() blocks with a predicate (CP.42) and returns nullopt once the
// queue is closed and drained, letting consumer threads exit cleanly.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/annotations.hpp"

namespace adets::testing {

template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueues an item; returns false if the queue has been closed.
  bool push(T item) {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed+drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Marks the queue closed; pending pops drain remaining items then
  /// return nullopt.  Further pushes are rejected.
  void close() {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> guard(mutex_);
    return items_.size();
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  // Raw std::mutex: the scheduler test harness is not middleware the
  // lock-order validator or adets-mc observe, so the guard facts are
  // declared for adets-sa only.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_ ADETS_GUARDED_BY_STATIC(mutex_);
  bool closed_ ADETS_GUARDED_BY_STATIC(mutex_) = false;
};

}  // namespace adets::testing
