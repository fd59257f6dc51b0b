// Test watchdog.
//
// A deterministic-scheduler bug typically manifests as a replica-wide
// stall (a thread waiting for a grant that never comes).  Under ctest
// that would be a silent hang; the watchdog converts it into a loud abort
// with a message, so the failing test is attributable.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "common/annotations.hpp"

namespace adets::testing {

class Watchdog {
 public:
  /// Aborts the process with `label` if not disarmed within `limit`.
  Watchdog(std::string label, std::chrono::milliseconds limit)
      : label_(std::move(label)), thread_([this, limit] { run(limit); }) {}

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run(std::chrono::milliseconds limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, limit, [this] { return disarmed_; })) {
      std::fprintf(stderr, "WATCHDOG EXPIRED: %s (deadlock or stall)\n", label_.c_str());
      std::fflush(stderr);
      std::abort();
    }
  }

  // label_ is written once in the constructor before the watchdog
  // thread starts; the mutex only protects the disarm flag.
  const std::string label_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ ADETS_GUARDED_BY_STATIC(mutex_) = false;
  std::thread thread_;
};

}  // namespace adets::testing
