// Tests for TimerService and the Watchdog.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "watchdog.hpp"

namespace adets::common {
namespace {

using adets::testing::Watchdog;
using std::chrono::milliseconds;

TEST(TimerServiceTest, FiresAfterDelay) {
  TimerService timers;
  std::atomic<bool> fired{false};
  const auto start = Clock::now();
  timers.schedule(milliseconds(10), [&] { fired.store(true); });
  while (!fired.load() && Clock::now() - start < std::chrono::seconds(2)) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(fired.load());
  EXPECT_GE(Clock::now() - start, milliseconds(9));
}

TEST(TimerServiceTest, FiresInDeadlineOrder) {
  TimerService timers;
  std::mutex mutex;
  std::vector<int> order;
  timers.schedule(milliseconds(30), [&] {
    const std::lock_guard<std::mutex> guard(mutex);
    order.push_back(3);
  });
  timers.schedule(milliseconds(10), [&] {
    const std::lock_guard<std::mutex> guard(mutex);
    order.push_back(1);
  });
  timers.schedule(milliseconds(20), [&] {
    const std::lock_guard<std::mutex> guard(mutex);
    order.push_back(2);
  });
  std::this_thread::sleep_for(milliseconds(80));
  const std::lock_guard<std::mutex> guard(mutex);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerServiceTest, StopDiscardsPendingTimers) {
  std::atomic<bool> fired{false};
  {
    TimerService timers;
    timers.schedule(milliseconds(50), [&] { fired.store(true); });
    timers.stop();
  }
  std::this_thread::sleep_for(milliseconds(80));
  EXPECT_FALSE(fired.load());
}

TEST(TimerServiceTest, ManyConcurrentSchedules) {
  TimerService timers;
  std::atomic<int> count{0};
  constexpr int kTimers = 100;
  for (int i = 0; i < kTimers; ++i) {
    timers.schedule(milliseconds(1 + i % 10), [&] { count.fetch_add(1); });
  }
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  while (count.load() < kTimers && Clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(count.load(), kTimers);
}

TEST(WatchdogDeathTest, AbortsOnExpiry) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Watchdog dog("test watchdog", milliseconds(10));
        std::this_thread::sleep_for(milliseconds(500));
      },
      "WATCHDOG EXPIRED");
}

TEST(WatchdogTest, DisarmedOnDestruction) {
  { Watchdog dog("fast path", std::chrono::seconds(10)); }
  SUCCEED();  // no abort, no hang
}

}  // namespace
}  // namespace adets::common
