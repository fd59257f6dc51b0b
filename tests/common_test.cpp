// Unit tests for the common substrate (ids, clock scaling,
// serialisation, RNG determinism) and for the blocking queue under the
// scheduler test harness.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "blocking_queue.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/serialization.hpp"
#include "common/types.hpp"

namespace adets::common {
namespace {

using adets::testing::BlockingQueue;

TEST(StrongIdTest, DistinctTypesAndComparisons) {
  const NodeId a(1);
  const NodeId b(2);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(NodeId(1), a);
  static_assert(!std::is_convertible_v<NodeId, GroupId>);
  static_assert(!std::is_convertible_v<std::uint32_t, NodeId>);
}

TEST(StrongIdTest, InvalidSentinel) {
  const MutexId none = MutexId::invalid();
  EXPECT_FALSE(none.valid());
  EXPECT_TRUE(MutexId(0).valid());
  EXPECT_TRUE(MutexId(7).valid());
}

TEST(StrongIdTest, HashableInUnorderedContainers) {
  std::set<ThreadId> ordered{ThreadId(3), ThreadId(1), ThreadId(2)};
  EXPECT_EQ(ordered.begin()->value(), 1u);
  std::hash<ThreadId> h;
  EXPECT_NE(h(ThreadId(1)), h(ThreadId(2)));
}

TEST(ClockTest, ScaledDurationAppliesFactor) {
  const double saved = Clock::scale();
  Clock::set_scale(0.5);
  EXPECT_EQ(Clock::scaled(paper_ms(100)), std::chrono::milliseconds(50));
  Clock::set_scale(saved);
}

TEST(ClockTest, SleepPaperRespectsScale) {
  const double saved = Clock::scale();
  Clock::set_scale(0.01);
  const auto start = Clock::now();
  Clock::sleep_paper(paper_ms(100));  // = 1ms real
  const auto elapsed = Clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::microseconds(900));
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  Clock::set_scale(saved);
}

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(BlockingQueueTest, CloseDrainsThenReturnsNullopt) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BlockingQueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.push(42);
  });
  EXPECT_EQ(q.pop(), 42);
  producer.join();
}

TEST(BlockingQueueTest, ManyProducersManyConsumers) {
  BlockingQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  std::atomic<int> seen{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&q, &seen] {
      while (q.pop()) seen.fetch_add(1);
    });
  }
  for (auto& t : producers) t.join();
  while (!q.empty()) std::this_thread::yield();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.load(), kPerProducer * kProducers);
}

TEST(SerializationTest, RoundTripPrimitives) {
  Writer w;
  w.u8(7);
  w.u32(123456);
  w.u64(9876543210ULL);
  w.boolean(true);
  w.str("hello world");
  w.blob(Bytes{1, 2, 3});
  w.id(MutexId(17));

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 9876543210ULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.id<MutexId>(), MutexId(17));
  EXPECT_TRUE(r.exhausted());
}

TEST(SerializationTest, TruncatedPayloadThrows) {
  Writer w;
  w.u32(10);  // claims a 10-byte string follows
  Reader r(w.bytes());
  EXPECT_THROW(r.str(), SerializationError);
}

TEST(SerializationTest, EmptyStringAndBlob) {
  Writer w;
  w.str("");
  w.blob(common::Bytes{});
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(RngTest, SameSeedSameSequence) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform(0, 1000000) == b.uniform(0, 1000000)) same++;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsuBounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = rng.uniform_real(1.5, 2.5);
    EXPECT_GE(d, 1.5);
    EXPECT_LT(d, 2.5);
  }
}

TEST(RngTest, TwoPartSeedMixes) {
  Rng a(1, 2);
  Rng b(2, 1);
  EXPECT_NE(a.uniform(0, 1ULL << 62), b.uniform(0, 1ULL << 62));
}

}  // namespace
}  // namespace adets::common
