// Unit tests for the simulated network.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "transport/fault.hpp"
#include "transport/network.hpp"

namespace adets::transport {
namespace {

using common::Bytes;
using common::NodeId;

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);  // keep latencies tiny
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }
  double saved_scale_ = 1.0;
};

Bytes payload(std::uint8_t tag) { return Bytes{tag}; }

TEST_F(TransportTest, DeliversMessageToHandler) {
  SimNetwork net;
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();

  std::mutex m;
  std::condition_variable cv;
  std::vector<Message> received;
  net.set_handler(b, [&](Message msg) {
    const std::lock_guard<std::mutex> guard(m);
    received.push_back(std::move(msg));
    cv.notify_all();
  });

  ASSERT_TRUE(net.send(a, b, payload(7)));
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(2),
                          [&] { return !received.empty(); }));
  EXPECT_EQ(received[0].src, a);
  EXPECT_EQ(received[0].dst, b);
  EXPECT_EQ(received[0].payload, payload(7));
}

TEST_F(TransportTest, PerLinkFifoDespiteJitter) {
  LinkConfig link;
  link.base_latency = common::paper_us(100);
  link.jitter = common::paper_ms(5);  // large jitter to provoke reordering
  SimNetwork net(link, /*seed=*/42);
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();

  std::mutex m;
  std::condition_variable cv;
  std::vector<std::uint8_t> order;
  net.set_handler(b, [&](Message msg) {
    const std::lock_guard<std::mutex> guard(m);
    order.push_back(msg.payload[0]);
    cv.notify_all();
  });

  constexpr int kCount = 50;
  for (int i = 0; i < kCount; ++i) {
    net.send(a, b, payload(static_cast<std::uint8_t>(i)));
  }
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return order.size() == kCount; }));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(TransportTest, LaterSendDueEarlierIsHandledFirst) {
  // A message on a slow link is in flight when a second one, sent later
  // on a fast link, falls due before it: the network thread must not
  // sleep through the second one until the first is due, whether the
  // first goes to the same node or to another.
  for (const bool same_dst : {true, false}) {
    std::mutex m;
    std::condition_variable cv;
    std::vector<std::uint8_t> order;
    SimNetwork net;
    const NodeId slow_src = net.create_node();
    const NodeId fast_src = net.create_node();
    const NodeId dst = net.create_node();
    const NodeId slow_dst = same_dst ? dst : net.create_node();
    LinkConfig slow;
    slow.base_latency = common::paper_ms(100000);  // 1 s real at scale 0.01
    slow.jitter = common::Duration::zero();
    net.set_link(slow_src, slow_dst, slow);
    for (const NodeId node : {dst, slow_dst}) {
      net.set_handler(node, [&](Message msg) {
        const std::lock_guard<std::mutex> guard(m);
        order.push_back(msg.payload[0]);
        cv.notify_all();
      });
    }

    ASSERT_TRUE(net.send(slow_src, slow_dst, payload(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // the thread sleeps
    ASSERT_TRUE(net.send(fast_src, dst, payload(2)));
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::milliseconds(500),
                            [&] { return !order.empty(); }))
        << "same_dst=" << same_dst << ": the fast message waited for the slow one's due time";
    EXPECT_EQ(order, std::vector<std::uint8_t>{2});
  }
}

TEST_F(TransportTest, HandlersNeverOverlapAndRunInDueOrder) {
  // Four sources send to a and to b; the later a source sends, the
  // shorter its links, so each node's messages fall due in reverse send
  // order, and a's and b's in pairs.  One thread runs both nodes.
  LinkConfig link;
  link.jitter = common::Duration::zero();
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  std::mutex m;
  std::condition_variable cv;
  std::map<NodeId, std::vector<std::uint8_t>> order;
  SimNetwork net(link);
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();
  std::vector<NodeId> sources;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(net.create_node());
    link.base_latency = common::paper_ms(2000 * (4 - i));  // 80, 60, 40, 20 ms real
    net.set_link(sources.back(), a, link);
    net.set_link(sources.back(), b, link);
  }
  for (const NodeId node : {a, b}) {
    net.set_handler(node, [&, node](Message msg) {
      if (inside.fetch_add(1) != 0) overlapped.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      inside.fetch_sub(1);
      const std::lock_guard<std::mutex> guard(m);
      order[node].push_back(msg.payload[0]);
      cv.notify_all();
    });
  }
  for (int i = 0; i < 4; ++i) {
    for (const NodeId node : {a, b}) {
      ASSERT_TRUE(net.send(sources[i], node, payload(static_cast<std::uint8_t>(i))));
    }
  }
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] {
    return order[a].size() == 4 && order[b].size() == 4;
  }));
  EXPECT_FALSE(overlapped.load()) << "handlers of a and b ran at the same time";
  const std::vector<std::uint8_t> due_order{3, 2, 1, 0};
  EXPECT_EQ(order[a], due_order);
  EXPECT_EQ(order[b], due_order);
}

TEST_F(TransportTest, CrashedNodeReceivesNothing) {
  SimNetwork net;
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();
  std::atomic<int> count{0};
  net.set_handler(b, [&](Message) { count++; });

  net.crash(b);
  EXPECT_TRUE(net.crashed(b));
  EXPECT_FALSE(net.send(a, b, payload(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(count.load(), 0);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(TransportTest, CrashedNodeSendsNothing) {
  SimNetwork net;
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();
  std::atomic<int> count{0};
  net.set_handler(b, [&](Message) { count++; });

  net.crash(a);
  EXPECT_FALSE(net.send(a, b, payload(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(count.load(), 0);
}

TEST_F(TransportTest, PendingNodeEventsCountDownAsThePlanFires) {
  SimNetwork net;
  const NodeId a = net.create_node();
  EXPECT_EQ(net.pending_node_events(), 0u);
  net.set_fault_plan(FaultPlan{}
                         .crash_at(common::paper_ms(5000), a)
                         .restart_at(common::paper_ms(6000), a));
  EXPECT_EQ(net.pending_node_events(), 2u);
  const auto deadline = common::Clock::now() + std::chrono::seconds(5);
  while (net.pending_node_events() > 0 && common::Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(net.pending_node_events(), 0u);
  EXPECT_FALSE(net.crashed(a));
  EXPECT_EQ(net.stats().node_crashes, 1u);
  EXPECT_EQ(net.stats().node_restarts, 1u);
}

TEST_F(TransportTest, DropProbabilityDropsEverythingAtOne) {
  SimNetwork net;
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();
  LinkConfig lossy;
  lossy.drop_probability = 1.0;
  net.set_link(a, b, lossy);

  std::atomic<int> count{0};
  net.set_handler(b, [&](Message) { count++; });
  for (int i = 0; i < 10; ++i) net.send(a, b, payload(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(count.load(), 0);
  EXPECT_EQ(net.stats().messages_dropped, 10u);
}

TEST_F(TransportTest, LatencyIsApplied) {
  // a -> b pays the link latency; a -> a crosses no link at all.
  LinkConfig link;
  link.base_latency = common::paper_ms(500);  // 5ms real at scale 0.01
  link.jitter = common::Duration::zero();
  // Declared before the network, so they outlive its thread.
  std::mutex m;
  std::condition_variable cv;
  std::map<NodeId, common::TimePoint> arrival;
  SimNetwork net(link);
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();
  for (const NodeId node : {a, b}) {
    net.set_handler(node, [&, node](Message) {
      const std::lock_guard<std::mutex> guard(m);
      arrival[node] = common::Clock::now();
      cv.notify_all();
    });
  }

  for (const NodeId dst : {b, a}) {
    const auto start = common::Clock::now();
    ASSERT_TRUE(net.send(a, dst, payload(1)));
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(2),
                            [&] { return arrival.count(dst) > 0; }));
    if (dst == b) {
      EXPECT_GE(arrival[dst] - start, std::chrono::milliseconds(4)) << "a -> b";
    } else {
      EXPECT_LT(arrival[dst] - start, std::chrono::microseconds(2500))
          << "a -> a paid the link latency";
    }
  }
}

TEST_F(TransportTest, MessageToSelfIsHandledAfterTheHandlerThatSentIt) {
  std::atomic<bool> sender_returned{false};
  std::atomic<bool> handled{false};
  std::atomic<bool> handled_after_return{false};
  SimNetwork net;
  const NodeId a = net.create_node();
  net.set_handler(a, [&](Message msg) {
    if (msg.payload[0] == 1) {
      net.send(a, a, payload(2));
      // The message to self is due at once, long before this returns.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      sender_returned.store(true);
    } else {
      handled_after_return.store(sender_returned.load());
      handled.store(true);
    }
  });
  ASSERT_TRUE(net.send(a, a, payload(1)));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!handled.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(handled.load()) << "the message to self was never handled";
  EXPECT_TRUE(handled_after_return.load())
      << "the message to self was handled inside the handler that sent it";
}

TEST_F(TransportTest, LoweredDeadlineWakesAnIdleNode) {
  // First with nothing else due, then while the network thread sleeps
  // for another node's deadline about 1 s away.
  for (const bool other_due : {false, true}) {
    std::mutex m;
    std::condition_variable cv;
    std::vector<common::TimePoint> runs;
    SimNetwork net;
    const NodeId other = net.create_node();
    const NodeId a = net.create_node();
    net.set_handler(other, [](Message) {}, [] { return common::TimePoint::max(); });
    if (other_due) net.wake_at(other, common::Clock::now() + std::chrono::seconds(1));
    net.set_handler(
        a, [](Message) {},
        [&] {
          const std::lock_guard<std::mutex> guard(m);
          runs.push_back(common::Clock::now());
          cv.notify_all();
          // Once more 10 ms later, then never again.
          return runs.size() < 2 ? runs.back() + std::chrono::milliseconds(10)
                                 : common::TimePoint::max();
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // a sleeps, nothing due
    const auto at = common::Clock::now() + std::chrono::milliseconds(20);
    net.wake_at(a, at);  // from a thread other than the network thread
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(2), [&] { return runs.size() >= 2; }))
        << "other_due=" << other_due << ": the deadline handler ran " << runs.size()
        << " times";
    EXPECT_GE(runs[0], at);
    EXPECT_LT(runs[0] - at, std::chrono::milliseconds(500))
        << "other_due=" << other_due << ": a's deadline waited for the other node's";
    EXPECT_GE(runs[1] - runs[0], std::chrono::milliseconds(10));
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    lock.lock();
    EXPECT_EQ(runs.size(), 2u);
  }
}

TEST_F(TransportTest, ManyNodesAllToAll) {
  SimNetwork net;
  constexpr int kNodes = 8;
  std::vector<NodeId> nodes;
  std::atomic<int> delivered{0};
  for (int i = 0; i < kNodes; ++i) nodes.push_back(net.create_node());
  for (int i = 0; i < kNodes; ++i) {
    net.set_handler(nodes[i], [&](Message) { delivered++; });
  }
  for (int i = 0; i < kNodes; ++i) {
    for (int j = 0; j < kNodes; ++j) {
      if (i != j) net.send(nodes[i], nodes[j], payload(1));
    }
  }
  const auto deadline = common::Clock::now() + std::chrono::seconds(2);
  while (delivered.load() < kNodes * (kNodes - 1) &&
         common::Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), kNodes * (kNodes - 1));
  EXPECT_EQ(net.stats().messages_delivered, static_cast<std::uint64_t>(kNodes * (kNodes - 1)));
}

TEST_F(TransportTest, ReplacingAHandlerWaitsForItsRunningCall) {
  // Declared before the network, so they outlive its thread.
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  SimNetwork net;
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();
  const auto slow_call = [&] {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished.store(true);
  };
  // First a running message handler, then a running deadline handler.
  for (const bool deadline : {false, true}) {
    started.store(false);
    finished.store(false);
    net.set_handler(
        b, [&](Message) { slow_call(); },
        [&] {
          slow_call();
          return common::TimePoint::max();
        });
    if (deadline) {
      net.wake_at(b, common::Clock::now());
    } else {
      ASSERT_TRUE(net.send(a, b, payload(1)));
    }
    const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!started.load() && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(started.load()) << "deadline=" << deadline;
    net.set_handler(b, {});
    EXPECT_TRUE(finished.load()) << "set_handler returned while the replaced "
                                 << (deadline ? "deadline" : "message") << " handler ran";
  }
}

TEST_F(TransportTest, AHandlerMayReplaceAnotherNodesHandler) {
  // set_handler called on the network thread returns at once, also for
  // a node other than the one whose handler calls it.
  std::atomic<bool> replaced{false};
  std::atomic<int> handled_by_new{0};
  auto net = std::make_unique<SimNetwork>();
  const NodeId a = net->create_node();
  const NodeId b = net->create_node();
  net->set_handler(b, [](Message) {});
  net->set_handler(a, [&](Message) {
    net->set_handler(b, [&](Message) { handled_by_new++; });
    replaced.store(true);
  });
  ASSERT_TRUE(net->send(b, a, payload(1)));
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!replaced.load() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!replaced.load()) {
    ADD_FAILURE() << "set_handler deadlocked inside another node's handler";
    (void)net.release();  // its thread is stuck in that handler: it cannot be joined
    return;
  }
  ASSERT_TRUE(net->send(a, b, payload(2)));
  while (handled_by_new.load() == 0 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(handled_by_new.load(), 1);
}

TEST_F(TransportTest, StopIsIdempotentAndSafe) {
  SimNetwork net;
  const NodeId a = net.create_node();
  const NodeId b = net.create_node();
  net.set_handler(b, [](Message) {});
  net.send(a, b, payload(1));
  net.stop();
  net.stop();
  EXPECT_FALSE(net.send(a, b, payload(2)));
}

}  // namespace
}  // namespace adets::transport
