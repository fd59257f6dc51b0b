// Additional group-communication tests: multi-group isolation, large
// payloads, non-sequencer member crash, progress introspection.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/clock.hpp"
#include "gcs/group_service.hpp"

namespace adets::gcs {
namespace {

using common::Bytes;
using common::GroupId;
using common::NodeId;

class GcsExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
    net_ = std::make_unique<transport::SimNetwork>();
    for (int i = 0; i < 3; ++i) nodes_.push_back(net_->create_node());
    for (int i = 0; i < 3; ++i) {
      services_.push_back(std::make_unique<GroupService>(*net_, nodes_[i]));
    }
  }
  void TearDown() override {
    for (auto& s : services_) s->stop();
    net_->stop();
    common::Clock::set_scale(saved_scale_);
  }

  struct Sink {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Bytes> messages;
    std::vector<std::uint32_t> views;
    GroupCallbacks callbacks() {
      GroupCallbacks cb;
      cb.deliver = [this](GroupId, const Sequenced& m) {
        const std::lock_guard<std::mutex> guard(mutex);
        messages.push_back(m.submission.payload.to_bytes());
        cv.notify_all();
      };
      cb.on_view = [this](GroupId, const View& v) {
        const std::lock_guard<std::mutex> guard(mutex);
        views.push_back(v.id.value());
        cv.notify_all();
      };
      return cb;
    }
    bool wait_count(std::size_t n, std::chrono::seconds timeout = std::chrono::seconds(10)) {
      std::unique_lock<std::mutex> lock(mutex);
      return cv.wait_for(lock, timeout, [&] { return messages.size() >= n; });
    }
  };

  /// A sink owned by the fixture, so it outlives every service that may
  /// still deliver to it until TearDown stops them.
  Sink& sink() { return sinks_.emplace_back(); }

  double saved_scale_ = 1.0;
  std::unique_ptr<transport::SimNetwork> net_;
  std::vector<NodeId> nodes_;
  std::deque<Sink> sinks_;
  std::vector<std::unique_ptr<GroupService>> services_;
};

TEST_F(GcsExtraTest, TailGapRepairedByHeartbeat) {
  // A dropped final SeqBatch leaves the receiver's holdback empty, so the
  // gap NACK never fires, and once the submitter has seen its own
  // message sequenced nobody retransmits it either.  The only repair
  // path is the highest known sequence piggybacked on heartbeats.
  // Suspicion is effectively disabled so the outage cannot be healed by
  // a view change instead.
  GcsConfig patient;
  patient.suspect_timeout = std::chrono::seconds(30);
  const NodeId a = net_->create_node();
  const NodeId b = net_->create_node();
  GroupService sa(*net_, a, patient);
  GroupService sb(*net_, b, patient);
  Sink& s0 = sink();
  Sink& s1 = sink();
  const GroupId g(7);
  const std::vector<NodeId> members{a, b};
  sa.join(g, members, s0.callbacks());
  sb.join(g, members, s1.callbacks());
  sa.submit(g, Bytes{1});
  ASSERT_TRUE(s0.wait_count(1));
  ASSERT_TRUE(s1.wait_count(1));

  // Cut a -> b only: the sequencer (a, lowest id) sequences and delivers
  // locally; b misses the tail message and will never see a later one.
  transport::LinkConfig dead;
  dead.drop_probability = 1.0;
  net_->set_link(a, b, dead);
  sa.submit(g, Bytes{2});
  ASSERT_TRUE(s0.wait_count(2));
  net_->set_link(a, b, transport::LinkConfig{});

  ASSERT_TRUE(s1.wait_count(2, std::chrono::seconds(10)));
  EXPECT_EQ(s0.messages, s1.messages);
}

TEST_F(GcsExtraTest, StoppedServiceIsNotCalledByItsNode) {
  // A destroyed service's node keeps receiving its peer's heartbeats
  // (the peer never installs a view without it).  They must reach no
  // handler: running one would use the freed service.
  const NodeId b = net_->create_node();
  const GroupId g(1);
  const std::vector<NodeId> members{nodes_[0], b};
  Sink& s0 = sink();
  Sink& s1 = sink();
  services_[0]->join(g, members, s0.callbacks());
  auto peer = std::make_unique<GroupService>(*net_, b);
  peer->join(g, members, s1.callbacks());
  services_[0]->submit(g, Bytes{1});
  ASSERT_TRUE(s1.wait_count(1));

  peer.reset();
  const auto delivered = net_->stats().messages_delivered;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GT(net_->stats().messages_delivered, delivered)
      << "no message reached the destroyed service's node";
}

TEST_F(GcsExtraTest, StoppedServiceSendsNoMoreHeartbeats) {
  const GroupId g(1);
  const std::vector<NodeId> members{nodes_[0], nodes_[1]};
  Sink& s0 = sink();
  Sink& s1 = sink();
  services_[0]->join(g, members, s0.callbacks());
  services_[1]->join(g, members, s1.callbacks());
  services_[0]->submit(g, Bytes{1});
  ASSERT_TRUE(s1.wait_count(1));
  const auto sends_from = [&](NodeId node) {
    std::size_t sends = 0;
    for (const auto& [link, decisions] : net_->fault_trace()) {
      if (link.first == node.value()) sends += decisions.size();
    }
    return sends;
  };
  // Three heartbeat intervals (20 ms each), with the fault layer
  // recording every send.
  const auto watch = [&] {
    net_->set_fault_plan(transport::FaultPlan{});
    std::this_thread::sleep_for(std::chrono::milliseconds(3 * 20));
  };
  watch();
  ASSERT_GT(sends_from(nodes_[1]), 0u) << "a running member sent no heartbeat";

  services_[1]->stop();
  watch();
  EXPECT_EQ(sends_from(nodes_[1]), 0u) << "a stopped service still sends";
}

TEST_F(GcsExtraTest, MultipleGroupsAreIsolated) {
  Sink& a0 = sink();
  Sink& a1 = sink();
  Sink& b0 = sink();
  Sink& b1 = sink();
  const GroupId ga(1);
  const GroupId gb(2);
  services_[0]->join(ga, {nodes_[0], nodes_[1]}, a0.callbacks());
  services_[1]->join(ga, {nodes_[0], nodes_[1]}, a1.callbacks());
  services_[0]->join(gb, {nodes_[0], nodes_[1]}, b0.callbacks());
  services_[1]->join(gb, {nodes_[0], nodes_[1]}, b1.callbacks());

  services_[0]->submit(ga, Bytes{'A'});
  services_[1]->submit(gb, Bytes{'B'});
  ASSERT_TRUE(a0.wait_count(1));
  ASSERT_TRUE(b0.wait_count(1));
  ASSERT_TRUE(a1.wait_count(1));
  ASSERT_TRUE(b1.wait_count(1));
  EXPECT_EQ(a0.messages[0], Bytes{'A'});
  EXPECT_EQ(b0.messages[0], Bytes{'B'});
  EXPECT_EQ(a0.messages.size(), 1u);
  EXPECT_EQ(b0.messages.size(), 1u);
}

TEST_F(GcsExtraTest, LargePayloadRoundTrips) {
  Sink& s0 = sink();
  const GroupId g(1);
  services_[0]->join(g, {nodes_[0]}, s0.callbacks());
  Bytes big(256 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  services_[0]->submit(g, big);
  ASSERT_TRUE(s0.wait_count(1));
  EXPECT_EQ(s0.messages[0], big);
}

TEST_F(GcsExtraTest, SubmitWithoutSessionReturnsZero) {
  EXPECT_EQ(services_[0]->submit(GroupId(42), Bytes{'x'}), 0u);
}

TEST_F(GcsExtraTest, DeliveredUpToAdvances) {
  Sink& s0 = sink();
  const GroupId g(1);
  services_[0]->join(g, {nodes_[0]}, s0.callbacks());
  EXPECT_EQ(services_[0]->delivered_up_to(g), 0u);
  for (int i = 0; i < 5; ++i) services_[0]->submit(g, Bytes{static_cast<std::uint8_t>(i)});
  ASSERT_TRUE(s0.wait_count(5));
  EXPECT_EQ(services_[0]->delivered_up_to(g), 5u);
}

TEST_F(GcsExtraTest, NonSequencerCrashTriggersViewChangeWithoutLoss) {
  Sink& s0 = sink();
  Sink& s1 = sink();
  Sink& s2 = sink();
  const GroupId g(1);
  const std::vector<NodeId> members{nodes_[0], nodes_[1], nodes_[2]};
  services_[0]->join(g, members, s0.callbacks());
  services_[1]->join(g, members, s1.callbacks());
  services_[2]->join(g, members, s2.callbacks());

  for (int i = 0; i < 5; ++i) services_[0]->submit(g, Bytes{static_cast<std::uint8_t>(i)});
  ASSERT_TRUE(s0.wait_count(5));
  ASSERT_TRUE(s1.wait_count(5));

  net_->crash(nodes_[2]);  // highest member, not the sequencer
  const auto deadline = common::Clock::now() + std::chrono::seconds(10);
  while (services_[0]->current_view(g).members.size() != 2 &&
         common::Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(services_[0]->current_view(g).members.size(), 2u);
  EXPECT_EQ(services_[0]->current_view(g).sequencer(), nodes_[0]);

  for (int i = 5; i < 10; ++i) services_[0]->submit(g, Bytes{static_cast<std::uint8_t>(i)});
  ASSERT_TRUE(s0.wait_count(10));
  ASSERT_TRUE(s1.wait_count(10));
  EXPECT_EQ(s0.messages, s1.messages);
}

TEST_F(GcsExtraTest, TotalOrderSurvivesLossyLinks) {
  // 20% message loss on every link: sender retransmission, NACK repair
  // and ack dedup must still deliver everything exactly once, in order.
  Sink& s0 = sink();
  Sink& s1 = sink();
  Sink& s2 = sink();
  const GroupId g(1);
  const std::vector<NodeId> members{nodes_[0], nodes_[1], nodes_[2]};
  transport::LinkConfig lossy;
  lossy.drop_probability = 0.2;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a != b) net_->set_link(nodes_[a], nodes_[b], lossy);
    }
  }
  services_[0]->join(g, members, s0.callbacks());
  services_[1]->join(g, members, s1.callbacks());
  services_[2]->join(g, members, s2.callbacks());

  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    services_[i % 3]->submit(g, Bytes{static_cast<std::uint8_t>(i)});
  }
  ASSERT_TRUE(s0.wait_count(kMessages, std::chrono::seconds(30)));
  ASSERT_TRUE(s1.wait_count(kMessages, std::chrono::seconds(30)));
  ASSERT_TRUE(s2.wait_count(kMessages, std::chrono::seconds(30)));
  // Wait a little longer: duplicates would arrive late.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(s0.messages.size(), static_cast<std::size_t>(kMessages));
  EXPECT_EQ(s0.messages, s1.messages);
  EXPECT_EQ(s0.messages, s2.messages);
}

TEST_F(GcsExtraTest, ViewEventDeliveredToApp) {
  Sink& s0 = sink();
  Sink& s1 = sink();
  const GroupId g(1);
  const std::vector<NodeId> members{nodes_[0], nodes_[1], nodes_[2]};
  Sink& s2 = sink();
  services_[0]->join(g, members, s0.callbacks());
  services_[1]->join(g, members, s1.callbacks());
  services_[2]->join(g, members, s2.callbacks());
  net_->crash(nodes_[1]);
  const auto deadline = common::Clock::now() + std::chrono::seconds(10);
  while (common::Clock::now() < deadline) {
    {
      // Not held while sleeping: the view callback needs it.
      const std::lock_guard<std::mutex> guard(s0.mutex);
      if (!s0.views.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::lock_guard<std::mutex> guard(s0.mutex);
  ASSERT_FALSE(s0.views.empty());
  EXPECT_GE(s0.views.back(), 1u);
}

}  // namespace
}  // namespace adets::gcs
