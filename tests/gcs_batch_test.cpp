// Batching tests: every ordering datagram is a batch (SubmitBatch,
// SeqBatch, SubmitAckBatch).  The one batching point, the sender's
// submit_flush_delay hold, must pack a burst into one datagram per link
// and stay an invisible transport optimisation: same total order, same
// exactly-once guarantee and same failover behaviour as sending every
// submission at once, in a batch of one.  The sequencer holds nothing: a
// round is multicast before its handler returns, so a crashed
// sequencer's messages that no other member received are re-sequenced
// once in the new view.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "gcs/group_service.hpp"
#include "watchdog.hpp"

namespace adets::gcs {
namespace {

using common::Bytes;
using common::GroupId;
using common::NodeId;

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

struct Sink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> messages;
  std::vector<std::uint32_t> views;

  GroupCallbacks callbacks() {
    GroupCallbacks cb;
    cb.deliver = [this](GroupId, const Sequenced& m) {
      const std::lock_guard<std::mutex> guard(mutex);
      messages.emplace_back(m.submission.payload.data(),
                            m.submission.payload.data() + m.submission.payload.size());
      cv.notify_all();
    };
    cb.on_view = [this](GroupId, const View& v) {
      const std::lock_guard<std::mutex> guard(mutex);
      views.push_back(v.id.value());
      cv.notify_all();
    };
    return cb;
  }
  bool wait_count(std::size_t n, std::chrono::seconds timeout = std::chrono::seconds(20)) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [&] { return messages.size() >= n; });
  }
  bool wait_view(std::chrono::seconds timeout = std::chrono::seconds(20)) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [&] { return !views.empty(); });
  }
  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> guard(mutex);
    return messages;
  }
};

/// Builds an n-member group (plus optional externals) with one config.
class BatchCluster {
 public:
  BatchCluster(transport::SimNetwork& net, int members, int externals,
               const GcsConfig& config) {
    for (int i = 0; i < members + externals; ++i) nodes_.push_back(net.create_node());
    for (int i = 0; i < members + externals; ++i) {
      services_.push_back(std::make_unique<GroupService>(net, nodes_[i], config));
    }
    std::vector<NodeId> group_members(nodes_.begin(), nodes_.begin() + members);
    for (int i = 0; i < members; ++i) {
      sinks_.push_back(std::make_unique<Sink>());
      services_[i]->join(kGroup, group_members, sinks_.back()->callbacks());
    }
    for (int i = members; i < members + externals; ++i) {
      services_[i]->connect(kGroup, group_members);
    }
  }
  ~BatchCluster() {
    for (auto& s : services_) s->stop();
  }

  static constexpr GroupId kGroup{42};

  [[nodiscard]] GroupService& service(int i) { return *services_[i]; }
  [[nodiscard]] Sink& sink(int i) { return *sinks_[i]; }
  [[nodiscard]] NodeId node(int i) const { return nodes_[i]; }

 private:
  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<GroupService>> services_;
  std::vector<std::unique_ptr<Sink>> sinks_;
};

constexpr GroupId BatchCluster::kGroup;

class GcsBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
    net_ = std::make_unique<transport::SimNetwork>();
  }
  void TearDown() override {
    net_->stop();
    common::Clock::set_scale(saved_scale_);
    watchdog_.reset();
  }

  /// Aborts the test binary with `label` unless the test body and its
  /// TearDown (which waits for the network thread) finish within `limit`.
  void arm_watchdog(const std::string& label, std::chrono::milliseconds limit) {
    watchdog_.emplace(label, limit);
  }

  static GcsConfig batched_config() {
    GcsConfig config;
    config.submit_flush_delay = std::chrono::milliseconds(40);
    config.suspect_timeout = std::chrono::seconds(30);  // no spurious views
    return config;
  }

  double saved_scale_ = 1.0;
  std::unique_ptr<transport::SimNetwork> net_;
  std::optional<testing::Watchdog> watchdog_;
};

TEST_F(GcsBatchTest, PartialBatchIsFlushedByTimer) {
  // An external sender holds fewer submissions than fill a SubmitBatch:
  // nothing but its submit_flush_delay timer sends them.
  BatchCluster cluster(*net_, 2, 1, batched_config());
  for (int i = 0; i < 3; ++i) {
    cluster.service(2).submit(BatchCluster::kGroup, text("p" + std::to_string(i)));
  }
  ASSERT_TRUE(cluster.sink(0).wait_count(3));
  ASSERT_TRUE(cluster.sink(1).wait_count(3));
  EXPECT_EQ(cluster.sink(0).snapshot(), cluster.sink(1).snapshot());
  EXPECT_EQ(cluster.sink(0).snapshot().size(), 3u);
}

TEST_F(GcsBatchTest, BatchedDeliveryMatchesUnbatchedOrder) {
  // Same workload without a hold (every submission sent at once, in a
  // batch of one) and with it (the burst packed into one SubmitBatch):
  // both must deliver the submission sequence verbatim on every member.
  // The sequencer submits to itself, so the expected order is exactly
  // the submission order.
  std::vector<std::string> expected;
  for (int i = 0; i < 12; ++i) expected.push_back("m" + std::to_string(i));

  for (const bool batched : {false, true}) {
    GcsConfig config = batched_config();
    if (!batched) config.submit_flush_delay = common::Duration::zero();
    BatchCluster cluster(*net_, 3, 0, config);
    for (const auto& m : expected) {
      cluster.service(0).submit(BatchCluster::kGroup, text(m));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(cluster.sink(i).wait_count(expected.size())) << "member " << i;
      EXPECT_EQ(cluster.sink(i).snapshot(), expected)
          << "member " << i << " batched=" << batched;
    }
  }
}

TEST_F(GcsBatchTest, DuplicatesAcrossBatchBoundariesAreFiltered) {
  // Cut sequencer -> submitter, so the submitter never sees its message
  // sequenced and retries into later sequencing rounds (and, via target
  // rotation, through other members).  The duplicates land in different
  // SubmitBatches and rounds; dedup must still collapse them to one
  // delivery.
  GcsConfig config = batched_config();
  config.retransmit_interval = std::chrono::milliseconds(30);
  BatchCluster cluster(*net_, 3, 0, config);

  transport::LinkConfig dead;
  dead.drop_probability = 1.0;
  net_->set_link(cluster.node(0), cluster.node(1), dead);

  cluster.service(1).submit(BatchCluster::kGroup, text("dup"));
  // Interleave other traffic so retries fall into distinct batches.
  for (int i = 0; i < 6; ++i) {
    cluster.service(2).submit(BatchCluster::kGroup, text("f" + std::to_string(i)));
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  net_->set_link(cluster.node(0), cluster.node(1), transport::LinkConfig{});

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.sink(i).wait_count(7)) << "member " << i;
  }
  // Allow would-be duplicates to arrive, then check exactly-once.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto log0 = cluster.sink(0).snapshot();
  EXPECT_EQ(std::count(log0.begin(), log0.end(), "dup"), 1);
  EXPECT_EQ(log0.size(), 7u);
  EXPECT_EQ(cluster.sink(1).snapshot(), log0);
  EXPECT_EQ(cluster.sink(2).snapshot(), log0);
}

TEST_F(GcsBatchTest, FailoverResequencesWhatOnlyTheOldSequencerReceived) {
  arm_watchdog("gcs batch failover", std::chrono::seconds(120));
  // The sequencer's links to the other members are cut, so its round for
  // two submissions reaches only its own node; then it crashes.  No
  // survivor received the messages and neither submitter saw its message
  // sequenced, so both re-submit into the new view, where the new
  // sequencer must sequence each exactly once.
  GcsConfig config = batched_config();
  config.suspect_timeout = std::chrono::milliseconds(150);
  BatchCluster cluster(*net_, 3, 0, config);
  transport::LinkConfig dead;
  dead.drop_probability = 1.0;
  net_->set_link(cluster.node(0), cluster.node(1), dead);
  net_->set_link(cluster.node(0), cluster.node(2), dead);

  cluster.service(1).submit(BatchCluster::kGroup, text("lost-1"));
  cluster.service(2).submit(BatchCluster::kGroup, text("lost-2"));
  ASSERT_TRUE(cluster.sink(0).wait_count(2));  // sequenced in view 0
  EXPECT_TRUE(cluster.sink(1).snapshot().empty());
  net_->crash(cluster.node(0));

  ASSERT_TRUE(cluster.sink(1).wait_view(std::chrono::seconds(30)));
  ASSERT_TRUE(cluster.sink(1).wait_count(2, std::chrono::seconds(30)));
  ASSERT_TRUE(cluster.sink(2).wait_count(2, std::chrono::seconds(30)));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto log1 = cluster.sink(1).snapshot();
  EXPECT_EQ(log1.size(), 2u);
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "lost-1"), 1);
  EXPECT_EQ(std::count(log1.begin(), log1.end(), "lost-2"), 1);
  EXPECT_EQ(cluster.sink(2).snapshot(), log1);
}

TEST_F(GcsBatchTest, BurstInOneHoldWindowCrossesEachLinkOnce) {
  arm_watchdog("gcs batch packing", std::chrono::seconds(60));
  // An external sender's 20 submissions inside one submit_flush_delay
  // window travel as one SubmitBatch, are sequenced in one round and
  // acked by one SubmitAckBatch.  Heartbeats run between members only,
  // so nothing else uses the two links between sender and sequencer.
  // The long hold and retransmit interval keep a slow host from
  // splitting the burst or retransmitting it.
  GcsConfig config = batched_config();
  config.submit_flush_delay = std::chrono::milliseconds(250);
  config.retransmit_interval = std::chrono::seconds(5);
  BatchCluster cluster(*net_, 3, 1, config);
  net_->set_fault_plan(transport::FaultPlan{});  // records every send

  std::vector<std::string> expected;
  for (int i = 0; i < 20; ++i) {
    expected.push_back("b" + std::to_string(i));
    cluster.service(3).submit(BatchCluster::kGroup, text(expected.back()));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster.sink(i).wait_count(expected.size())) << "member " << i;
    EXPECT_EQ(cluster.sink(i).snapshot(), expected) << "member " << i;
  }
  // The round sent its ack in the handler that multicast it, so the
  // ack is on record once any member has delivered.
  const auto trace = net_->fault_trace();
  const auto datagrams = [&](NodeId src, NodeId dst) -> std::size_t {
    const auto it = trace.find({src.value(), dst.value()});
    return it == trace.end() ? 0 : it->second.size();
  };
  EXPECT_EQ(datagrams(cluster.node(3), cluster.node(0)), 1u) << "external -> sequencer";
  EXPECT_EQ(datagrams(cluster.node(0), cluster.node(3)), 1u) << "sequencer -> external";
}

}  // namespace
}  // namespace adets::gcs
