// Tests for the group communication substrate: total order, agreement,
// external submissions, NACK repair, sequencer fail-over, and the routing
// of new submissions after a fail-over or a retransmission.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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
std::string str(const Bytes& b) { return std::string(b.begin(), b.end()); }

/// Records deliveries of one member for later comparison.
struct DeliveryLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> messages;
  std::vector<std::uint32_t> views;

  void add(const Sequenced& m) {
    const std::lock_guard<std::mutex> guard(mutex);
    messages.push_back(std::string(m.submission.payload.data(),
                                   m.submission.payload.data() +
                                       m.submission.payload.size()));
    cv.notify_all();
  }
  void add_view(const View& v) {
    const std::lock_guard<std::mutex> guard(mutex);
    views.push_back(v.id.value());
    cv.notify_all();
  }
  bool wait_count(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [&] { return messages.size() >= n; });
  }
  bool wait_view(std::uint32_t view_id, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [&] {
      return !views.empty() && views.back() >= view_id;
    });
  }
  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> guard(mutex);
    return messages;
  }
};

/// A three-member group plus one external client node.
class GcsTest : public ::testing::Test {
 protected:
  explicit GcsTest(GcsConfig config = {}) : config_(config) {}

  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
    net_ = std::make_unique<transport::SimNetwork>();
    for (int i = 0; i < 4; ++i) nodes_.push_back(net_->create_node());
    for (int i = 0; i < 4; ++i) {
      services_.push_back(std::make_unique<GroupService>(*net_, nodes_[i], config_));
    }
    members_ = {nodes_[0], nodes_[1], nodes_[2]};
    for (int i = 0; i < 3; ++i) {
      logs_.push_back(std::make_unique<DeliveryLog>());
      DeliveryLog* log = logs_.back().get();
      GroupCallbacks callbacks;
      callbacks.deliver = [log](GroupId, const Sequenced& m) { log->add(m); };
      callbacks.on_view = [log](GroupId, const View& v) { log->add_view(v); };
      services_[i]->join(kGroup, members_, callbacks);
    }
    services_[3]->connect(kGroup, members_);
  }

  void TearDown() override {
    for (auto& s : services_) s->stop();
    net_->stop();
    common::Clock::set_scale(saved_scale_);
    watchdog_.reset();
  }

  /// Aborts the test binary with `label` unless the test body and its
  /// TearDown (which waits for the network thread) finish within
  /// `limit`.
  void arm_watchdog(const std::string& label, std::chrono::milliseconds limit) {
    watchdog_.emplace(label, limit);
  }

  static constexpr GroupId kGroup{7};
  const GcsConfig config_;
  double saved_scale_ = 1.0;
  std::unique_ptr<transport::SimNetwork> net_;
  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<GroupService>> services_;
  std::vector<NodeId> members_;
  std::vector<std::unique_ptr<DeliveryLog>> logs_;
  std::optional<testing::Watchdog> watchdog_;
};

constexpr GroupId GcsTest::kGroup;

TEST_F(GcsTest, MemberSubmissionDeliveredToAllMembers) {
  services_[0]->submit(kGroup, text("hello"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs_[i]->wait_count(1, std::chrono::seconds(3))) << "member " << i;
    EXPECT_EQ(logs_[i]->snapshot(), std::vector<std::string>{"hello"});
  }
}

TEST_F(GcsTest, ExternalSubmissionDeliveredToAllMembers) {
  services_[3]->submit(kGroup, text("from-client"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs_[i]->wait_count(1, std::chrono::seconds(3)));
    EXPECT_EQ(logs_[i]->snapshot(), std::vector<std::string>{"from-client"});
  }
}

TEST_F(GcsTest, ConnectOnAMemberKeepsItsSession) {
  // A replica that invokes its own group connects to it as well.  Its
  // member session must keep numbering its submissions, or the sequencer
  // drops the later ones as duplicates.
  services_[1]->submit(kGroup, text("a"));
  services_[1]->submit(kGroup, text("b"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs_[i]->wait_count(2, std::chrono::seconds(3))) << "member " << i;
  }
  services_[1]->connect(kGroup, members_);
  services_[1]->submit(kGroup, text("c"));
  services_[1]->submit(kGroup, text("d"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs_[i]->wait_count(4, std::chrono::seconds(3))) << "member " << i;
    auto delivered = logs_[i]->snapshot();
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered, (std::vector<std::string>{"a", "b", "c", "d"}));
  }
}

TEST_F(GcsTest, TotalOrderAgreesAcrossMembersUnderConcurrency) {
  arm_watchdog("gcs total order", std::chrono::seconds(60));
  constexpr int kPerSender = 40;
  std::vector<std::thread> senders;
  for (int s = 0; s < 4; ++s) {
    senders.emplace_back([this, s] {
      for (int i = 0; i < kPerSender; ++i) {
        services_[s]->submit(kGroup, text("s" + std::to_string(s) + "-" + std::to_string(i)));
      }
    });
  }
  for (auto& t : senders) t.join();
  const std::size_t total = 4 * kPerSender;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs_[i]->wait_count(total, std::chrono::seconds(30))) << "member " << i;
  }
  const auto reference = logs_[0]->snapshot();
  EXPECT_EQ(reference.size(), total);
  EXPECT_EQ(logs_[1]->snapshot(), reference);
  EXPECT_EQ(logs_[2]->snapshot(), reference);
  // Per-sender FIFO must hold inside the total order.
  for (int s = 0; s < 4; ++s) {
    int expected = 0;
    const std::string prefix = "s" + std::to_string(s) + "-";
    for (const auto& m : reference) {
      if (m.rfind(prefix, 0) == 0) {
        EXPECT_EQ(m, prefix + std::to_string(expected));
        expected++;
      }
    }
    EXPECT_EQ(expected, kPerSender);
  }
}

TEST_F(GcsTest, SubmissionsAreDeduplicatedAcrossRetries) {
  arm_watchdog("gcs dedup across retries", std::chrono::seconds(60));
  // Cut sequencer -> client, so no ack reaches the client: it retransmits
  // every message, rotating through the members, and the sequencer sees
  // each retry as a duplicate.  Delivery must stay exactly-once.
  const NodeId client = nodes_[3];
  const auto retry_link = std::make_pair(client.value(), nodes_[1].value());
  transport::LinkConfig dead;
  dead.drop_probability = 1.0;
  net_->set_link(nodes_[0], client, dead);
  net_->set_fault_plan(transport::FaultPlan{});  // records every send

  std::vector<std::string> expected;
  for (int i = 0; i < 20; ++i) {
    expected.push_back("m" + std::to_string(i));
    services_[3]->submit(kGroup, text(expected.back()));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs_[i]->wait_count(20, std::chrono::seconds(10))) << "member " << i;
  }
  // The first retransmission rotated to member 1, which forwarded it.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (net_->fault_trace().count(retry_link) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(net_->fault_trace().count(retry_link), 0u);

  // With the link back, the next retry reaches the sequencer as a
  // duplicate of a multicast message, and only its re-ack can stop the
  // client retrying.  Wait for three retransmit intervals without a send
  // from the client.
  net_->set_link(nodes_[0], client, transport::LinkConfig{});
  const auto sends_from_client = [&] {
    std::size_t sends = 0;
    for (const auto& [link, decisions] : net_->fault_trace()) {
      if (link.first == client.value()) sends += decisions.size();
    }
    return sends;
  };
  std::size_t sends = 0;
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    net_->set_fault_plan(transport::FaultPlan{});
    std::this_thread::sleep_for(3 * config_.retransmit_interval);
    sends = sends_from_client();
  } while (sends > 0 && std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(sends, 0u) << "the client still retransmits: no re-ack reached it";

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(logs_[i]->snapshot(), expected) << "member " << i;
  }
}

TEST_F(GcsTest, UnackedExternalSubmissionIsRetransmittedOnTime) {
  arm_watchdog("gcs unacked retransmission", std::chrono::seconds(60));
  // Cut sequencer -> client: the ack is lost, and the client's node
  // receives nothing at all, so only its own deadline can make it
  // retransmit.  The retransmission rotates to member 1.
  const NodeId client = nodes_[3];
  const auto retry_link = std::make_pair(client.value(), nodes_[1].value());
  transport::LinkConfig dead;
  dead.drop_probability = 1.0;
  net_->set_link(nodes_[0], client, dead);
  net_->set_fault_plan(transport::FaultPlan{});  // records every send

  const auto submitted = std::chrono::steady_clock::now();
  services_[3]->submit(kGroup, text("m"));
  const auto deadline = submitted + std::chrono::seconds(10);
  while (net_->fault_trace().count(retry_link) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto retried = std::chrono::steady_clock::now();
  ASSERT_GT(net_->fault_trace().count(retry_link), 0u) << "the client never retransmitted";
  EXPECT_GE(retried - submitted, config_.retransmit_interval) << "retransmitted too early";
  for (const auto& [link, decisions] : net_->fault_trace()) {
    EXPECT_NE(link.second, client.value()) << "a message reached the client's node";
  }
}

TEST_F(GcsTest, SequencerFailoverContinuesTotalOrder) {
  arm_watchdog("gcs failover", std::chrono::seconds(120));
  for (int i = 0; i < 10; ++i) {
    services_[3]->submit(kGroup, text("pre-" + std::to_string(i)));
  }
  ASSERT_TRUE(logs_[1]->wait_count(10, std::chrono::seconds(10)));
  ASSERT_TRUE(logs_[2]->wait_count(10, std::chrono::seconds(10)));

  // Crash the sequencer (lowest node id).
  net_->crash(nodes_[0]);
  ASSERT_TRUE(logs_[1]->wait_view(1, std::chrono::seconds(20)));
  ASSERT_TRUE(logs_[2]->wait_view(1, std::chrono::seconds(20)));
  EXPECT_EQ(services_[1]->current_view(kGroup).sequencer(), nodes_[1]);

  for (int i = 0; i < 10; ++i) {
    services_[3]->submit(kGroup, text("post-" + std::to_string(i)));
  }
  ASSERT_TRUE(logs_[1]->wait_count(20, std::chrono::seconds(20)));
  ASSERT_TRUE(logs_[2]->wait_count(20, std::chrono::seconds(20)));
  const auto log1 = logs_[1]->snapshot();
  const auto log2 = logs_[2]->snapshot();
  EXPECT_EQ(log1, log2);
  // All pre- messages precede all post- messages and nothing is lost.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(log1[i], "pre-" + std::to_string(i));
    EXPECT_EQ(log1[10 + i], "post-" + std::to_string(i));
  }
}

TEST_F(GcsTest, InFlightSubmissionsSurviveFailover) {
  arm_watchdog("gcs inflight failover", std::chrono::seconds(120));
  // Submit continuously while the sequencer dies.
  std::atomic<bool> stop{false};
  std::atomic<int> sent{0};
  std::thread pump([&] {
    while (!stop.load()) {
      services_[3]->submit(kGroup, text("x" + std::to_string(sent.fetch_add(1))));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  net_->crash(nodes_[0]);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  pump.join();
  const std::size_t total = static_cast<std::size_t>(sent.load());
  ASSERT_TRUE(logs_[1]->wait_count(total, std::chrono::seconds(30)))
      << "delivered " << logs_[1]->snapshot().size() << " of " << total;
  ASSERT_TRUE(logs_[2]->wait_count(total, std::chrono::seconds(30)));
  const auto log1 = logs_[1]->snapshot();
  EXPECT_EQ(log1, logs_[2]->snapshot());
  // Exactly-once: all distinct.
  std::set<std::string> unique(log1.begin(), log1.end());
  EXPECT_EQ(unique.size(), log1.size());
}

TEST_F(GcsTest, IsolatedMemberDoesNotOrderAlone) {
  arm_watchdog("gcs isolated member", std::chrono::seconds(60));
  services_[3]->submit(kGroup, text("a"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs_[i]->wait_count(1, std::chrono::seconds(10)));
  }
  // Node 2 stays up but hears nothing from its peers, as after a long
  // stall: it suspects both but, alone, is no majority of the view and
  // proposes nothing.  Its peers suspect it and go on without it.
  transport::LinkConfig dead;
  dead.drop_probability = 1.0;
  for (int peer = 0; peer < 2; ++peer) {
    net_->set_link(nodes_[2], nodes_[peer], dead);
    net_->set_link(nodes_[peer], nodes_[2], dead);
  }
  ASSERT_TRUE(logs_[0]->wait_view(1, std::chrono::seconds(20)));
  EXPECT_EQ(services_[0]->current_view(kGroup).members,
            (std::vector<NodeId>{nodes_[0], nodes_[1]}));

  services_[2]->submit(kGroup, text("from-2"));
  services_[3]->submit(kGroup, text("b"));
  ASSERT_TRUE(logs_[0]->wait_count(2, std::chrono::seconds(10)));
  // Give node 2 time to act alone, were it able to.
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_EQ(services_[2]->current_view(kGroup).id.value(), 0u)
      << "node 2 installed a view without its peers";
  EXPECT_EQ(logs_[2]->snapshot(), std::vector<std::string>{"a"})
      << "node 2 ordered messages on its own";
  EXPECT_EQ(logs_[0]->snapshot(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(GcsTest, StopWaitsForARunningCallbackAndRunsNoLaterOne) {
  arm_watchdog("gcs stop during callback", std::chrono::seconds(60));
  // Node 3 alone forms a second group, so its own deliveries block in a
  // callback of this test.
  const GroupId solo(8);
  struct Counts {
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
  };
  const auto counts = std::make_shared<Counts>();
  GroupCallbacks callbacks;
  callbacks.deliver = [counts](GroupId, const Sequenced&) {
    counts->started++;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    counts->finished++;
  };
  services_[3]->join(solo, {nodes_[3]}, callbacks);
  services_[0]->connect(solo, {nodes_[3]});
  services_[3]->submit(solo, text("x"));
  services_[3]->submit(solo, text("y"));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counts->started.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(counts->started.load(), 0);

  services_[3]->stop();
  EXPECT_EQ(counts->finished.load(), counts->started.load())
      << "stop() returned during a callback";
  const int ran = counts->started.load();
  // Traffic still reaches the stopped node, but runs no callback there.
  services_[0]->submit(solo, text("z"));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(counts->started.load(), ran) << "a callback ran after stop() returned";
}

TEST_F(GcsTest, CallbackMaySubmitTheNextMessage) {
  arm_watchdog("gcs submit from callback", std::chrono::seconds(60));
  // Member 1 submits each message of a chain from inside its delivery
  // callback for the previous one.
  const GroupId chain(9);
  constexpr std::size_t kLength = 20;
  std::vector<std::shared_ptr<DeliveryLog>> logs;
  for (int i = 0; i < 3; ++i) {
    const auto log = logs.emplace_back(std::make_shared<DeliveryLog>());
    GroupService* service = services_[i].get();
    const bool submitter = i == 1;
    GroupCallbacks callbacks;
    callbacks.deliver = [log, service, submitter, chain](GroupId, const Sequenced& m) {
      log->add(m);
      const std::size_t delivered = log->snapshot().size();
      if (submitter && delivered < kLength) {
        service->submit(chain, text("c" + std::to_string(delivered)));
      }
    };
    services_[i]->join(chain, members_, callbacks);
  }
  services_[1]->submit(chain, text("c0"));

  std::vector<std::string> expected;
  for (std::size_t k = 0; k < kLength; ++k) expected.push_back("c" + std::to_string(k));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(logs[i]->wait_count(kLength, std::chrono::seconds(20)))
        << "member " << i << " delivered " << logs[i]->snapshot().size();
    EXPECT_EQ(logs[i]->snapshot(), expected) << "member " << i;
  }
}

GcsConfig slow_retransmit(std::chrono::milliseconds retransmit,
                          std::chrono::milliseconds suspect) {
  GcsConfig config;
  config.retransmit_interval = retransmit;
  config.suspect_timeout = suspect;
  return config;
}

/// A retransmit interval long enough that a submission which waits one
/// out cannot pass for one sent straight to the sequencer.
class GcsExternalRoutingTest : public GcsTest {
 protected:
  GcsExternalRoutingTest()
      : GcsTest(slow_retransmit(std::chrono::seconds(1), std::chrono::milliseconds(150))) {}
};

TEST_F(GcsExternalRoutingTest, ExternalSessionFollowsNewSequencerAfterFailover) {
  arm_watchdog("gcs external routing", std::chrono::seconds(60));
  services_[3]->submit(kGroup, text("pre"));
  ASSERT_TRUE(logs_[1]->wait_count(1, std::chrono::seconds(10)));

  net_->crash(nodes_[0]);
  ASSERT_TRUE(logs_[1]->wait_view(1, std::chrono::seconds(20)));
  ASSERT_TRUE(logs_[2]->wait_view(1, std::chrono::seconds(20)));

  // The first submission after the crash still goes to the dead node and
  // gets through only when its retransmission rotates to the new
  // sequencer.
  services_[3]->submit(kGroup, text("first"));
  ASSERT_TRUE(logs_[1]->wait_count(2, std::chrono::seconds(10)));

  // Every later submission starts at the new sequencer: ten of them, one
  // at a time, take far less than the single retransmit interval each of
  // them would wait out if it were sent to the dead node first.
  const auto deadline = std::chrono::steady_clock::now() + config_.retransmit_interval;
  for (int i = 0; i < 10; ++i) {
    services_[3]->submit(kGroup, text("post-" + std::to_string(i)));
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    ASSERT_TRUE(logs_[1]->wait_count(3 + i, std::max(left, std::chrono::milliseconds(0))))
        << "submission " << i << " not delivered within one retransmit interval";
  }
  ASSERT_TRUE(logs_[2]->wait_count(12, std::chrono::seconds(10)));
  EXPECT_EQ(logs_[1]->snapshot(), logs_[2]->snapshot());
}

/// Member 1's link to the sequencer is slowed past one retransmit
/// interval (but not two), so its submission is retransmitted once; the
/// failure detector is slowed further so the slow link causes no view
/// change.
class GcsMemberRoutingTest : public GcsTest {
 protected:
  GcsMemberRoutingTest()
      : GcsTest(slow_retransmit(std::chrono::milliseconds(200), std::chrono::seconds(5))) {}
};

TEST_F(GcsMemberRoutingTest, MemberSessionKeepsRoutingByItsView) {
  arm_watchdog("gcs member routing", std::chrono::seconds(60));
  const auto self_link = std::make_pair(nodes_[1].value(), nodes_[1].value());
  transport::LinkConfig slow;
  slow.base_latency = std::chrono::duration_cast<common::Duration>(
      std::chrono::duration<double, std::milli>(300) / common::Clock::scale());
  slow.jitter = common::Duration::zero();
  net_->set_link(nodes_[1], nodes_[0], slow);
  net_->set_fault_plan(transport::FaultPlan{});  // records every send

  services_[1]->submit(kGroup, text("slow"));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(logs_[i]->wait_count(1, std::chrono::seconds(10)));
  // The retransmission rotated to the member itself, which forwarded it.
  ASSERT_GT(net_->fault_trace().count(self_link), 0u);

  // Back to a fast link.  FIFO keeps later sends behind those already
  // scheduled on the slow one, so let those land first.
  net_->set_link(nodes_[1], nodes_[0], transport::LinkConfig{});
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  net_->set_fault_plan(transport::FaultPlan{});
  for (int i = 0; i < 10; ++i) {
    services_[1]->submit(kGroup, text("m" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(logs_[i]->wait_count(11, std::chrono::seconds(10)));
  // Later submissions went straight to the view's sequencer, not through
  // the member's own forwarding hop.
  EXPECT_EQ(net_->fault_trace().count(self_link), 0u);
  EXPECT_EQ(logs_[1]->snapshot(), logs_[0]->snapshot());
}

TEST_F(GcsTest, DirectMessagesBypassTotalOrder) {
  std::mutex m;
  std::condition_variable cv;
  std::vector<std::string> got;
  services_[3]->set_direct_handler([&](NodeId src, const common::SharedBytes& payload) {
    const std::lock_guard<std::mutex> guard(m);
    got.push_back(str(payload.to_bytes()) + "@" + std::to_string(src.value()));
    cv.notify_all();
  });
  services_[0]->send_direct(nodes_[3], text("reply"));
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(3), [&] { return !got.empty(); }));
  EXPECT_EQ(got[0], "reply@0");
}

TEST_F(GcsTest, ViewReportsSortedMembersAndSequencer) {
  const View v = services_[0]->current_view(kGroup);
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.sequencer(), nodes_[0]);
  EXPECT_TRUE(std::is_sorted(v.members.begin(), v.members.end()));
  EXPECT_TRUE(v.contains(nodes_[1]));
  EXPECT_FALSE(v.contains(nodes_[3]));
}

}  // namespace
}  // namespace adets::gcs
