// Interaction-pattern tests from the paper's Sec. 2 motivation:
//  - the asynchronous-request-plus-condvar-callback pattern ("a thread
//    might ... first issue an asynchronous external request, and then
//    wait on a condition variable for the notification by a call-back of
//    the external service");
//  - deep nested invocation chains (A -> B -> C);
//  - multi-failure group-communication behaviour (5-member group losing
//    two members, including the sequencer).
#include <gtest/gtest.h>

#include <thread>

#include "replication/consistency.hpp"
#include "runtime/cluster.hpp"
#include "workload/objects.hpp"

namespace adets::runtime {
namespace {

using common::Bytes;
using common::CondVarId;
using common::GroupId;
using common::MutexId;
using sched::SchedulerKind;
using workload::pack_u64;
using workload::unpack_u64;

class InteractionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_scale_ = common::Clock::scale();
    common::Clock::set_scale(0.01);
  }
  void TearDown() override { common::Clock::set_scale(saved_scale_); }
  double saved_scale_ = 1.0;
};

/// Front object of the async-callback pattern.  "submit_job" sends a
/// one-way request to the worker group and waits on a condition variable
/// until the worker's callback ("job_done") delivers the result.
class AsyncRequester : public ReplicatedObject {
 public:
  explicit AsyncRequester(GroupId worker, GroupId self) : worker_(worker), self_(self) {}

  Bytes dispatch(const std::string& method, const Bytes& args, SyncContext& ctx) override {
    const MutexId m(1);
    const CondVarId done(1);
    if (method == "submit_job") {
      const auto a = unpack_u64(args);
      DetLock lock(ctx, m);
      // Paper Sec. 2: asynchronous external request, then wait for the
      // callback to signal completion.
      ctx.invoke_oneway(worker_, "run_job", pack_u64(self_.value(), a.at(0)));
      while (result_ == 0) {
        const bool notified = ctx.wait(m, done, common::paper_ms(2000));
        if (!notified && result_ == 0) return pack_u64(0);  // gave up
      }
      const std::uint64_t result = result_;
      result_ = 0;
      return pack_u64(result);
    }
    if (method == "job_done") {
      const auto a = unpack_u64(args);
      DetLock lock(ctx, m);
      result_ = a.at(0);
      ctx.notify_all(m, done);
      return {};
    }
    throw std::invalid_argument("unknown method " + method);
  }
  [[nodiscard]] std::uint64_t state_hash() const override { return result_; }

 private:
  GroupId worker_;
  GroupId self_;
  std::uint64_t result_ = 0;
};

/// Worker: computes and calls back asynchronously.
class AsyncWorker : public ReplicatedObject {
 public:
  Bytes dispatch(const std::string& method, const Bytes& args, SyncContext& ctx) override {
    if (method == "run_job") {
      const auto a = unpack_u64(args);
      ctx.compute(common::paper_ms(5));
      ctx.invoke_oneway(GroupId(static_cast<std::uint32_t>(a.at(0))), "job_done",
                        pack_u64(a.at(1) * 2));
      return {};
    }
    throw std::invalid_argument("unknown method " + method);
  }
};

class AsyncCallbackSchedulers : public InteractionTest,
                                public ::testing::WithParamInterface<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, AsyncCallbackSchedulers,
                         ::testing::Values(SchedulerKind::kSat, SchedulerKind::kMat,
                                           SchedulerKind::kLsa, SchedulerKind::kPds),
                         [](const auto& info) { return sched::to_string(info.param); });

TEST_P(AsyncCallbackSchedulers, AsyncRequestThenCondvarCallback) {
  Cluster cluster;
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  const GroupId requester_id(1);
  const GroupId worker_id(2);
  const GroupId requester = cluster.create_group(
      3, GetParam(),
      [=] { return std::make_unique<AsyncRequester>(worker_id, requester_id); }, config);
  const GroupId worker = cluster.create_group(
      3, SchedulerKind::kMat, [] { return std::make_unique<AsyncWorker>(); });
  ASSERT_EQ(requester, requester_id);
  ASSERT_EQ(worker, worker_id);

  Client& client = cluster.create_client();
  const auto result = unpack_u64(client.invoke(requester, "submit_job", pack_u64(21)));
  EXPECT_EQ(result[0], 42u);
  // submit_job + job_done on the requester group.
  ASSERT_TRUE(cluster.wait_drained(requester, 2));
  EXPECT_TRUE(repl::check_group(cluster, requester).consistent());
}

/// "start" holds mutex 1 across a one-way call to a relay group, whose
/// one-way "poke" comes back and takes mutex 1 too.  The state records
/// whether "poke" got the mutex while "start" still held it (2), after
/// it (1), or has not run (0).
class OneWayIssuer : public ReplicatedObject {
 public:
  OneWayIssuer(GroupId relay, GroupId self) : relay_(relay), self_(self) {}

  Bytes dispatch(const std::string& method, const Bytes&, SyncContext& ctx) override {
    const MutexId m(1);
    DetLock lock(ctx, m);
    if (method == "start") {
      in_cs_ = true;
      ctx.invoke_oneway(relay_, "relay", pack_u64(self_.value()));
      ctx.compute(common::paper_ms(200));
      in_cs_ = false;
      return {};
    }
    if (method == "poke") {
      poke_ = in_cs_ ? 2 : 1;
      return {};
    }
    throw std::invalid_argument("unknown method " + method);
  }
  [[nodiscard]] std::uint64_t state_hash() const override { return poke_; }

 private:
  GroupId relay_;
  GroupId self_;
  bool in_cs_ = false;
  std::uint64_t poke_ = 0;
};

/// Relay: calls "poke" one-way on group args[0].
class OneWayRelay : public ReplicatedObject {
 public:
  Bytes dispatch(const std::string&, const Bytes& args, SyncContext& ctx) override {
    ctx.invoke_oneway(GroupId(static_cast<std::uint32_t>(unpack_u64(args).at(0))),
                      "poke", {});
    return {};
  }
};

TEST_P(AsyncCallbackSchedulers, OneWayCallDoesNotEnterTheMutexItsIssuerHolds) {
  Cluster cluster;
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  const GroupId issuer_id(1);
  const GroupId relay_id(2);
  const GroupId issuer = cluster.create_group(
      3, GetParam(), [=] { return std::make_unique<OneWayIssuer>(relay_id, issuer_id); },
      config);
  const GroupId relay = cluster.create_group(
      3, SchedulerKind::kMat, [] { return std::make_unique<OneWayRelay>(); });
  ASSERT_EQ(issuer, issuer_id);
  ASSERT_EQ(relay, relay_id);

  Client& client = cluster.create_client();
  client.invoke(issuer, "start", {});
  // start + poke on the issuer group.
  ASSERT_TRUE(cluster.wait_drained(issuer, 2));
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.replica(issuer, r).state_hash(), 1u) << "replica " << r;
  }
  EXPECT_TRUE(repl::check_group(cluster, issuer).consistent());
}

/// Three-level nested chain: Front -> Middle -> EchoService.
class ChainFront : public ReplicatedObject {
 public:
  explicit ChainFront(GroupId next) : next_(next) {}
  Bytes dispatch(const std::string& method, const Bytes& args, SyncContext& ctx) override {
    if (method != "run") throw std::invalid_argument("unknown method");
    DetLock lock(ctx, MutexId(0));
    calls_++;
    const auto below = unpack_u64(ctx.invoke(next_, "run", args));
    return pack_u64(below.at(0) + 1);
  }
  [[nodiscard]] std::uint64_t state_hash() const override { return calls_; }

 private:
  GroupId next_;
  std::uint64_t calls_ = 0;
};

class ChainMiddle : public ReplicatedObject {
 public:
  explicit ChainMiddle(GroupId next) : next_(next) {}
  Bytes dispatch(const std::string& method, const Bytes& args, SyncContext& ctx) override {
    if (method != "run") throw std::invalid_argument("unknown method");
    ctx.compute(common::paper_ms(2));
    ctx.invoke(next_, "delay", pack_u64(1));
    (void)args;
    return pack_u64(1);
  }

 private:
  GroupId next_;
};

TEST_P(AsyncCallbackSchedulers, DepthTwoNestedChainCompletes) {
  Cluster cluster;
  sched::SchedulerConfig config;
  config.pds_thread_pool = 3;
  const GroupId middle_id(2);
  const GroupId leaf_id(3);
  const GroupId front = cluster.create_group(
      3, GetParam(), [=] { return std::make_unique<ChainFront>(middle_id); }, config);
  const GroupId middle = cluster.create_group(
      3, SchedulerKind::kSat, [=] { return std::make_unique<ChainMiddle>(leaf_id); });
  const GroupId leaf = cluster.create_group(
      3, SchedulerKind::kMat, [] { return std::make_unique<workload::EchoService>(); });
  ASSERT_EQ(middle, middle_id);
  ASSERT_EQ(leaf, leaf_id);

  Client& client = cluster.create_client();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(unpack_u64(client.invoke(front, "run", {}))[0], 2u);
  }
  ASSERT_TRUE(cluster.wait_drained(front, 3));
  EXPECT_TRUE(repl::check_group(cluster, front).consistent());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.replica(front, r).state_hash(), 3u);
  }
}

TEST_F(InteractionTest, FiveMemberGroupSurvivesTwoFailures) {
  Cluster cluster;
  const GroupId bank = cluster.create_group(
      5, SchedulerKind::kSat, [] { return std::make_unique<workload::BankAccounts>(2); });
  Client& client = cluster.create_client();
  for (int i = 0; i < 5; ++i) client.invoke(bank, "deposit", pack_u64(0, 10));

  cluster.crash_replica(bank, 0);  // the sequencer
  for (int i = 0; i < 5; ++i) {
    client.invoke(bank, "deposit", pack_u64(0, 10), std::chrono::seconds(30));
  }
  cluster.crash_replica(bank, 1);  // the new sequencer
  for (int i = 0; i < 5; ++i) {
    client.invoke(bank, "deposit", pack_u64(0, 10), std::chrono::seconds(30));
  }
  const auto balance =
      unpack_u64(client.invoke(bank, "balance", pack_u64(0), std::chrono::seconds(30)));
  EXPECT_EQ(balance[0], 150u);
  // Survivors agree once each has applied all 16 requests (the reply
  // comes from the fastest replica; the others may still be applying).
  ASSERT_TRUE(cluster.wait_drained(bank, 16));
  EXPECT_EQ(cluster.replica(bank, 2).state_hash(), cluster.replica(bank, 3).state_hash());
  EXPECT_EQ(cluster.replica(bank, 2).state_hash(), cluster.replica(bank, 4).state_hash());
}

}  // namespace
}  // namespace adets::runtime
