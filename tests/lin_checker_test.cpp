// Linearizability checker: negative controls and acceptance cases.
//
// The checker is only trustworthy if it (a) accepts histories that have
// a witness ordering and (b) rejects the classic anomalies — stale
// read, lost update — with a *small, true* counterexample.  The rejection cases here are hand-crafted, plus one
// end-to-end run against a real cluster wired with the RacyScheduler
// (the deliberately nondeterministic test double): first-reply-wins
// over diverging replicas must eventually hand the client an
// impossible pair of observations, and the checker must catch it.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/serialization.hpp"
#include "lin/checker.hpp"
#include "lin/history.hpp"
#include "lin/recorder.hpp"
#include "lin/spec.hpp"
#include "racy_scheduler.hpp"
#include "runtime/cluster.hpp"
#include "watchdog.hpp"
#include "workload/kvstore.hpp"

namespace adets {
namespace {

using lin::CheckOptions;
using lin::CheckResult;
using lin::History;
using lin::Operation;

common::Bytes bool_result(bool value) {
  common::Writer w;
  w.boolean(value);
  return w.take();
}

common::Bytes get_result(bool exists, const std::string& value) {
  common::Writer w;
  w.boolean(exists);
  w.str(value);
  return w.take();
}

common::Bytes u64_result(std::uint64_t value) {
  common::Writer w;
  w.u64(value);
  return w.take();
}

Operation op(std::uint64_t client, std::uint64_t invoke, std::uint64_t response,
             const std::string& method, common::Bytes args,
             common::Bytes result) {
  Operation o;
  o.client = client;
  o.invoke_stamp = invoke;
  o.response_stamp = response;
  o.method = method;
  o.args = std::move(args);
  o.result = std::move(result);
  return o;
}

Operation pending_op(std::uint64_t client, std::uint64_t invoke,
                     const std::string& method, common::Bytes args) {
  return op(client, invoke, 0, method, std::move(args), {});
}

// --- acceptance ------------------------------------------------------------

TEST(LinChecker, AcceptsSequentialRun) {
  History h;
  h.ops = {
      op(0, 1, 2, "put", workload::KvStore::pack_put("k", "a"), bool_result(false)),
      op(0, 3, 4, "get", workload::KvStore::pack_key("k"), get_result(true, "a")),
      op(0, 5, 6, "remove", workload::KvStore::pack_key("k"), bool_result(true)),
      op(0, 7, 8, "get", workload::KvStore::pack_key("k"), get_result(false, "")),
  };
  const CheckResult result = check_history(h, lin::KvSpec{});
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(LinChecker, AcceptsOverlappingGetSeeingEitherValue) {
  // get overlaps the put: both the old and the new value are legal.
  for (const std::string& observed : {std::string(""), std::string("b")}) {
    History h;
    h.ops = {
        op(0, 1, 2, "put", workload::KvStore::pack_put("k", "a"), bool_result(false)),
        op(0, 3, 4, "remove", workload::KvStore::pack_key("k"), bool_result(true)),
        op(0, 5, 8, "put", workload::KvStore::pack_put("k", "b"), bool_result(false)),
        op(1, 6, 7, "get", workload::KvStore::pack_key("k"),
           get_result(!observed.empty(), observed)),
    };
    const CheckResult result = check_history(h, lin::KvSpec{});
    EXPECT_TRUE(result.linearizable)
        << "observed \"" << observed << "\": " << result.explanation;
  }
}

TEST(LinChecker, AcceptsPendingOpWhoseEffectWasObserved) {
  // The put timed out at the client but executed inside the group: a
  // later get observes its value.  Legal — the pending op linearizes.
  History h;
  h.ops = {
      pending_op(0, 1, "put", workload::KvStore::pack_put("k", "a")),
      op(1, 2, 3, "get", workload::KvStore::pack_key("k"), get_result(true, "a")),
  };
  const CheckResult result = check_history(h, lin::KvSpec{});
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(LinChecker, AcceptsPendingOpThatNeverExecuted) {
  History h;
  h.ops = {
      pending_op(0, 1, "put", workload::KvStore::pack_put("k", "a")),
      op(1, 2, 3, "get", workload::KvStore::pack_key("k"), get_result(false, "")),
  };
  const CheckResult result = check_history(h, lin::KvSpec{});
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(LinChecker, PartitionsPerKeyAndCollapsesOnSize) {
  History h;
  h.ops = {
      op(0, 1, 2, "put", workload::KvStore::pack_put("a", "1"), bool_result(false)),
      op(1, 3, 4, "put", workload::KvStore::pack_put("b", "2"), bool_result(false)),
  };
  const CheckResult partitioned = check_history(h, lin::KvSpec{});
  EXPECT_TRUE(partitioned.linearizable);
  EXPECT_EQ(partitioned.partitions, 2u);

  h.ops.push_back(op(0, 5, 6, "size", {}, u64_result(2)));
  const CheckResult collapsed = check_history(h, lin::KvSpec{});
  EXPECT_TRUE(collapsed.linearizable) << collapsed.explanation;
  EXPECT_EQ(collapsed.partitions, 1u);
}

TEST(LinChecker, BudgetExhaustionIsInconclusiveNotRejection) {
  History h;
  h.ops = {
      op(0, 1, 4, "put", workload::KvStore::pack_put("k", "a"), bool_result(false)),
      op(1, 2, 3, "get", workload::KvStore::pack_key("k"), get_result(true, "a")),
  };
  CheckOptions options;
  options.max_states = 1;
  const CheckResult result = check_history(h, lin::KvSpec{}, options);
  EXPECT_FALSE(result.linearizable);
  EXPECT_TRUE(result.exhausted_budget);
  EXPECT_TRUE(result.counterexample.empty());
}

// --- negative controls -----------------------------------------------------

TEST(LinChecker, RejectsStaleRead) {
  // put(k,b) completed strictly before the get, yet the get saw "a".
  History h;
  h.ops = {
      op(0, 1, 2, "put", workload::KvStore::pack_put("k", "a"), bool_result(false)),
      op(0, 3, 4, "put", workload::KvStore::pack_put("k", "b"), bool_result(true)),
      op(1, 5, 6, "get", workload::KvStore::pack_key("k"), get_result(true, "a")),
  };
  const CheckResult result = check_history(h, lin::KvSpec{});
  ASSERT_FALSE(result.linearizable);
  ASSERT_FALSE(result.exhausted_budget);
  EXPECT_LE(result.counterexample_events(), 10u);
  EXPECT_FALSE(result.counterexample.empty());
  EXPECT_NE(result.explanation.find("get(k)"), std::string::npos)
      << result.explanation;
}

TEST(LinChecker, RejectsLostUpdate) {
  // Two puts on a fresh key both claim existed=false: whatever order
  // they take, the second must have seen the first.
  History h;
  h.ops = {
      op(0, 1, 3, "put", workload::KvStore::pack_put("k", "a"), bool_result(false)),
      op(1, 2, 4, "put", workload::KvStore::pack_put("k", "b"), bool_result(false)),
  };
  const CheckResult result = check_history(h, lin::KvSpec{});
  ASSERT_FALSE(result.linearizable);
  EXPECT_LE(result.counterexample_events(), 10u);
  EXPECT_EQ(result.counterexample.size(), 2u);
}

TEST(LinChecker, RejectsUnknownMethod) {
  History h;
  h.ops = {op(0, 1, 2, "mystery", {}, {})};
  const CheckResult result = check_history(h, lin::KvSpec{});
  EXPECT_FALSE(result.linearizable);
}

// The counterexample must be a true event-prefix witness: re-checking
// it standalone must reproduce the rejection (guards against the
// minimizer "shrinking" into a history that is actually fine).
TEST(LinChecker, CounterexampleIsItselfNonLinearizable) {
  History h;
  h.ops = {
      op(0, 1, 2, "put", workload::KvStore::pack_put("k", "a"), bool_result(false)),
      op(0, 3, 4, "put", workload::KvStore::pack_put("k", "b"), bool_result(true)),
      op(1, 5, 6, "get", workload::KvStore::pack_key("k"), get_result(true, "a")),
      op(0, 7, 8, "get", workload::KvStore::pack_key("k"), get_result(true, "b")),
  };
  const CheckResult result = check_history(h, lin::KvSpec{});
  ASSERT_FALSE(result.linearizable);
  History minimal;
  minimal.ops = result.counterexample;
  const CheckResult recheck = check_history(minimal, lin::KvSpec{});
  EXPECT_FALSE(recheck.linearizable);
}

// --- history file pinning --------------------------------------------------

std::string data_path(const std::string& name) {
  return std::string(ADETS_SOURCE_DIR) + "/tests/data/" + name;
}

TEST(LinHistoryFile, SampleFilesPinTheVerdicts) {
  {
    std::ifstream in(data_path("kv_ok.history"));
    ASSERT_TRUE(in.is_open());
    std::string error;
    const auto loaded = lin::load_history(in, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->spec_name, "kv");
    EXPECT_TRUE(check_history(loaded->history, lin::KvSpec{}).linearizable);
  }
  {
    std::ifstream in(data_path("kv_stale_read.history"));
    ASSERT_TRUE(in.is_open());
    std::string error;
    const auto loaded = lin::load_history(in, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    const CheckResult result = check_history(loaded->history, lin::KvSpec{});
    EXPECT_FALSE(result.linearizable);
    EXPECT_LE(result.counterexample_events(), 10u);
  }
}

TEST(LinHistoryFile, RoundTripsThroughText) {
  History h;
  h.ops = {
      op(0, 1, 4, "put", workload::KvStore::pack_put("k", "a"), bool_result(false)),
      pending_op(1, 2, "get", workload::KvStore::pack_key("k")),
  };
  const std::string text = lin::history_to_text(h, "kv");
  std::istringstream in(text);
  std::string error;
  const auto loaded = lin::load_history(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->spec_name, "kv");
  ASSERT_EQ(loaded->history.ops.size(), 2u);
  EXPECT_EQ(loaded->history.ops[0], h.ops[0]);
  EXPECT_EQ(loaded->history.ops[1], h.ops[1]);
}

TEST(LinHistoryFile, RejectsMalformedRecords) {
  const auto rejects = [](const std::string& text) {
    std::istringstream in(text);
    std::string error;
    const auto loaded = lin::load_history(in, &error);
    EXPECT_FALSE(loaded.has_value()) << text;
    EXPECT_FALSE(error.empty());
  };
  rejects("op 0 1 2 put xyz -\n");          // bad hex
  rejects("op 0 0 2 put - -\n");            // invoke stamp 0 reserved
  rejects("op 0 3 2 put - -\n");            // response before invoke
  rejects("op 0 1 pending put - 00\n");     // pending with result
  rejects("bogus record\n");                // unknown tag
}

// --- end-to-end negative control: RacyScheduler cluster --------------------

// Rounds of concurrent fresh-key puts against a 3-replica group wired
// with the RacyScheduler.  Replicas grant locks in different real-time
// orders, so first-reply-wins eventually hands the clients existed
// flags no single order explains (two fresh puts, or none).  Keys are
// per-round, so P-compositionality keeps the counterexample inside one
// round: at most 4 puts = 8 events.
TEST(LinRacyCluster, RacySchedulerYieldsNonLinearizableHistory) {
  constexpr int kPutters = 4;
  constexpr int kRounds = 60;

  // Declared before the cluster, so it also covers the cluster's teardown.
  const testing::Watchdog watchdog("racy lin cluster run and teardown",
                                  std::chrono::seconds(120));
  runtime::Cluster cluster;
  const auto group = cluster.create_group(
      3, [] { return std::make_unique<testing::RacyScheduler>(); },
      [] { return std::make_unique<workload::KvStore>(); });
  std::vector<runtime::Client*> clients;
  for (int c = 0; c < kPutters; ++c) clients.push_back(&cluster.create_client());

  lin::HistoryRecorder recorder(kPutters);
  CheckResult verdict;
  bool caught = false;
  for (int round = 0; round < kRounds && !caught; ++round) {
    const std::string key = "r" + std::to_string(round);
    std::vector<std::thread> workers;
    for (int c = 0; c < kPutters; ++c) {
      workers.emplace_back([&, c] {
        lin::RecordingClient recording(*clients[static_cast<std::size_t>(c)],
                                       recorder.client(static_cast<std::size_t>(c)));
        try {
          recording.invoke(group, "put",
                           workload::KvStore::pack_put(key, "v" + std::to_string(c)),
                           std::chrono::seconds(30));
        } catch (const std::exception&) {
          // Timed out: the op stays pending in the history, which the
          // checker handles soundly.
        }
      });
    }
    for (auto& w : workers) w.join();
    verdict = check_history(recorder.merge(), lin::KvSpec{});
    caught = !verdict.linearizable && !verdict.exhausted_budget;
  }

  ASSERT_TRUE(caught)
      << "racy scheduler produced only linearizable observations across "
      << kRounds << " rounds";
  EXPECT_LE(verdict.counterexample_events(), 10u) << verdict.explanation;
  EXPECT_FALSE(verdict.explanation.empty());
}

}  // namespace
}  // namespace adets
