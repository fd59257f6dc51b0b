// adets-sa auditor tests: program-model parsing on in-memory sources,
// per-rule checks for each pass (pass 5, the determinism lint, as one
// table of path/source/expected-findings rows), seeded negative-control
// fixtures under tests/sa_fixtures (each must yield exactly one
// finding), and the whole-tree positive control (src/ must audit clean).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "model.hpp"
#include "sa.hpp"

namespace {

using adets::sa::Finding;
using adets::sa::Program;

Program parse(const std::string& content, const std::string& path = "mem.hpp") {
  Program prog;
  prog.parse_file(path, content);
  prog.finalize();
  return prog;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

using Hits = std::vector<std::pair<std::string, int>>;  // (rule, line)

// --- program model ---------------------------------------------------------

TEST(SaModelTest, ParsesClassFieldsAndAnnotations) {
  const Program prog = parse(R"(
    namespace demo {
    class Box {
     public:
      void put(int v);
     private:
      mutable common::Mutex mu_{"demo"};
      int value_ ADETS_GUARDED_BY(mu_) = 0;
      int loose_ = 0;
      const int limit_ = 4;
      std::atomic<bool> flag_{false};
    };
    }  // namespace demo
  )");
  const int idx = prog.find_class("demo::Box");
  ASSERT_GE(idx, 0);
  const auto& c = prog.classes[idx];
  EXPECT_TRUE(c.owns_mutex());
  ASSERT_EQ(c.fields.size(), 5u);
  EXPECT_TRUE(c.fields[0].is_mutex);
  EXPECT_EQ(c.fields[1].guarded_by, "mu_");
  EXPECT_TRUE(c.fields[2].guarded_by.empty());
  EXPECT_TRUE(c.fields[3].is_const);
  EXPECT_TRUE(c.fields[4].is_atomic);
}

TEST(SaModelTest, MergesOutOfClassDefinitionWithDeclaration) {
  const Program prog = parse(R"(
    class Svc {
     public:
      void tick();
     private:
      void locked_step() ADETS_REQUIRES(mu_);
      common::Mutex mu_{"svc"};
    };
    void Svc::tick() {
      const common::MutexLock guard(mu_);
      locked_step();
    }
    void Svc::locked_step() { }
  )");
  bool found = false;
  for (const auto& fn : prog.functions) {
    if (fn.name == "locked_step" && fn.has_body) {
      found = true;
      ASSERT_EQ(fn.requires_held.size(), 1u);
      EXPECT_EQ(fn.requires_held[0], "mu_");
      EXPECT_FALSE(fn.is_public);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SaModelTest, TracksScopedLockAcquisitionOrder) {
  const Program prog = parse(R"(
    class Two {
      void nest() {
        const common::MutexLock a(first_);
        const common::MutexLock b(second_);
      }
      common::Mutex first_{"a"};
      common::Mutex second_{"b"};
    };
  )");
  const adets::sa::Function* nest = nullptr;
  for (const auto& fn : prog.functions) {
    if (fn.name == "nest") nest = &fn;
  }
  ASSERT_NE(nest, nullptr);
  ASSERT_EQ(nest->acquisitions.size(), 2u);
  EXPECT_TRUE(nest->acquisitions[0].held.empty());
  ASSERT_EQ(nest->acquisitions[1].held.size(), 1u);
  EXPECT_EQ(nest->acquisitions[1].held[0], "Two::first_");
}

TEST(SaModelTest, SiblingNestedClassesKeepTheOuterScopeName) {
  // Each nested class grows prog.classes; the outer class's name must
  // survive the reallocation while its body is still being parsed.
  const Program prog = parse(
      "namespace demo { class Outer { struct A { int x; }; struct B { int y; }; "
      "struct C { int z; }; int tail_ = 0; }; }");
  std::vector<std::string> names;
  for (const auto& c : prog.classes) names.push_back(c.name);
  EXPECT_EQ(names, (std::vector<std::string>{"demo::Outer", "demo::Outer::A",
                                             "demo::Outer::B", "demo::Outer::C"}));
}

TEST(SaModelTest, NestedClassScopeClosesAfterFriendDefinition) {
  const Program prog = parse(R"(
    class Outer {
      struct Key {
        int due;
        friend bool operator<(const Key& a, const Key& b) {
          return a.due < b.due;
        }
      };
      common::Mutex mu_{"outer"};
      int counter_ ADETS_GUARDED_BY(mu_) = 0;
    };
  )");
  const int outer = prog.find_class("Outer");
  ASSERT_GE(outer, 0);
  // counter_ must land on Outer, not on the nested Key.
  bool found = false;
  for (const auto& f : prog.classes[outer].fields) {
    if (f.name == "counter_") found = true;
  }
  EXPECT_TRUE(found);
}

// --- passes on in-memory sources -------------------------------------------

TEST(SaPassTest, RequiresUnheldFlagged) {
  const Program prog = parse(R"(
    class Svc {
     public:
      void bad() { locked_step(); }
      void good() {
        const common::MutexLock guard(mu_);
        locked_step();
      }
     private:
      void locked_step() ADETS_REQUIRES(mu_);
      common::Mutex mu_{"svc"};
    };
    void Svc::locked_step() { }
  )");
  const auto findings = adets::sa::lock_graph_pass(prog);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "requires-unheld");
}

TEST(SaPassTest, ThreeLockCycleAcrossMethodsFlagged) {
  const Program prog = parse(R"(
    class Ring {
      void ab() {
        const common::MutexLock x(a_);
        const common::MutexLock y(b_);
      }
      void bc() {
        const common::MutexLock x(b_);
        const common::MutexLock y(c_);
      }
      void ca() {
        const common::MutexLock x(c_);
        const common::MutexLock y(a_);
      }
      common::Mutex a_{"a"};
      common::Mutex b_{"b"};
      common::Mutex c_{"c"};
    };
  )");
  const auto findings = adets::sa::lock_graph_pass(prog);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-cycle");
  for (const char* edge : {"Ring::a_ -> Ring::b_ at mem.hpp:5",
                           "Ring::b_ -> Ring::c_ at mem.hpp:9",
                           "Ring::c_ -> Ring::a_ at mem.hpp:13"}) {
    EXPECT_NE(findings[0].message.find(edge), std::string::npos) << edge;
  }
}

TEST(SaPassTest, InversionThroughCalleeFlagged) {
  // outer() holds a_ and calls helper(), which takes b_: the a_ -> b_
  // edge exists only through the may-acquire fixpoint.
  const Program prog = parse(R"(
    class Inv {
      void outer() {
        const common::MutexLock x(a_);
        helper();
      }
      void helper() { const common::MutexLock y(b_); }
      void reverse() {
        const common::MutexLock y(b_);
        const common::MutexLock x(a_);
      }
      common::Mutex a_{"a"};
      common::Mutex b_{"b"};
    };
  )");
  const auto findings = adets::sa::lock_graph_pass(prog);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-cycle");
  EXPECT_NE(findings[0].message.find("Inv::a_ -> Inv::b_ at mem.hpp:5"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("Inv::b_ -> Inv::a_ at mem.hpp:10"),
            std::string::npos);
}

TEST(SaPassTest, CondvarWaitWithUnguardedStateFlagged) {
  const Program prog = parse(R"(
    class Waiter {
      void block() {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock);
      }
      std::mutex mu_;
      std::condition_variable cv_;
      bool ready_ = false;
    };
  )");
  const auto findings = adets::sa::guard_pass(prog);
  EXPECT_TRUE(has_rule(findings, "unguarded-field"));
  EXPECT_TRUE(has_rule(findings, "condvar-unguarded"));
}

TEST(SaPassTest, StaticGuardAnnotationSatisfiesGuardPass) {
  const Program prog = parse(R"(
    class Waiter {
      void block() {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock);
      }
      std::mutex mu_;
      std::condition_variable cv_;
      bool ready_ ADETS_GUARDED_BY_STATIC(mu_) = false;
    };
  )");
  EXPECT_TRUE(adets::sa::guard_pass(prog).empty());
}

TEST(SaPassTest, PublicRequiresFlaggedUnlessLockPassing) {
  const Program prog = parse(R"(
    class Svc {
     public:
      void exposed() ADETS_REQUIRES(mu_);
      void handled(Lk& lk) ADETS_REQUIRES(mu_);
     private:
      common::Mutex mu_{"svc"};
    };
  )");
  const auto findings = adets::sa::guard_pass(prog);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "public-requires");
  EXPECT_NE(findings[0].message.find("exposed"), std::string::npos);
}

TEST(SaPassTest, TaintSinkScopedToSchedClasses) {
  // Same body, but only the sched-scoped class (by base) is audited.
  const char* body = R"(
    class %NAME% %BASE% {
      void stamp() {
        last_ = common::Clock::now();
      }
      common::TimePoint last_;
    };
  )";
  std::string sched_src(body);
  sched_src.replace(sched_src.find("%NAME%"), 6, "Strat");
  sched_src.replace(sched_src.find("%BASE%"), 6, ": public sched::SchedulerBase");
  std::string plain_src(body);
  plain_src.replace(plain_src.find("%NAME%"), 6, "Gcs");
  plain_src.replace(plain_src.find("%BASE%"), 6, "");

  const auto sched_findings = adets::sa::taint_pass(parse(sched_src));
  ASSERT_EQ(sched_findings.size(), 1u);
  EXPECT_EQ(sched_findings[0].rule, "det-taint");

  EXPECT_TRUE(adets::sa::taint_pass(parse(plain_src)).empty());
}

// --- interprocedural effects -----------------------------------------------

TEST(SaEffectsTest, BlockingUnderMonitorPropagatesWithWitnessChain) {
  const Program prog = parse(R"(
    class Strat : public sched::SchedulerBase {
     public:
      void pump() {
        const common::MutexLock guard(mon_);
        drain();
      }
     private:
      void drain() { settle(); }
      void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }
      common::Mutex mon_{"m"};
    };
  )");
  const auto findings = adets::sa::effects_pass(prog);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "blocking-under-monitor");
  EXPECT_NE(findings[0].message.find("pump"), std::string::npos);
  EXPECT_NE(findings[0].message.find("drain"), std::string::npos);
  EXPECT_NE(findings[0].message.find("blocks at"), std::string::npos);
  EXPECT_NE(findings[0].message.find("sleep_for"), std::string::npos);
}

TEST(SaEffectsTest, NonBlockingAnnotationStopsPropagation) {
  const Program prog = parse(R"(
    class Strat : public sched::SchedulerBase {
     public:
      void pump() {
        const common::MutexLock guard(mon_);
        drain();
      }
     private:
      // Never actually parks (the fixture's claim, not checked here).
      void drain() ADETS_NON_BLOCKING { settle(); }
      void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }
      common::Mutex mon_{"m"};
    };
  )");
  EXPECT_TRUE(adets::sa::effects_pass(prog).empty());
}

TEST(SaEffectsTest, DeferredLambdaCallDoesNotPropagateBlocking) {
  const Program prog = parse(R"(
    class Strat : public sched::SchedulerBase {
     public:
      void pump() {
        const common::MutexLock guard(mon_);
        schedule([this] { settle(); });
      }
     private:
      void schedule(std::function<void()> fn);
      void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }
      common::Mutex mon_{"m"};
    };
  )");
  EXPECT_TRUE(adets::sa::effects_pass(prog).empty());
}

// One row per SchedulerBase strategy hook: each is a grant-path root on
// its own, so a clock read that only it reaches, through a helper, is
// reported.
TEST(SaEffectsTest, GrantPathAuditedInterprocedurally) {
  const std::vector<std::string> hooks = {
      "handle_request",     "handle_reply",      "base_lock",
      "base_unlock",        "base_wait",         "resume_waiter",
      "base_before_nested", "base_after_nested", "on_thread_done",
      "on_thread_start"};
  for (const std::string& hook : hooks) {
    const Program prog = parse(R"(
      class Strat : public sched::SchedulerBase {
       public:
        void )" + hook + R"((int tid) { stamp(tid); }
       private:
        void stamp(int tid) {
          last_grant_ = common::Clock::now();
        }
        common::TimePoint last_grant_;
      };
    )");
    const auto findings = adets::sa::effects_pass(prog);
    EXPECT_TRUE(has_rule(findings, "grant-path-taint")) << hook;
    EXPECT_TRUE(has_rule(findings, "grant-path-write")) << hook;
  }
}

TEST(SaEffectsTest, MayBlockBoundaryCutsGrantPath) {
  const Program prog = parse(R"(
    class Strat : public sched::SchedulerBase {
     public:
      void handle_request(int tid) { resubmit(tid); }
     private:
      // Control re-enters the total order here: not part of the decision.
      void resubmit(int tid) ADETS_MAY_BLOCK {
        last_grant_ = common::Clock::now();
      }
      common::TimePoint last_grant_;
    };
  )");
  EXPECT_TRUE(adets::sa::effects_pass(prog).empty());
}

// --- suppressions ----------------------------------------------------------

TEST(SaAllowTest, AllowWithReasonSuppressesLine) {
  const auto allows = adets::sa::collect_allows(
      "a.hpp", adets::sa::preprocess(
                   "// adets-sa:allow(unguarded-field) guarded by construction order\n"
                   "int x_;\n"));
  EXPECT_TRUE(allows.bad.empty());
  ASSERT_EQ(allows.by_line.count(1), 1u);
  ASSERT_EQ(allows.by_line.count(2), 1u);  // bare allow covers next line
  EXPECT_EQ(allows.by_line.at(2).count("unguarded-field"), 1u);
}

TEST(SaAllowTest, AllowWithoutReasonIsItselfAFinding) {
  const auto allows = adets::sa::collect_allows(
      "a.hpp", adets::sa::preprocess("int x_;  // adets-sa:allow(unguarded-field)\n"));
  ASSERT_EQ(allows.bad.size(), 1u);
  EXPECT_EQ(allows.bad[0].rule, "bad-allow");
  EXPECT_TRUE(allows.by_line.empty());
}

TEST(SaAllowTest, AllowInsideStringLiteralIgnored) {
  const auto allows = adets::sa::collect_allows(
      "a.hpp", adets::sa::preprocess(
                   "const char* s = \"adets-sa:allow(unguarded-field) nope\";\n"));
  EXPECT_TRUE(allows.bad.empty());
  EXPECT_TRUE(allows.by_line.empty());
}

TEST(SaAllowTest, AllowNamesOneRuleAcrossPasses) {
  // Line 3 trips pass 2 (unguarded field) and pass 5 (raw std type);
  // an allow for one leaves the other reported.
  const std::string field =
      "class Pool {\n"
      "  common::Mutex mu_{\"pool\"};\n"
      "  std::size_t slot_bytes_ = sizeof(std::mutex);";
  const std::string path = "src/sched/pool.hpp";
  Hits hits;
  for (const auto& f : adets::sa::scan_source(path, field + "\n};\n")) {
    hits.emplace_back(f.rule, f.line);
  }
  EXPECT_EQ(hits, (Hits{{"raw-mutex", 3}, {"unguarded-field", 3}}));
  const auto findings = adets::sa::scan_source(
      path, field + "  // adets-sa:allow(raw-mutex) sizing only, never locked\n};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unguarded-field");
  EXPECT_EQ(findings[0].line, 3);
}

// --- pass 5: determinism lint ----------------------------------------------

struct LexicalCase {
  std::string path;
  std::string source;
  Hits expected;
};

/// (rule, line) of every pass-5 finding -- and bad-allow, which any
/// source can trip -- in report order.
Hits lexical_hits(const std::string& path, const std::string& source) {
  static const std::set<std::string> kRules = {
      "wall-clock", "thread-id", "randomness", "unordered-iter", "raw-mutex",
      "ptr-key", "real-time-wait", "sleep-for", "bad-allow"};
  Hits out;
  for (const auto& f : adets::sa::scan_source(path, source)) {
    if (kRules.count(f.rule) > 0) out.emplace_back(f.rule, f.line);
  }
  return out;
}

std::vector<LexicalCase> lexical_cases() {
  const std::string kSched = "src/sched/a.cpp";
  std::vector<LexicalCase> cases = {
      // wall-clock
      {"src/sched/x.cpp", "auto t = std::chrono::steady_clock::now();\n",
       {{"wall-clock", 1}}},
      {kSched, "std::chrono::system_clock::now();\n", {{"wall-clock", 1}}},
      {kSched, "std::chrono::high_resolution_clock::now();\n", {{"wall-clock", 1}}},
      {kSched, "auto t = common::Clock::now();\n", {}},
      // thread-id, randomness
      {kSched, "auto id = std::this_thread::get_id();\n", {{"thread-id", 1}}},
      {kSched, "std::random_device rd;\n", {{"randomness", 1}}},
      {kSched, "int x = rand() % 7;\n", {{"randomness", 1}}},
      {kSched, "srand(42);\n", {{"randomness", 1}}},
      {kSched, "std::mt19937_64 rng(seed);\n", {}},  // seeded engines are fine
      // unordered-iter: iteration exposes hash order, point lookups do not
      {kSched,
       "std::unordered_map<std::uint64_t, int> table_;\n"
       "void dump() {\n"
       "  for (const auto& [k, v] : table_) emit(k, v);\n"
       "}\n",
       {{"unordered-iter", 3}}},
      {kSched,
       "std::unordered_set<int> pending_;\n"
       "auto it = pending_.begin();\n",
       {{"unordered-iter", 2}}},
      {kSched,
       "std::unordered_map<std::uint64_t, int> table_;\n"
       "auto it = table_.find(key);\n"
       "table_.erase(key);\n",
       {}},
      {kSched,
       "std::map<std::uint64_t, int> table_;\n"
       "for (const auto& [k, v] : table_) emit(k, v);\n",
       {}},
      // raw-mutex
      {"src/sched/a.hpp", "std::mutex mon_;\n", {{"raw-mutex", 1}}},
      {"src/sched/a.hpp", "std::condition_variable cv_;\n", {{"raw-mutex", 1}}},
      {"src/sched/a.hpp", "std::shared_mutex m_;\n", {{"raw-mutex", 1}}},
      {"src/sched/a.hpp", "std::condition_variable_any cv_;\n", {{"raw-mutex", 1}}},
      {"src/sched/a.hpp", "common::Mutex mon_{\"sched::mon\"};\n", {}},
      {"src/sched/a.hpp", "common::CondVar cv;\n", {}},
      // ptr-key: pointer keys, not pointer values
      {"src/sched/a.hpp", "std::map<Object*, int> owners_;\n", {{"ptr-key", 1}}},
      {"src/sched/a.hpp", "std::set<const Thread*> waiters_;\n", {{"ptr-key", 1}}},
      {"src/sched/a.hpp", "std::map<std::uint64_t, Object*> objects_;\n", {}},
      // real-time-wait, sleep-for
      {kSched, "cv.wait_for(lk, timeout);\n", {{"real-time-wait", 1}}},
      {kSched, "cv.wait_until(lk, deadline);\n", {{"real-time-wait", 1}}},
      {kSched, "cv.wait(lk);\n", {}},
      {kSched, "std::this_thread::sleep_for(std::chrono::milliseconds(1));\n",
       {{"sleep-for", 1}}},
      {kSched, "std::this_thread::sleep_until(deadline);\n", {{"sleep-for", 1}}},
      {kSched, "common::Clock::sleep_real(tick);\n", {}},
      {kSched, "common::Clock::sleep_paper(paper_ms(5));\n", {}},
      // Scope: the sanctioned wrappers live outside sched/replication/lin.
      {"src/common/clock.hpp", "return std::chrono::steady_clock::now();\n", {}},
      {"/abs/path/src/common/clock.cpp", "return std::chrono::steady_clock::now();\n",
       {}},
      {"src/common/rng.hpp", "std::random_device entropy;\n", {}},
      {"src/common/clock.cpp", "std::this_thread::sleep_for(real_time);\n", {}},
      {"src/replication/a.cpp", "std::mutex mon_;\n", {{"raw-mutex", 1}}},
      {"/abs/path/src/lin/a.cpp", "std::mutex mon_;\n", {{"raw-mutex", 1}}},
      {"src/scheduler/a.cpp", "std::mutex mon_;\n", {}},  // whole component only
      {"src/gcs/sched.cpp", "std::mutex mon_;\n", {}},    // file names do not count
      {"tests/sa_fixtures/blocking_under_monitor.hpp",
       "std::this_thread::sleep_for(std::chrono::milliseconds(1));\n", {}},
      // suppressions
      {kSched,
       "cv.wait_for(lk, t);  // adets-sa:allow(real-time-wait) outcome replayed\n",
       {}},
      {kSched,
       "// adets-sa:allow(real-time-wait) outcome routed through total order\n"
       "cv.wait_for(lk, t);\n",
       {}},
      {kSched,
       "// adets-sa:allow(wall-clock) some reason\n"
       "cv.wait_for(lk, t);\n",
       {{"real-time-wait", 2}}},
      {kSched,
       "// adets-sa:allow(real-time-wait) covers only the next line\n"
       "cv.wait_for(lk, t);\n"
       "cv.wait_for(lk, t);\n",
       {{"real-time-wait", 3}}},
      {kSched, "cv.wait_for(lk, t);  // adets-sa:allow(real-time-wait)\n",
       {{"bad-allow", 1}, {"real-time-wait", 1}}},
      // preprocessing: comments and literals are not code
      {kSched, "// old: std::mutex mon_;\n", {}},
      {kSched, "/* std::this_thread::get_id() */ int x;\n", {}},
      {kSched, "log(\"uses std::mutex internally\");\n", {}},
      {kSched,
       "/*\n"
       " * std::mutex mon_;\n"
       " * auto t = std::chrono::steady_clock::now();\n"
       " */\n"
       "int live_code = 1;\n",
       {}},
      {kSched, "const char* s = R\"(std::mutex mon_;)\";\n", {}},
      {kSched, "auto s = R\"x(auto t = steady_clock::now();)x\";\n", {}},
      // A multi-line raw string with quotes and backslashes keeps the
      // next finding on its true line.
      {kSched,
       "const char* doc = R\"(\n"
       "  \"quoted\" and \\ backslash\n"
       "  std::mutex decoy;\n"
       ")\";\n"
       "std::mutex real_;\n",
       {{"raw-mutex", 5}}},
      // A backslash-newline continues a string literal but ends the line.
      {kSched,
       "const char* s = \"split \\\n"
       "rest\";\n"
       "std::mutex real_;\n",
       {{"raw-mutex", 3}}},
      // A line comment ending in a backslash hides the next line.
      {kSched,
       "// old code: \\\n"
       "std::mutex mon_;\n"
       "int live = 1;\n",
       {}},
      // An identifier ending in R does not open a raw string.
      {kSched, "call(HELPER_R\"text\"); std::mutex mon_;\n", {{"raw-mutex", 1}}},
      // A digit separator does not open a char literal.
      {kSched,
       "int scale = 1'000;\n"
       "std::mutex real_;\n",
       {{"raw-mutex", 2}}},
  };
  return cases;
}

TEST(SaLexicalTest, RulesScopeAndPreprocessingTable) {
  for (const LexicalCase& c : lexical_cases()) {
    EXPECT_EQ(lexical_hits(c.path, c.source), c.expected)
        << c.path << ":\n" << c.source;
    // The same source outside the scope keeps only its bad-allows.
    const std::string sched = "src/sched/";
    if (c.path.rfind(sched, 0) != 0) continue;
    const std::string gcs = "src/gcs/" + c.path.substr(sched.size());
    Hits kept;
    for (const auto& hit : c.expected) {
      if (hit.first == "bad-allow") kept.push_back(hit);
    }
    EXPECT_EQ(lexical_hits(gcs, c.source), kept) << gcs << ":\n" << c.source;
  }
}

// --- seeded fixtures and the whole tree ------------------------------------

#ifdef ADETS_SOURCE_DIR

std::vector<Finding> scan_fixture(const std::string& name) {
  const std::string root = ADETS_SOURCE_DIR;
  return adets::sa::scan({root + "/tests/sa_fixtures/" + name});
}

TEST(SaFixtureTest, LockCycleFixtureYieldsExactlyOneFinding) {
  const auto findings = scan_fixture("lock_cycle.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-cycle");
  EXPECT_GT(findings[0].line, 0);
  EXPECT_NE(findings[0].file.find("lock_cycle.hpp"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Cycling::a_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Cycling::b_"), std::string::npos);
}

TEST(SaFixtureTest, UnguardedFieldFixtureYieldsExactlyOneFinding) {
  const auto findings = scan_fixture("unguarded_field.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unguarded-field");
  EXPECT_GT(findings[0].line, 0);
  EXPECT_NE(findings[0].message.find("counter_"), std::string::npos);
}

TEST(SaFixtureTest, ClockTaintFixtureYieldsExactlyOneFinding) {
  const auto findings = scan_fixture("clock_taint.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "det-taint");
  EXPECT_GT(findings[0].line, 0);
  EXPECT_NE(findings[0].message.find("last_grant_time_"), std::string::npos);
}

TEST(SaFixtureTest, BlockingUnderMonitorFixtureYieldsExactlyOneFinding) {
  const auto findings = scan_fixture("blocking_under_monitor.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "blocking-under-monitor");
  EXPECT_GT(findings[0].line, 0);
  EXPECT_NE(findings[0].message.find("pump"), std::string::npos);
  EXPECT_NE(findings[0].message.find("drain"), std::string::npos);
  EXPECT_NE(findings[0].message.find("settle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("blocks at"), std::string::npos);
}

TEST(SaFixtureTest, GrantPathWriteFixtureYieldsExactlyOneFinding) {
  const auto findings = scan_fixture("grant_path_write.hpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "grant-path-write");
  EXPECT_NE(findings[0].message.find("decisions_served_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("handle_request"), std::string::npos);
  EXPECT_NE(findings[0].message.find("bump"), std::string::npos);
}

TEST(SaFixtureTest, RacySchedulerIsCaught) {
  // The shared negative control is annotated like the strategies; what
  // gives it away is the determinism rule: its grant order reads the
  // real clock.
  const auto findings =
      adets::sa::scan({std::string(ADETS_SOURCE_DIR) + "/tests/racy_scheduler.hpp"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "grant-path-taint");
  EXPECT_NE(findings[0].message.find("RacyScheduler::base_lock"), std::string::npos)
      << findings[0].message;
}

TEST(SaScanTest, ParseMemoServesRepeatedScans) {
  const std::string root = ADETS_SOURCE_DIR;
  const std::vector<std::string> paths = {root +
                                          "/tests/sa_fixtures/lock_cycle.hpp"};
  adets::sa::ScanStats warm;
  adets::sa::scan(paths);  // populate the process-wide memo
  adets::sa::scan(paths, nullptr, &warm);
  EXPECT_EQ(warm.files, 1u);
  EXPECT_EQ(warm.memo_hits, 1u);
}

TEST(SaTreeTest, SourceTreeAuditsClean) {
  const std::string root = ADETS_SOURCE_DIR;
  const auto findings = adets::sa::scan({root + "/src"});
  for (const auto& f : findings) {
    ADD_FAILURE() << adets::sa::to_string(f);
  }
}

#endif  // ADETS_SOURCE_DIR

// --- reporting -------------------------------------------------------------

TEST(SaReportTest, RulesListMatchesPassRules) {
  std::vector<std::string> names;
  for (const auto& r : adets::sa::rules()) names.push_back(r.name);
  const std::vector<std::string> expected = {
      "lock-cycle", "requires-unheld", "unguarded-field", "condvar-unguarded",
      "public-requires", "det-taint", "blocking-under-monitor",
      "grant-path-taint", "grant-path-write", "wall-clock", "thread-id",
      "randomness", "unordered-iter", "raw-mutex", "ptr-key", "real-time-wait",
      "sleep-for", "bad-allow"};
  EXPECT_EQ(names, expected);
}

TEST(SaReportTest, FindingFormatting) {
  const Finding finding{"src/sched/x.cpp", 12, "wall-clock", "msg", {}};
  EXPECT_EQ(adets::sa::to_string(finding), "src/sched/x.cpp:12: [wall-clock] msg");
}

TEST(SaModelTest, DigitSeparatorsDoNotDerailTheTokenizer) {
  // 1'000'000 must lex as one number, not open a character literal that
  // swallows the rest of the class body.
  const Program prog = parse(R"(
    class Budget {
      void spend() { used_ = used_ + 1'000'000; }
      long used_ = 0;
      common::Mutex mu_{"b"};
      long stray_ = 0;
    };
  )");
  const int idx = prog.find_class("Budget");
  ASSERT_GE(idx, 0);
  // All three fields survive, so the guard pass still sees stray_.
  EXPECT_EQ(prog.classes[idx].fields.size(), 3u);
  EXPECT_TRUE(has_rule(adets::sa::guard_pass(prog), "unguarded-field"));
}

TEST(SaReportTest, SarifSerialisesFindings) {
  const std::vector<Finding> findings = {
      {"src/a.cpp", 12, "lock-cycle", "cycle \"demo\"", {}},
      {"src/sched/b.cpp", 7, "raw-mutex", "raw std type", {}}};
  const std::string sarif = adets::sa::to_sarif(findings);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-cycle\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(sarif.find("cycle \\\"demo\\\""), std::string::npos);
  // Pass-6 findings reach code scanning too: rule id, result and rule
  // metadata.
  EXPECT_NE(sarif.find("\"ruleId\": \"raw-mutex\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/sched/b.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"raw-mutex\""), std::string::npos);
}

}  // namespace
