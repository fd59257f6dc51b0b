// Lock-order validator tests.  The registry API is always compiled, so
// these run in every build; the integrated tests at the bottom
// additionally drive the hooks through real common::Mutex instances when
// the build defines ADETS_LOCK_ORDER_CHECK (the CI sanitizer job does).
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "common/lock_order.hpp"
#include "common/mutex.hpp"

namespace {

namespace lo = adets::common::lock_order;

/// Installs a capturing failure handler for the duration of a test and
/// restores the previous one (plus a clean registry) on exit.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lo::reset_for_test();
    previous_ = lo::set_failure_handler(
        [this](const lo::CycleReport& report) { captured_ = report; });
  }

  void TearDown() override {
    lo::set_failure_handler(std::move(previous_));
    lo::reset_for_test();
  }

  std::optional<lo::CycleReport> captured_;
  lo::Handler previous_;
};

// Distinct addresses standing in for mutexes.
int A, B, C;

TEST_F(LockOrderTest, ConsistentOrderIsSilent) {
  for (int i = 0; i < 3; ++i) {
    lo::on_acquire(&A, "A");
    lo::on_acquire(&B, "B");
    lo::on_release(&B);
    lo::on_release(&A);
  }
  EXPECT_FALSE(captured_.has_value());
  EXPECT_EQ(lo::edge_count(), 1u);  // the single A -> B edge, deduplicated
}

TEST_F(LockOrderTest, InversionReportsCycleNamingBothLocks) {
  lo::on_acquire(&A, "sched::mon");
  lo::on_acquire(&B, "gcs::mutex");
  lo::on_release(&B);
  lo::on_release(&A);

  lo::on_acquire(&B, "gcs::mutex");
  lo::on_acquire(&A, "sched::mon");  // closes B -> A against A -> B

  ASSERT_TRUE(captured_.has_value());
  EXPECT_NE(captured_->description.find("sched::mon"), std::string::npos);
  EXPECT_NE(captured_->description.find("gcs::mutex"), std::string::npos);
  EXPECT_NE(captured_->description.find("lock-order violation"),
            std::string::npos);
  lo::on_release(&B);
}

TEST_F(LockOrderTest, ThreeLockCycleDetected) {
  lo::on_acquire(&A, "A");
  lo::on_acquire(&B, "B");
  lo::on_release(&B);
  lo::on_release(&A);
  lo::on_acquire(&B, "B");
  lo::on_acquire(&C, "C");
  lo::on_release(&C);
  lo::on_release(&B);
  EXPECT_FALSE(captured_.has_value());

  lo::on_acquire(&C, "C");
  lo::on_acquire(&A, "A");  // closes C -> A against A -> B -> C

  ASSERT_TRUE(captured_.has_value());
  EXPECT_NE(captured_->description.find("A ("), std::string::npos);
  EXPECT_NE(captured_->description.find("B ("), std::string::npos);
  EXPECT_NE(captured_->description.find("C ("), std::string::npos);
  lo::on_release(&C);
}

TEST_F(LockOrderTest, InversionAcrossThreadsDetected) {
  // The edge graph is global: thread 1 establishes A -> B, thread 2
  // closes the cycle even though neither thread deadlocks on its own.
  std::thread t1([] {
    lo::on_acquire(&A, "A");
    lo::on_acquire(&B, "B");
    lo::on_release(&B);
    lo::on_release(&A);
  });
  t1.join();
  std::thread t2([] {
    lo::on_acquire(&B, "B");
    lo::on_acquire(&A, "A");
    lo::on_release(&A);
    lo::on_release(&B);
  });
  t2.join();
  ASSERT_TRUE(captured_.has_value());
}

TEST_F(LockOrderTest, RelockAfterCondvarWaitIsNotAnEdge) {
  // A condvar wait reacquires the monitor while the validator still
  // considers it held; that self-edge must not trip anything.
  lo::on_acquire(&A, "A");
  lo::on_acquire(&A, "A");
  EXPECT_FALSE(captured_.has_value());
  EXPECT_EQ(lo::edge_count(), 0u);
  lo::on_release(&A);
  lo::on_release(&A);
}

TEST_F(LockOrderTest, DestroyPurgesNodeAndEdges) {
  lo::on_acquire(&A, "A");
  lo::on_acquire(&B, "B");
  lo::on_release(&B);
  lo::on_release(&A);
  ASSERT_EQ(lo::edge_count(), 1u);

  lo::on_destroy(&B);
  EXPECT_EQ(lo::edge_count(), 0u);

  // A fresh mutex reusing B's address starts with no history: the
  // former inversion is now just a new edge.
  lo::on_acquire(&B, "B2");
  lo::on_acquire(&A, "A");
  EXPECT_FALSE(captured_.has_value());
  lo::on_release(&A);
  lo::on_release(&B);
}

TEST_F(LockOrderTest, ResetClearsEverything) {
  lo::on_acquire(&A, "A");
  lo::on_acquire(&B, "B");
  lo::on_release(&B);
  lo::on_release(&A);
  lo::reset_for_test();
  EXPECT_EQ(lo::edge_count(), 0u);
  lo::on_acquire(&B, "B");
  lo::on_acquire(&A, "A");
  EXPECT_FALSE(captured_.has_value());
  lo::on_release(&A);
  lo::on_release(&B);
}

#ifdef ADETS_LOCK_ORDER_CHECK

// With the hooks compiled into common::Mutex, real lock/unlock traffic
// must feed the registry without any manual instrumentation.
TEST_F(LockOrderTest, IntegratedMutexInversionDetected) {
  adets::common::Mutex first("test::first");
  adets::common::Mutex second("test::second");
  {
    const adets::common::MutexLock outer(first);
    const adets::common::MutexLock inner(second);
  }
  EXPECT_FALSE(captured_.has_value());
  EXPECT_GE(lo::edge_count(), 1u);
  {
    const adets::common::MutexLock outer(second);
    first.lock();  // inversion: second held while acquiring first
    first.unlock();
  }
  ASSERT_TRUE(captured_.has_value());
  EXPECT_NE(captured_->description.find("test::first"), std::string::npos);
  EXPECT_NE(captured_->description.find("test::second"), std::string::npos);
}

// Two instances of one class locked in both orders.  adets-sa's static
// lock graph keys mutexes by Class::member, cannot tell the two apart,
// and audits this shape clean; the validator keys by address and
// reports it.
TEST_F(LockOrderTest, IntegratedTwoInstanceInversionDetected) {
  struct Acct {
    adets::common::Mutex mu{"test::acct"};
    void transfer(Acct& to) {
      const adets::common::MutexLock mine(mu);
      const adets::common::MutexLock theirs(to.mu);
    }
  };
  Acct a;
  Acct b;
  a.transfer(b);
  EXPECT_FALSE(captured_.has_value());
  b.transfer(a);
  ASSERT_TRUE(captured_.has_value());
  EXPECT_NE(captured_->description.find("test::acct"), std::string::npos);
}

TEST_F(LockOrderTest, IntegratedCondVarWaitKeepsMonitorHeld) {
  adets::common::Mutex mon("test::mon");
  adets::common::CondVar cv;
  adets::common::MutexLock lk(mon);
  cv.wait_for(lk, std::chrono::milliseconds(1));
  EXPECT_FALSE(captured_.has_value());
}

#endif  // ADETS_LOCK_ORDER_CHECK

}  // namespace
