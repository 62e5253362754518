// Tests for the runtime lock-order validator (common/lockdep).
//
// The death tests seed a deliberate A→B / B→A inversion and verify
// the process aborts with BOTH acquisition stacks in the report: the
// live stack of the violating acquisition and the stored stack of the
// first acquisition that recorded the conflicting order. The
// non-death tests pin down the bookkeeping: clean ascending nesting,
// try-lock semantics, cv-wait release/reacquire, and out-of-order
// unlock.
//
// The "existing threaded suites run clean under lockdep" half of the
// coverage doesn't live here: METACOMM_LOCKDEP defaults ON for every
// non-Release build, so the whole ctest suite — threaded_test,
// parallel_um_test, snapshot_stress_test, fault_tolerance_test,
// wire_test — exercises the real hierarchy with validation live (the
// LiveValidation test below proves the hooks are actually firing).

#include "common/lockdep.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/mutex.h"

#if METACOMM_LOCKDEP

namespace metacomm {
namespace {

// The validator tracks rank VALUES, not which enum member supplied
// them; the real table's members double as test ranks
// (kUmSync=200 "low", kUmAdmin=510 "mid", kLeaf=990 "high").

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Death tests spawn threads inside the death statement; the
    // threadsafe style re-executes the test in a clean child so the
    // fork never races a live thread.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(LockdepTest, CleanAscendingNestingPasses) {
  Mutex outer(LockRank::kUmSync, "test.clean.outer");
  Mutex mid(LockRank::kUmAdmin, "test.clean.mid");
  Mutex inner(LockRank::kLeaf, "test.clean.inner");
  EXPECT_EQ(lockdep::HeldCount(), 0u);
  {
    MutexLock a(&outer);
    EXPECT_EQ(lockdep::HeldCount(), 1u);
    MutexLock b(&mid);
    MutexLock c(&inner);
    EXPECT_EQ(lockdep::HeldCount(), 3u);
  }
  EXPECT_EQ(lockdep::HeldCount(), 0u);
}

TEST_F(LockdepTest, LiveValidation) {
  // Proves the hooks are compiled in and firing in this build: the
  // process-wide acquisition counter moves when we lock.
  uint64_t before = lockdep::CheckedAcquisitions();
  Mutex mu(LockRank::kLeaf, "test.live");
  {
    MutexLock lock(&mu);
  }
  EXPECT_GT(lockdep::CheckedAcquisitions(), before);
}

TEST_F(LockdepTest, SeededInversionDiesWithBothStacks) {
  // A→B recorded first, then B→A attempted: the report must contain
  // the rank-regression diagnosis, the violating acquisition's live
  // stack AND the stored stack of the acquisition that first recorded
  // the conflicting A→B order.
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kUmSync, "test.inv.a");
        Mutex b(LockRank::kUmAdmin, "test.inv.b");
        {
          MutexLock la(&a);
          MutexLock lb(&b);  // Records edge test.inv.a -> test.inv.b.
        }
        MutexLock lb(&b);
        MutexLock la(&a);  // Inversion: aborts here.
      },
      "rank regression: acquiring \"test\\.inv\\.a\".*while holding "
      "\"test\\.inv\\.b\".*this \\(violating\\) acquisition stack"
      ".*conflicting prior order \"test\\.inv\\.a\" -> "
      "\"test\\.inv\\.b\" was first recorded at this acquisition "
      "stack");
}

TEST_F(LockdepTest, CrossThreadInversionDies) {
  // The order graph is global: thread 1 legally records A→B, the
  // inversion on thread 2 still dies.
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kUmSync, "test.xinv.a");
        Mutex b(LockRank::kUmAdmin, "test.xinv.b");
        std::thread recorder([&] {
          MutexLock la(&a);
          MutexLock lb(&b);
        });
        recorder.join();
        std::thread inverter([&] {
          MutexLock lb(&b);
          MutexLock la(&a);
        });
        inverter.join();
      },
      "rank regression.*test\\.xinv\\.a.*first recorded at");
}

TEST_F(LockdepTest, RankRegressionWithoutPriorEdgeDies) {
  // No A→B history at all: still forbidden by the rank table alone,
  // and the report says so instead of printing a stored stack.
  EXPECT_DEATH(
      {
        Mutex low(LockRank::kUmSync, "test.reg.low");
        Mutex high(LockRank::kUmAdmin, "test.reg.high");
        MutexLock lh(&high);
        MutexLock ll(&low);
      },
      "rank regression.*rank table itself forbids");
}

TEST_F(LockdepTest, SameRankNestingDies) {
  EXPECT_DEATH(
      {
        Mutex first(LockRank::kLeaf, "test.same.first");
        Mutex second(LockRank::kLeaf, "test.same.second");
        MutexLock a(&first);
        MutexLock b(&second);
      },
      "rank regression");
}

TEST_F(LockdepTest, RecursiveAcquisitionDies) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "test.rec");
        mu.Lock();
        mu.Lock();
      },
      "recursive acquisition");
}

TEST_F(LockdepTest, TryLockTracksHeldState) {
  Mutex mu(LockRank::kUmAdmin, "test.try");
  ASSERT_TRUE(mu.TryLock());
  EXPECT_EQ(lockdep::HeldCount(), 1u);
  mu.Unlock();
  EXPECT_EQ(lockdep::HeldCount(), 0u);
}

TEST_F(LockdepTest, FailedTryLockLeavesNoHeldEntry) {
  Mutex mu(LockRank::kUmAdmin, "test.tryfail");
  mu.Lock();
  std::thread other([&] {
    EXPECT_FALSE(mu.TryLock());
    EXPECT_EQ(lockdep::HeldCount(), 0u);
  });
  other.join();
  mu.Unlock();
}

TEST_F(LockdepTest, TryLockSuccessConstrainsLaterAcquisitions) {
  // A try-acquire skips order checks itself (it cannot block), but
  // the held entry it pushes still forbids descending follow-ups.
  EXPECT_DEATH(
      {
        Mutex inner(LockRank::kUmAdmin, "test.tryheld.inner");
        Mutex outer(LockRank::kUmSync, "test.tryheld.outer");
        ASSERT_TRUE(inner.TryLock());
        MutexLock lock(&outer);  // LockRank::kUmSync under LockRank::kUmAdmin: dies.
      },
      "rank regression");
}

TEST_F(LockdepTest, TryLockThenAscendingBlockingAcquirePasses) {
  Mutex outer(LockRank::kUmSync, "test.tryasc.outer");
  Mutex inner(LockRank::kUmAdmin, "test.tryasc.inner");
  ASSERT_TRUE(outer.TryLock());
  {
    MutexLock lock(&inner);
    EXPECT_EQ(lockdep::HeldCount(), 2u);
  }
  outer.Unlock();
  EXPECT_EQ(lockdep::HeldCount(), 0u);
}

TEST_F(LockdepTest, CondVarWaitReleasesAndReacquires) {
  Mutex mu(LockRank::kUmAdmin, "test.cv");
  CondVar cv;
  MutexLock lock(&mu);
  EXPECT_EQ(lockdep::HeldCount(), 1u);
  // Timed wait with an immediate deadline: exercises the
  // release-around-wait and the reacquire on the way out.
  EXPECT_FALSE(cv.WaitUntil(lock, std::chrono::steady_clock::now()));
  EXPECT_EQ(lockdep::HeldCount(), 1u);
}

TEST_F(LockdepTest, OutOfOrderReleaseIsLegal) {
  // Unlock order need not mirror lock order (hand-over-hand).
  Mutex outer(LockRank::kUmSync, "test.ooo.outer");
  Mutex inner(LockRank::kUmAdmin, "test.ooo.inner");
  outer.Lock();
  inner.Lock();
  outer.Unlock();
  EXPECT_EQ(lockdep::HeldCount(), 1u);
  inner.Unlock();
  EXPECT_EQ(lockdep::HeldCount(), 0u);
}

TEST_F(LockdepTest, EdgeGraphAccumulates) {
  size_t before = lockdep::RecordedEdges();
  Mutex a(LockRank::kUmSync, "test.edges.a");
  Mutex b(LockRank::kUmAdmin, "test.edges.b");
  MutexLock la(&a);
  MutexLock lb(&b);
  EXPECT_GT(lockdep::RecordedEdges(), before);
}

}  // namespace
}  // namespace metacomm

#else  // !METACOMM_LOCKDEP

TEST(LockdepTest, CompiledOut) {
  GTEST_SKIP() << "built without METACOMM_LOCKDEP; validator is "
                  "compiled out";
}

#endif  // METACOMM_LOCKDEP
