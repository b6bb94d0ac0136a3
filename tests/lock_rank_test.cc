// Runtime lock-rank checker tests (common/lock_rank.h, common/mutex.h).
//
// The checker is compiled in for debug/sanitizer builds (or with
// -DSOC_LOCK_RANKING=ON); in release builds the tests that need it
// GTEST_SKIP rather than silently pass. The death test pins the
// abort-before-deadlock behavior: acquiring a lower rank while a higher
// one is held must report both lock names and abort.

#include "common/lock_rank.h"

#include <gtest/gtest.h>

#include "common/mutex.h"

namespace soc {
namespace {

// Local ranks so the tests do not depend on the project table's values.
constexpr LockRank kOuter{100, "test.outer"};
constexpr LockRank kInner{200, "test.inner"};

TEST(LockRankTest, InOrderAcquisitionSucceeds) {
  Mutex outer(kOuter);
  Mutex inner(kInner);
  MutexLock a(outer);
  MutexLock b(inner);
  // Reaching here without an abort is the assertion.
  SUCCEED();
}

TEST(LockRankTest, ReleaseUnblocksTheRank) {
  Mutex outer(kOuter);
  Mutex inner(kInner);
  {
    MutexLock b(inner);
  }
  // inner (rank 200) was released, so taking outer (rank 100) now is
  // in-order even though 100 < 200.
  MutexLock a(outer);
  MutexLock b(inner);
  SUCCEED();
}

TEST(LockRankTest, UnrankedLocksAreExemptInEitherOrder) {
  Mutex ranked(kInner);
  Mutex unranked;
  MutexLock a(ranked);
  MutexLock b(unranked);  // Unranked under ranked: fine.
  Mutex another_unranked;
  MutexLock c(another_unranked);
  SUCCEED();
}

TEST(LockRankTest, SharedAcquisitionsParticipate) {
  SharedMutex outer(kOuter);
  Mutex inner(kInner);
  ReaderMutexLock a(outer);
  MutexLock b(inner);
  SUCCEED();
}

TEST(LockRankTest, TryLockPushesOnlyOnSuccess) {
  if (!kLockRankingEnabled) {
    GTEST_SKIP() << "lock ranking compiled out in this build";
  }
  // Declared in the same order as the other tests: TSan's deadlock
  // detector keys on addresses, and swapped declarations would reuse the
  // other tests' stack slots in the opposite rank order.
  Mutex outer(kOuter);
  Mutex inner(kInner);
  ASSERT_TRUE(inner.TryLock());
  // A failed TryLock must not leave a phantom entry on the held stack:
  // take-and-release outer first, which would abort if inner's failed
  // re-acquisition below had corrupted the stack ordering instead.
  ASSERT_FALSE(inner.TryLock());
  inner.Unlock();
  MutexLock a(outer);
  MutexLock b(inner);
  SUCCEED();
}

TEST(LockRankDeathTest, InvertedAcquisitionAbortsWithBothNames) {
  if (!kLockRankingEnabled) {
    GTEST_SKIP() << "lock ranking compiled out in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex outer(kOuter);
        Mutex inner(kInner);
        MutexLock a(inner);   // rank 200 held...
        MutexLock b(outer);   // ...acquiring rank 100: inversion.
      },
      "lock-rank violation.*test\\.outer.*test\\.inner");
}

TEST(LockRankDeathTest, ReaderInversionAbortsToo) {
  if (!kLockRankingEnabled) {
    GTEST_SKIP() << "lock ranking compiled out in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex held(kInner);
        SharedMutex low(kOuter);
        MutexLock a(held);
        ReaderMutexLock b(low);
      },
      "lock-rank violation");
}

}  // namespace
}  // namespace soc
