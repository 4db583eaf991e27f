// Remaining common utilities: hashing, check failures, stopwatch.
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/logging.h"
#include "common/stopwatch.h"

namespace groupform::common {
namespace {

TEST(Hash, CombineIsDeterministicAndOrderSensitive) {
  std::size_t a = 0;
  HashCombineValue(a, 1);
  HashCombineValue(a, 2);
  std::size_t b = 0;
  HashCombineValue(b, 1);
  HashCombineValue(b, 2);
  EXPECT_EQ(a, b);
  std::size_t c = 0;
  HashCombineValue(c, 2);
  HashCombineValue(c, 1);
  EXPECT_NE(a, c);  // order matters for sequence keys
}

TEST(Hash, VectorHashSeparatesNearbySequences) {
  // Bucket keys differ by one item or one position; those must not
  // systematically collide.
  std::set<std::size_t> hashes;
  for (int i = 0; i < 50; ++i) {
    hashes.insert(HashVector(std::vector<int>{i, i + 1, i + 2}));
    hashes.insert(HashVector(std::vector<int>{i + 1, i, i + 2}));
  }
  EXPECT_EQ(hashes.size(), 100u);
  EXPECT_NE(HashVector(std::vector<int>{}),
            HashVector(std::vector<int>{0}));
}

TEST(Logging, CheckMacrosPassOnTrueConditions) {
  GF_CHECK(true);
  GF_CHECK_EQ(2 + 2, 4);
  GF_CHECK_LT(1, 2);
  GF_CHECK_GE(2, 2);
  // A failing GF_CHECK aborts the process.
  EXPECT_DEATH(GF_CHECK_EQ(1, 2), "Check failed");
}

TEST(Logging, FailedCheckNamesFileLineConditionAndContext) {
  // The one line a failed check prints before it aborts.
  EXPECT_DEATH(GF_CHECK(1 > 2) << "context " << 7,
               "\\[F util_test\\.cc:[0-9]+\\] "
               "Check failed: 1 > 2 context 7");
}

TEST(Stopwatch, MeasuresElapsedTimeMonotonically) {
  Stopwatch stopwatch;
  const double t0 = stopwatch.ElapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double t1 = stopwatch.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GT(t1, t0);
  stopwatch.Reset();
  EXPECT_LT(stopwatch.ElapsedSeconds(), t1);
}

}  // namespace
}  // namespace groupform::common
