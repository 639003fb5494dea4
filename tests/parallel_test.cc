#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "parallel/atomics.h"
#include "parallel/parallel_for.h"
#include "parallel/reduce.h"
#include "parallel/scan.h"
#include "parallel/sort.h"
#include "util/random.h"

namespace lightne {
namespace {

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  const uint64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(0, n, [&](uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  std::atomic<int> count{0};
  ParallelFor(5, 5, [&](uint64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  ParallelFor(7, 8, [&](uint64_t i) {
    EXPECT_EQ(i, 7u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, NonZeroBegin) {
  std::atomic<uint64_t> sum{0};
  ParallelFor(10, 20, [&](uint64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10+...+19
}

TEST(ParallelForTest, NestedLoopsRunSequentiallyAndCorrectly) {
  const uint64_t n = 200;
  std::vector<std::atomic<uint64_t>> acc(n);
  ParallelFor(
      0, n,
      [&](uint64_t i) {
        ParallelFor(0, 100, [&](uint64_t j) {
          acc[i].fetch_add(j, std::memory_order_relaxed);
        });
      },
      /*grain=*/1);
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(acc[i].load(), 4950u);
}

TEST(ParallelForWorkersTest, EachWorkerRunsOnce) {
  std::atomic<int> ran{0};
  int reported_workers = -1;
  ParallelForWorkers([&](int worker, int workers) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, workers);
    if (worker == 0) reported_workers = workers;
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), reported_workers);
}

TEST(ReduceTest, SumMatchesSequential) {
  const uint64_t n = 1234567;
  uint64_t got = ParallelSum<uint64_t>(0, n, [](uint64_t i) { return i; });
  EXPECT_EQ(got, n * (n - 1) / 2);
}

TEST(ReduceTest, SumOnTinyRange) {
  EXPECT_EQ((ParallelSum<uint64_t>(0, 0, [](uint64_t i) { return i; })), 0u);
  EXPECT_EQ((ParallelSum<uint64_t>(3, 4, [](uint64_t i) { return i; })), 3u);
}

TEST(ReduceTest, MaxFindsPlantedElement) {
  const uint64_t n = 500000;
  std::vector<uint32_t> v(n);
  Rng rng(1);
  for (auto& x : v) x = static_cast<uint32_t>(rng.UniformInt(1000000));
  v[314159] = 2000000;
  uint32_t got = ParallelMax<uint32_t>(0, n, 0u, [&](uint64_t i) { return v[i]; });
  EXPECT_EQ(got, 2000000u);
}

TEST(ScanTest, ExclusiveScanMatchesSequential) {
  for (uint64_t n : {0ull, 1ull, 5ull, 4096ull, 100001ull, 1000000ull}) {
    std::vector<uint64_t> v(n), expect(n);
    Rng rng(n);
    for (auto& x : v) x = rng.UniformInt(10);
    uint64_t running = 0;
    for (uint64_t i = 0; i < n; ++i) {
      expect[i] = running;
      running += v[i];
    }
    uint64_t total = ParallelScanExclusive(v.data(), n);
    EXPECT_EQ(total, running) << "n=" << n;
    EXPECT_EQ(v, expect) << "n=" << n;
  }
}

TEST(PackTest, KeepsOrderedSubset) {
  const uint64_t n = 300000;
  auto out = ParallelPack<uint64_t>(
      n, [](uint64_t i) { return i % 7 == 0; }, [](uint64_t i) { return i; });
  ASSERT_EQ(out.size(), (n + 6) / 7);
  for (size_t k = 0; k < out.size(); ++k) ASSERT_EQ(out[k], 7 * k);
}

TEST(PackTest, EmptyAndFull) {
  auto none = ParallelPack<int>(
      100, [](uint64_t) { return false; }, [](uint64_t i) { return (int)i; });
  EXPECT_TRUE(none.empty());
  auto all = ParallelPack<uint64_t>(
      100, [](uint64_t) { return true; }, [](uint64_t i) { return i; });
  ASSERT_EQ(all.size(), 100u);
  EXPECT_EQ(all[99], 99u);
}

TEST(PackTest, LastElementOnly) {
  auto out = ParallelPack<uint64_t>(
      1000, [](uint64_t i) { return i == 999; }, [](uint64_t i) { return i; });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 999u);
}

class ParallelSortTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelSortTest, MatchesStdSort) {
  const uint64_t n = GetParam();
  std::vector<uint64_t> v(n);
  Rng rng(n + 1);
  for (auto& x : v) x = rng.UniformInt(n / 2 + 2);  // plenty of duplicates
  std::vector<uint64_t> expect = v;
  std::sort(expect.begin(), expect.end());
  ParallelSort(v);
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelSortTest,
                         ::testing::Values(0, 1, 2, 100, 16384, 16385, 100000,
                                           1000000));

TEST(ParallelSortTest, CustomComparator) {
  std::vector<int> v = {3, 1, 4, 1, 5, 9, 2, 6};
  ParallelSort(v, std::greater<int>());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int>()));
}

TEST(ParallelSortTest, AlreadySortedAndReversed) {
  std::vector<uint64_t> v(200000);
  std::iota(v.begin(), v.end(), 0);
  auto expect = v;
  ParallelSort(v);
  EXPECT_EQ(v, expect);
  std::reverse(v.begin(), v.end());
  ParallelSort(v);
  EXPECT_EQ(v, expect);
}

TEST(AtomicsTest, FetchAddIntegerExactUnderContention) {
  std::atomic<uint64_t> counter{0};
  const uint64_t n = 1000000;
  ParallelFor(0, n, [&](uint64_t) { AtomicFetchAdd(counter, uint64_t{1}); });
  EXPECT_EQ(counter.load(), n);
}

TEST(AtomicsTest, FetchAddDoubleExactForRepresentableSums) {
  std::atomic<double> acc{0.0};
  const uint64_t n = 400000;
  ParallelFor(0, n, [&](uint64_t) { AtomicFetchAdd(acc, 0.5); });
  EXPECT_DOUBLE_EQ(acc.load(), 200000.0);
}

TEST(AtomicsTest, CasLoopFetchAddMatches) {
  std::atomic<uint64_t> counter{0};
  const uint64_t n = 500000;
  ParallelFor(0, n, [&](uint64_t) { CasLoopFetchAdd(counter, uint64_t{1}); });
  EXPECT_EQ(counter.load(), n);
}

}  // namespace
}  // namespace lightne
