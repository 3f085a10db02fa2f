#include "parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace ir::parallel {
namespace {

TEST(PartitionBlocksTest, CoversRangeExactly) {
  for (std::size_t n : {0u, 1u, 5u, 16u, 17u, 1000u}) {
    for (std::size_t parts : {1u, 2u, 3u, 7u, 64u}) {
      const auto blocks = partition_blocks(n, parts);
      std::size_t covered = 0, expect_begin = 0;
      for (const auto& b : blocks) {
        EXPECT_EQ(b.begin, expect_begin);
        EXPECT_LT(b.begin, b.end);
        covered += b.end - b.begin;
        expect_begin = b.end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_LE(blocks.size(), std::min(parts, n == 0 ? std::size_t{0} : n));
    }
  }
}

TEST(PartitionBlocksTest, BlocksAreBalanced) {
  const auto blocks = partition_blocks(103, 10);
  std::size_t lo = 1000, hi = 0;
  for (const auto& b : blocks) {
    lo = std::min(lo, b.end - b.begin);
    hi = std::max(hi, b.end - b.begin);
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(PartitionBlocksTest, RejectsZeroParts) {
  EXPECT_THROW(partition_blocks(10, 0), support::ContractViolation);
}

TEST(ParallelForTest, VisitsEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRange) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelForTest, MatchesSequentialSum) {
  ThreadPool pool(8);
  std::vector<long> data(10000);
  parallel_for(pool, data.size(), [&](std::size_t i) { data[i] = static_cast<long>(i * i); });
  long expect = 0;
  for (std::size_t i = 0; i < data.size(); ++i) expect += static_cast<long>(i * i);
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0L), expect);
}

TEST(ParallelForBlocksTest, WorkerIdsAreDistinct) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::size_t> workers;
  parallel_for_blocks(pool, 100, pool.size(), [&](const Block& b) {
    std::lock_guard lock(mutex);
    workers.push_back(b.worker);
  });
  std::sort(workers.begin(), workers.end());
  for (std::size_t w = 0; w < workers.size(); ++w) EXPECT_EQ(workers[w], w);
}

TEST(ParallelForCappedTest, CapLimitsBlockCount) {
  ThreadPool pool(8);
  std::atomic<int> blocks{0};
  parallel_for_blocks(pool, 100, pool.size(), [&](const Block&) { ++blocks; });
  EXPECT_LE(blocks.load(), 8);

  // Capped at 3: even with 8 threads only 3 blocks exist, and together they
  // cover every index exactly once.
  blocks = 0;
  std::vector<std::atomic<int>> hits(100);
  parallel_for_blocks(pool, 100, 3, [&](const Block& b) {
    ++blocks;
    for (std::size_t i = b.begin; i < b.end; ++i) ++hits[i];
  });
  EXPECT_EQ(blocks.load(), 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_THROW(parallel_for_blocks(pool, 10, 0, [](const Block&) {}),
               support::ContractViolation);
}

TEST(ParallelForTest, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 100,
                            [](std::size_t i) {
                              if (i == 57) throw std::runtime_error("item 57");
                            }),
               std::runtime_error);
}

}  // namespace
}  // namespace ir::parallel
