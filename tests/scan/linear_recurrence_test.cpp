#include "scan/linear_recurrence.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/rng.hpp"

namespace ir::scan {
namespace {

TEST(LinearRecurrenceTest, SequentialKnownValues) {
  // x[i] = 2*x[i-1] + 1, x0 = 0 -> 1, 3, 7, 15
  const std::vector<double> a{2, 2, 2, 2}, b{1, 1, 1, 1};
  const auto x = linear_recurrence_sequential(a, b, 0.0);
  EXPECT_EQ(x, (std::vector<double>{1, 3, 7, 15}));
}

TEST(LinearRecurrenceTest, ScanMatchesSequential) {
  support::SplitMix64 rng(21);
  for (std::size_t n : {0u, 1u, 2u, 17u, 256u, 1001u}) {
    std::vector<double> a(n), b(n);
    for (auto& e : a) e = rng.uniform(-0.9, 0.9);
    for (auto& e : b) e = rng.uniform(-1.0, 1.0);
    const auto expect = linear_recurrence_sequential(a, b, 0.5);
    const auto actual = linear_recurrence_scan(a, b, 0.5);
    ASSERT_EQ(actual.size(), expect.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(actual[i], expect[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(LinearRecurrenceTest, ScanWithPoolMatches) {
  parallel::ThreadPool pool(4);
  support::SplitMix64 rng(22);
  std::vector<double> a(500), b(500);
  for (auto& e : a) e = rng.uniform(-0.9, 0.9);
  for (auto& e : b) e = rng.uniform(-1.0, 1.0);
  const auto expect = linear_recurrence_sequential(a, b, 1.0);
  const auto actual = linear_recurrence_scan(a, b, 1.0, &pool);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(actual[i], expect[i], 1e-9);
}

TEST(LinearRecurrenceTest, ZeroSlopeRestartsTheScanAtItsOffset) {
  // The scan composes under algebra::AffineCompose, whose constant next map
  // (a zero slope) wins outright — Lemma 2's short-circuit.  On finite data
  // that is exactly what the loop computes: x[i] = 0·x[i-1] + b[i] = b[i].
  support::SplitMix64 rng(23);
  std::vector<double> a(300), b(300);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = i % 7 == 3 ? 0.0 : rng.uniform(-0.9, 0.9);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  parallel::ThreadPool pool(3);
  const auto expect = linear_recurrence_sequential(a, b, 0.5);
  for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
    const auto actual = linear_recurrence_scan(a, b, 0.5, p);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] == 0.0) {
        EXPECT_EQ(actual[i], b[i]) << "i=" << i;
        EXPECT_EQ(expect[i], b[i]) << "i=" << i;
      }
      EXPECT_NEAR(actual[i], expect[i], 1e-9) << "i=" << i;
    }
  }

  // Where they part: after a prefix that overflowed, the loop's 0·inf is
  // NaN from there on, while the scan restarts at the offset.
  const std::vector<double> big_a{1e300, 1e300, 0.0, 0.5}, big_b{0.0, 0.0, 2.0, 1.0};
  const auto loop = linear_recurrence_sequential(big_a, big_b, 1e300);
  const auto scan = linear_recurrence_scan(big_a, big_b, 1e300);
  EXPECT_TRUE(std::isinf(loop[1]));
  EXPECT_TRUE(std::isnan(loop[2]));
  EXPECT_TRUE(std::isnan(loop[3]));
  EXPECT_EQ(scan[2], 2.0);
  EXPECT_EQ(scan[3], 2.0);
}

TEST(LinearRecurrenceTest, MismatchedSizesRejected) {
  const std::vector<double> a{1.0}, b{};
  EXPECT_THROW(linear_recurrence_sequential(a, b, 0.0), support::ContractViolation);
  EXPECT_THROW(linear_recurrence_scan(a, b, 0.0), support::ContractViolation);
}

}  // namespace
}  // namespace ir::scan
