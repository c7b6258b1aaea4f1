#include "machine/rect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "support/error.h"

namespace pipemap {
namespace {

TEST(RectTest, FactorizationsOfTwelveOnEightByEight) {
  const auto f = RectFactorizations(12, 8, 8);
  // 2x6, 3x4, 4x3, 6x2 (1x12 and 12x1 do not fit).
  ASSERT_EQ(f.size(), 4u);
  for (const auto& [h, w] : f) {
    EXPECT_EQ(h * w, 12);
    EXPECT_LE(h, 8);
    EXPECT_LE(w, 8);
  }
}

TEST(RectTest, PrimeLargerThanSideIsInfeasible) {
  // The paper's Table 1 case: 13 processors cannot form a rectangle on an
  // 8x8 array, so the feasible optimal mapping drops to 12.
  EXPECT_FALSE(IsRectFeasible(13, 8, 8));
  EXPECT_TRUE(IsRectFeasible(12, 8, 8));
  EXPECT_FALSE(IsRectFeasible(11, 8, 8));
  EXPECT_TRUE(IsRectFeasible(7, 8, 8));  // 7x1 fits
}

TEST(RectTest, FullGridIsFeasible) {
  EXPECT_TRUE(IsRectFeasible(64, 8, 8));
  EXPECT_FALSE(IsRectFeasible(65, 8, 8));
}

TEST(RectTest, NonSquareGrid) {
  EXPECT_TRUE(IsRectFeasible(10, 2, 5));
  EXPECT_TRUE(IsRectFeasible(5, 2, 5));
  EXPECT_FALSE(IsRectFeasible(7, 2, 5));
  EXPECT_FALSE(IsRectFeasible(9, 2, 5));  // 3x3 exceeds 2 rows; 1x9, 9x1 too
}

TEST(RectTest, FeasibleProcCountsEightByEight) {
  const std::vector<int> counts = FeasibleProcCounts(8, 8);
  // All of 1..10 are feasible; 11 and 13 are not.
  for (int p = 1; p <= 10; ++p) {
    EXPECT_NE(std::find(counts.begin(), counts.end(), p), counts.end());
  }
  EXPECT_EQ(std::find(counts.begin(), counts.end(), 11), counts.end());
  EXPECT_EQ(std::find(counts.begin(), counts.end(), 13), counts.end());
  EXPECT_EQ(counts.back(), 64);
}

TEST(RectTest, FeasibleProcCountsStopAtTheMaximum) {
  EXPECT_EQ(FeasibleProcCounts(8, 8, 12),
            (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}));
  EXPECT_EQ(FeasibleProcCounts(8, 8, 100), FeasibleProcCounts(8, 8));
  EXPECT_TRUE(FeasibleProcCounts(8, 8, 0).empty());
  // Grids whose area overflows int, or would take gigabytes to tabulate,
  // cost no more than the maximum: every count up to it is a 1 x p or
  // p x 1 rectangle.
  const std::vector<int> one_to_eight = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(FeasibleProcCounts(65536, 65537, 8), one_to_eight);
  EXPECT_EQ(FeasibleProcCounts(1, std::numeric_limits<int>::max(), 8),
            one_to_eight);
  EXPECT_EQ(FeasibleProcCounts(std::numeric_limits<int>::max(), 1, 8),
            one_to_eight);
  EXPECT_EQ(FeasibleProcCounts(40000, 50000, 8), one_to_eight);
  // 2 x 3: the table stops at the grid's area, below the maximum.
  EXPECT_EQ(FeasibleProcCounts(2, 3, std::numeric_limits<int>::max()),
            (std::vector<int>{1, 2, 3, 4, 6}));
}

TEST(RectTest, InvalidInputsThrow) {
  EXPECT_THROW(RectFactorizations(0, 8, 8), InvalidArgument);
  EXPECT_THROW(RectFactorizations(4, 0, 8), InvalidArgument);
}

TEST(RectTest, RowsBeyondTheCountChangeNoFactorization) {
  // No factor of p exceeds p, so a grid taller than p factors p exactly
  // as a grid p rows tall does.
  for (int p = 1; p <= 60; ++p) {
    for (const int cols : {1, 2, 7, p, 100'000}) {
      const auto want = RectFactorizations(p, p, cols);
      for (const int rows : {p + 1, 2 * p + 7, 100'000}) {
        EXPECT_EQ(RectFactorizations(p, rows, cols), want)
            << "p=" << p << " grid " << rows << "x" << cols;
      }
    }
  }
}

// Property: p is feasible iff it has a divisor h <= rows with p/h <= cols.
class RectSweep : public ::testing::TestWithParam<int> {};

TEST_P(RectSweep, FactorizationsAreExactlyTheFittingDivisors) {
  const int p = GetParam();
  const auto f = RectFactorizations(p, 6, 9);
  std::size_t expected = 0;
  for (int h = 1; h <= 6; ++h) {
    if (p % h == 0 && p / h <= 9) ++expected;
  }
  EXPECT_EQ(f.size(), expected);
  EXPECT_EQ(IsRectFeasible(p, 6, 9), expected > 0);
}

INSTANTIATE_TEST_SUITE_P(Counts, RectSweep, ::testing::Range(1, 55));

}  // namespace
}  // namespace pipemap
