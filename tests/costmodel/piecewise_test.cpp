#include "costmodel/piecewise.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "support/error.h"
#include "support/rng.h"

namespace pipemap {
namespace {

TEST(TabulatedScalarCostTest, ExactAtSamplePoints) {
  TabulatedScalarCost f({{1, 10.0}, {4, 4.0}, {8, 3.0}});
  EXPECT_DOUBLE_EQ(f.Eval(1), 10.0);
  EXPECT_DOUBLE_EQ(f.Eval(4), 4.0);
  EXPECT_DOUBLE_EQ(f.Eval(8), 3.0);
}

TEST(TabulatedScalarCostTest, LinearInterpolationBetweenSamples) {
  TabulatedScalarCost f({{2, 10.0}, {6, 2.0}});
  EXPECT_DOUBLE_EQ(f.Eval(4), 6.0);
  EXPECT_DOUBLE_EQ(f.Eval(3), 8.0);
}

TEST(TabulatedScalarCostTest, ClampsOutsideSampledRange) {
  TabulatedScalarCost f({{4, 8.0}, {8, 2.0}});
  EXPECT_DOUBLE_EQ(f.Eval(1), 8.0);
  EXPECT_DOUBLE_EQ(f.Eval(100), 2.0);
}

TEST(TabulatedScalarCostTest, DuplicateSamplesAveraged) {
  TabulatedScalarCost f({{4, 10.0}, {4, 6.0}});
  EXPECT_DOUBLE_EQ(f.Eval(4), 8.0);
}

TEST(TabulatedScalarCostTest, UnsortedInputHandled) {
  TabulatedScalarCost f({{8, 1.0}, {2, 7.0}, {4, 4.0}});
  EXPECT_DOUBLE_EQ(f.Eval(2), 7.0);
  EXPECT_DOUBLE_EQ(f.Eval(3), 5.5);
}

TEST(TabulatedScalarCostTest, EmptySamplesThrow) {
  EXPECT_THROW(TabulatedScalarCost({}), InvalidArgument);
}

TEST(TabulatedScalarCostTest, CloneMatches) {
  TabulatedScalarCost f({{1, 5.0}, {5, 1.0}});
  auto clone = f.Clone();
  for (int p = 1; p <= 10; ++p) {
    EXPECT_DOUBLE_EQ(clone->Eval(p), f.Eval(p));
  }
}

TEST(TabulatedPairCostTest, ExactAtGridPoints) {
  TabulatedPairCost f({{1, 1, 10.0}, {1, 4, 6.0}, {4, 1, 8.0}, {4, 4, 2.0}});
  EXPECT_DOUBLE_EQ(f.Eval(1, 1), 10.0);
  EXPECT_DOUBLE_EQ(f.Eval(4, 4), 2.0);
  EXPECT_DOUBLE_EQ(f.Eval(1, 4), 6.0);
}

TEST(TabulatedPairCostTest, BilinearInterpolation) {
  TabulatedPairCost f({{1, 1, 0.0}, {1, 3, 2.0}, {3, 1, 4.0}, {3, 3, 6.0}});
  // Center of the cell: average of the four corners.
  EXPECT_DOUBLE_EQ(f.Eval(2, 2), 3.0);
}

TEST(TabulatedPairCostTest, ClampsOutsideGrid) {
  TabulatedPairCost f({{2, 2, 1.0}, {2, 4, 2.0}, {4, 2, 3.0}, {4, 4, 4.0}});
  EXPECT_DOUBLE_EQ(f.Eval(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(f.Eval(10, 10), 4.0);
}

TEST(TabulatedPairCostTest, HolesFilledFromNearestSample) {
  // Grid cell (4, 4) missing: nearest populated neighbour fills it.
  TabulatedPairCost f({{1, 1, 5.0}, {1, 4, 6.0}, {4, 1, 7.0}});
  EXPECT_GT(f.Eval(4, 4), 0.0);
}

TEST(TabulatedPairCostTest, EmptySamplesThrow) {
  EXPECT_THROW(TabulatedPairCost(std::vector<TabulatedPairCost::Sample>{}),
               InvalidArgument);
}

TEST(TabulatedPairCostTest, InvalidProcCountsThrow) {
  TabulatedPairCost f({{1, 1, 1.0}});
  EXPECT_THROW(f.Eval(0, 1), InvalidArgument);
  EXPECT_THROW(TabulatedPairCost({{0, 1, 1.0}}), InvalidArgument);
}

/// EvalRow against Eval for every sender count up to `max_ps`, compared as
/// bytes: the Evaluator's tables, and with them the request key, must not
/// move when it fills rows instead of entries.
void ExpectRowsMatchEval(const PairCost& f, int max_ps, int max_pr) {
  std::vector<double> row(max_pr + 1, 0.0);
  std::vector<double> want(max_pr + 1, 0.0);
  for (int ps = 1; ps <= max_ps; ++ps) {
    f.EvalRow(ps, row.data(), max_pr);
    for (int pr = 1; pr <= max_pr; ++pr) want[pr] = f.Eval(ps, pr);
    ASSERT_EQ(std::memcmp(row.data(), want.data(), row.size() * sizeof(double)),
              0)
        << "sender " << ps;
  }
}

TEST(TabulatedPairCostTest, EvalRowMatchesEvalBitForBit) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    // 1-6 points per axis inside [2, 40] (repeats collapse, so some axes
    // end up single-point); rows over [1, 48] also cover counts below the
    // first and above the last point.
    std::vector<int> senders(rng.UniformInt(1, 6));
    std::vector<int> receivers(rng.UniformInt(1, 6));
    for (int& p : senders) p = rng.UniformInt(2, 40);
    for (int& p : receivers) p = rng.UniformInt(2, 40);
    // Each cell gets no sample (a hole, filled from its nearest populated
    // cell), one, or two (averaged).
    std::vector<TabulatedPairCost::Sample> samples;
    for (const int ps : senders) {
      for (const int pr : receivers) {
        for (int copies = rng.UniformInt(0, 2); copies > 0; --copies) {
          samples.push_back({ps, pr, rng.Uniform(0.0, 1.0)});
        }
      }
    }
    if (samples.empty()) samples.push_back({senders[0], receivers[0], 0.5});
    ExpectRowsMatchEval(TabulatedPairCost(std::move(samples)), 48, 48);
  }
  ExpectRowsMatchEval(TabulatedPairCost({{5, 7, 1.25}}), 12, 12);
  ExpectRowsMatchEval(TabulatedPairCost({{1, 1, 2.0}, {1, 64, 0.5}}), 4, 80);
}

TEST(PairCostTest, DefaultEvalRowCallsEval) {
  const CallbackPairCost f([](int ps, int pr) { return 1.0 / ps + 0.1 * pr; });
  ExpectRowsMatchEval(f, 9, 9);
}

}  // namespace
}  // namespace pipemap
