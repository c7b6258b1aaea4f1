#include "costmodel/memory.h"

#include <gtest/gtest.h>

#include "support/error.h"

namespace pipemap {
namespace {

TEST(MemoryTest, NoDistributedDataNeedsOneProcessor) {
  EXPECT_EQ(MinProcessors({10.0, 0.0}, 100.0), 1);
}

TEST(MemoryTest, DistributedDataDividesAcrossProcessors) {
  // 250 bytes distributed, 100 bytes headroom per node -> 3 processors.
  EXPECT_EQ(MinProcessors({0.0, 250.0}, 100.0), 3);
}

TEST(MemoryTest, FixedPartReducesHeadroom) {
  // Headroom = 100 - 60 = 40; 200 / 40 = 5.
  EXPECT_EQ(MinProcessors({60.0, 200.0}, 100.0), 5);
}

TEST(MemoryTest, ExactFitBoundary) {
  EXPECT_EQ(MinProcessors({0.0, 300.0}, 100.0), 3);
  EXPECT_EQ(MinProcessors({0.0, 301.0}, 100.0), 4);
}

TEST(MemoryTest, FixedExceedingNodeMemoryIsInfeasible) {
  EXPECT_THROW(MinProcessors({150.0, 10.0}, 100.0), Infeasible);
  EXPECT_THROW(MinProcessors({100.0, 0.0}, 100.0), Infeasible);
}

TEST(MemoryTest, CountBeyondIntIsInfeasible) {
  // Ten 0.1 MB fixed parts sum to a hair under 1 MB, leaving about 1e-10 B
  // of headroom: the count (about 4.5e15) fits no machine and no int.
  constexpr double kMB = 1024.0 * 1024.0;
  double fixed = 0.0;
  for (int t = 0; t < 10; ++t) fixed += 0.1 * kMB;
  ASSERT_GT(kMB - fixed, 0.0);
  ASSERT_LT(kMB - fixed, 1e-9);
  EXPECT_THROW(MinProcessors({fixed, 0.5 * kMB}, kMB), Infeasible);
  // The largest count an int holds is still an answer.
  EXPECT_EQ(MinProcessors({0.0, 2147483647.0}, 1.0), 2147483647);
}

TEST(MemoryTest, InvalidInputsThrow) {
  EXPECT_THROW(MinProcessors({0.0, 10.0}, 0.0), InvalidArgument);
  EXPECT_THROW(MinProcessors({-1.0, 10.0}, 100.0), InvalidArgument);
  EXPECT_THROW(MinProcessors({0.0, -10.0}, 100.0), InvalidArgument);
}

TEST(MemorySpecTest, AdditionSumsBothParts) {
  const MemorySpec a{10.0, 100.0};
  const MemorySpec b{5.0, 50.0};
  const MemorySpec c = a + b;
  EXPECT_DOUBLE_EQ(c.fixed_bytes, 15.0);
  EXPECT_DOUBLE_EQ(c.distributed_bytes, 150.0);
}

TEST(MemorySpecTest, MergingRaisesMinimumProcessors) {
  // The Section-6.3 effect: a merged module needs at least as many
  // processors as either constituent, usually more.
  const MemorySpec a{20.0, 150.0};
  const MemorySpec b{20.0, 150.0};
  const int pa = MinProcessors(a, 100.0);
  const int pm = MinProcessors(a + b, 100.0);
  EXPECT_EQ(pa, 2);
  EXPECT_EQ(pm, 5);
  EXPECT_GE(pm, pa);
}

// Sweep: MinProcessors result always satisfies the footprint inequality and
// is minimal.
class MinProcsSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinProcsSweep, ResultIsMinimalFeasible) {
  const double dist = 37.0 * GetParam();
  const MemorySpec spec{25.0, dist};
  const double node = 120.0;
  const int p = MinProcessors(spec, node);
  EXPECT_LE(spec.fixed_bytes + spec.distributed_bytes / p, node + 1e-9);
  if (p > 1) {
    EXPECT_GT(spec.fixed_bytes + spec.distributed_bytes / (p - 1),
              node - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Volumes, MinProcsSweep, ::testing::Range(1, 40, 3));

}  // namespace
}  // namespace pipemap
