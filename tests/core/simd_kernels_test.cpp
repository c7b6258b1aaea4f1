// Bit-identity pin for the SIMD kernels (core/simd_kernels.h): the
// dispatched implementation — AVX2 where the host supports it, the
// portable scalar fallback otherwise — must match a plain C++ reference
// that follows the documented expression order, bit for bit, lane for
// lane. Every kernel op is IEEE-exact (add/sub/mul/div/max/compare) and
// the kernels' TU is compiled with -ffp-contract=off, so any divergence
// here is a real contract break, not rounding noise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/simd_kernels.h"

namespace pipemap {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t Bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(Bits(a), Bits(b))

TEST(SimdKernelsTest, PolyScalarRowMatchesReference) {
  std::mt19937_64 rng(101);
  std::uniform_real_distribution<double> coef(-2.0, 2.0);
  for (int trial = 0; trial < 50; ++trial) {
    const double c[3] = {coef(rng), coef(rng), coef(rng)};
    const int max_p = 1 + static_cast<int>(rng() % 200);
    std::vector<double> out(static_cast<std::size_t>(max_p) + 1, -7.0);
    simd::PolyScalarRow(c, out.data(), max_p);
    EXPECT_BITEQ(out[0], -7.0);  // untouched
    for (int p = 1; p <= max_p; ++p) {
      const double expected = c[0] + c[1] / p + c[2] * p;
      EXPECT_BITEQ(out[static_cast<std::size_t>(p)], expected)
          << "trial " << trial << " p " << p;
    }
  }
}

TEST(SimdKernelsTest, PolyPairRowMatchesReference) {
  std::mt19937_64 rng(202);
  std::uniform_real_distribution<double> coef(-2.0, 2.0);
  for (int trial = 0; trial < 50; ++trial) {
    const double c[5] = {coef(rng), coef(rng), coef(rng), coef(rng),
                         coef(rng)};
    const int ps = 1 + static_cast<int>(rng() % 64);
    const int max_pr = 1 + static_cast<int>(rng() % 200);
    std::vector<double> out(static_cast<std::size_t>(max_pr) + 1, -7.0);
    simd::PolyPairRow(c, ps, out.data(), max_pr);
    EXPECT_BITEQ(out[0], -7.0);
    for (int pr = 1; pr <= max_pr; ++pr) {
      const double expected =
          c[0] + c[1] / ps + c[2] / pr + c[3] * ps + c[4] * pr;
      EXPECT_BITEQ(out[static_cast<std::size_t>(pr)], expected)
          << "trial " << trial << " pr " << pr;
    }
  }
}

TEST(SimdKernelsTest, RowMinMatchesReference) {
  std::mt19937_64 rng(303);
  std::uniform_real_distribution<double> val(0.0, 10.0);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = static_cast<int>(rng() % 40);
    std::vector<double> x(static_cast<std::size_t>(n));
    for (double& v : x) {
      v = (rng() % 4 == 0) ? kInf : val(rng);  // sprinkle +inf padding
    }
    double expected = kInf;
    for (const double v : x) expected = std::min(expected, v);
    EXPECT_BITEQ(simd::RowMin(x.data(), n), expected) << "trial " << trial;
  }
  EXPECT_BITEQ(simd::RowMin(nullptr, 0), kInf);
}

/// Reference fold per the header contract, processing the padded lane
/// count like both production paths do.
void ReferenceUpdate(double v, double c_in, double d_in, double src_index,
                     const double* o, int m, double replicas,
                     double response_cap, bool path_sum, double* best,
                     double* src) {
  const int m4 = (m + 3) & ~3;
  for (int t = 0; t < m4; ++t) {
    const double resp = (c_in + o[t]) / replicas;
    double cand = path_sum ? d_in + o[t] : std::max(resp, v);
    if (resp > response_cap) cand = kInf;
    if (cand < best[t]) {
      best[t] = cand;
      src[t] = src_index;
    }
  }
}

TEST(SimdKernelsTest, UpdateBestOverTargetsMatchesReference) {
  std::mt19937_64 rng(404);
  std::uniform_real_distribution<double> val(0.1, 5.0);
  for (const bool path_sum : {false, true}) {
    for (int trial = 0; trial < 60; ++trial) {
      const int m = 1 + static_cast<int>(rng() % 23);
      const int m4 = (m + 3) & ~3;
      std::vector<double> o(static_cast<std::size_t>(m4));
      for (double& x : o) x = val(rng);  // padding lanes finite: allowed
      std::vector<double> best(static_cast<std::size_t>(m4), kInf);
      std::vector<double> src(static_cast<std::size_t>(m4), -1.0);
      std::vector<double> ref_best = best;
      std::vector<double> ref_src = src;
      const double response_cap = (trial % 3 == 0) ? val(rng) * 2.0 : kInf;

      // Fold several sources in ascending index order, as the sweep does;
      // the strict < must keep the first source achieving each minimum.
      const int sources = 1 + static_cast<int>(rng() % 6);
      for (int i = 0; i < sources; ++i) {
        const double v = val(rng);
        const double c_in = val(rng);
        const double d_in = val(rng);
        const double replicas = 1.0 + static_cast<double>(rng() % 4);
        simd::UpdateBestOverTargets(v, c_in, d_in, static_cast<double>(i),
                                    o.data(), m, replicas, response_cap,
                                    path_sum, best.data(), src.data());
        ReferenceUpdate(v, c_in, d_in, static_cast<double>(i), o.data(), m,
                        replicas, response_cap, path_sum, ref_best.data(),
                        ref_src.data());
      }
      for (int t = 0; t < m; ++t) {
        EXPECT_BITEQ(best[static_cast<std::size_t>(t)],
                     ref_best[static_cast<std::size_t>(t)])
            << "path_sum " << path_sum << " trial " << trial << " lane " << t;
        EXPECT_BITEQ(src[static_cast<std::size_t>(t)],
                     ref_src[static_cast<std::size_t>(t)])
            << "path_sum " << path_sum << " trial " << trial << " lane " << t;
      }
    }
  }
}

}  // namespace
}  // namespace pipemap
