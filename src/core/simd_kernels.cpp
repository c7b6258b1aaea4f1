#include "core/simd_kernels.h"

#include <algorithm>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#define PIPEMAP_X86 1
#include <immintrin.h>
#endif

namespace pipemap::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Scalar reference implementations. These are the semantics; the AVX2
// versions below replicate them lane for lane.
// ---------------------------------------------------------------------------

void PolyScalarRowScalar(const double c[3], double* out, int max_p) {
  for (int p = 1; p <= max_p; ++p) {
    const double pd = static_cast<double>(p);
    out[p] = c[0] + c[1] / pd + c[2] * pd;
  }
}

void PolyPairRowScalar(const double c[5], int sender_procs, double* out,
                       int max_pr) {
  const double ps = static_cast<double>(sender_procs);
  // PolyPairCost::Eval associates left to right; hoisting the pr-invariant
  // prefix c0 + c1/ps and the product c3*ps preserves every intermediate.
  const double base = c[0] + c[1] / ps;
  const double send_over = c[3] * ps;
  for (int pr = 1; pr <= max_pr; ++pr) {
    const double prd = static_cast<double>(pr);
    out[pr] = base + c[2] / prd + send_over + c[4] * prd;
  }
}

double RowMinScalar(const double* x, int n) {
  double m = kInf;
  for (int i = 0; i < n; ++i) m = std::min(m, x[i]);
  return m;
}

void UpdateBestOverTargetsScalar(double v, double c_in, double d_in,
                                 double src_index, const double* o, int m,
                                 double replicas, double response_cap,
                                 bool path_sum, double* best, double* src) {
  // Process the padded lane count like the AVX2 path does, so the two are
  // bitwise interchangeable on every lane, including the scratch tail.
  const int m4 = (m + 3) & ~3;
  for (int t = 0; t < m4; ++t) {
    const double ot = o[t];
    const double resp = (c_in + ot) / replicas;
    if (resp > response_cap) continue;
    const double cand = path_sum ? d_in + ot : std::max(v, resp);
    if (cand < best[t]) {
      best[t] = cand;
      src[t] = src_index;
    }
  }
}

#if PIPEMAP_X86

// ---------------------------------------------------------------------------
// AVX2 implementations. target("avx2") deliberately does not enable FMA:
// every lane op is the exactly-rounded IEEE equivalent of the scalar code.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void PolyScalarRowAvx2(const double c[3],
                                                       double* out,
                                                       int max_p) {
  const __m256d c0 = _mm256_set1_pd(c[0]);
  const __m256d c1 = _mm256_set1_pd(c[1]);
  const __m256d c2 = _mm256_set1_pd(c[2]);
  const __m256d four = _mm256_set1_pd(4.0);
  __m256d pv = _mm256_setr_pd(1.0, 2.0, 3.0, 4.0);
  int p = 1;
  for (; p + 3 <= max_p; p += 4) {
    const __m256d t = _mm256_add_pd(c0, _mm256_div_pd(c1, pv));
    _mm256_storeu_pd(out + p, _mm256_add_pd(t, _mm256_mul_pd(c2, pv)));
    pv = _mm256_add_pd(pv, four);
  }
  for (; p <= max_p; ++p) {
    const double pd = static_cast<double>(p);
    out[p] = c[0] + c[1] / pd + c[2] * pd;
  }
}

__attribute__((target("avx2"))) void PolyPairRowAvx2(const double c[5],
                                                     int sender_procs,
                                                     double* out,
                                                     int max_pr) {
  const double ps = static_cast<double>(sender_procs);
  const double base_s = c[0] + c[1] / ps;
  const double send_over_s = c[3] * ps;
  const __m256d base = _mm256_set1_pd(base_s);
  const __m256d send_over = _mm256_set1_pd(send_over_s);
  const __m256d c2 = _mm256_set1_pd(c[2]);
  const __m256d c4 = _mm256_set1_pd(c[4]);
  const __m256d four = _mm256_set1_pd(4.0);
  __m256d prv = _mm256_setr_pd(1.0, 2.0, 3.0, 4.0);
  int pr = 1;
  for (; pr + 3 <= max_pr; pr += 4) {
    __m256d t = _mm256_add_pd(base, _mm256_div_pd(c2, prv));
    t = _mm256_add_pd(t, send_over);
    t = _mm256_add_pd(t, _mm256_mul_pd(c4, prv));
    _mm256_storeu_pd(out + pr, t);
    prv = _mm256_add_pd(prv, four);
  }
  for (; pr <= max_pr; ++pr) {
    const double prd = static_cast<double>(pr);
    out[pr] = base_s + c[2] / prd + send_over_s + c[4] * prd;
  }
}

__attribute__((target("avx2"))) double RowMinAvx2(const double* x, int n) {
  __m256d acc = _mm256_set1_pd(kInf);
  int i = 0;
  for (; i + 3 < n; i += 4) {
    acc = _mm256_min_pd(acc, _mm256_loadu_pd(x + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double m = std::min(std::min(lanes[0], lanes[1]),
                      std::min(lanes[2], lanes[3]));
  for (; i < n; ++i) m = std::min(m, x[i]);
  return m;
}

__attribute__((target("avx2"))) void UpdateBestOverTargetsAvx2(
    double v, double c_in, double d_in, double src_index, const double* o,
    int m, double replicas, double response_cap, bool path_sum, double* best,
    double* src) {
  const __m256d vv = _mm256_set1_pd(v);
  const __m256d cv = _mm256_set1_pd(c_in);
  const __m256d dv = _mm256_set1_pd(d_in);
  const __m256d rv = _mm256_set1_pd(replicas);
  const __m256d capv = _mm256_set1_pd(response_cap);
  const __m256d infv = _mm256_set1_pd(kInf);
  const __m256d idxv = _mm256_set1_pd(src_index);
  // The caller pads o/best/src to a multiple of 4 with o = +inf, so the
  // full-vector loop needs no tail: an infinite outgoing cost produces an
  // infinite candidate, which never survives the strict-< blend.
  const int m4 = (m + 3) & ~3;
  for (int t = 0; t < m4; t += 4) {
    const __m256d ot = _mm256_loadu_pd(o + t);
    const __m256d resp = _mm256_div_pd(_mm256_add_pd(cv, ot), rv);
    __m256d cand = path_sum ? _mm256_add_pd(dv, ot)
                            : _mm256_max_pd(resp, vv);
    const __m256d over = _mm256_cmp_pd(resp, capv, _CMP_GT_OQ);
    cand = _mm256_blendv_pd(cand, infv, over);
    const __m256d bt = _mm256_loadu_pd(best + t);
    const __m256d lt = _mm256_cmp_pd(cand, bt, _CMP_LT_OQ);
    _mm256_storeu_pd(best + t, _mm256_blendv_pd(bt, cand, lt));
    const __m256d st = _mm256_loadu_pd(src + t);
    _mm256_storeu_pd(src + t, _mm256_blendv_pd(st, idxv, lt));
  }
}

bool ProbeAvx2() { return __builtin_cpu_supports("avx2") != 0; }

#else  // !PIPEMAP_X86

bool ProbeAvx2() { return false; }

#endif

}  // namespace

bool HasAvx2() {
  static const bool has = ProbeAvx2();
  return has;
}

void PolyScalarRow(const double c[3], double* out, int max_p) {
#if PIPEMAP_X86
  if (HasAvx2()) {
    PolyScalarRowAvx2(c, out, max_p);
    return;
  }
#endif
  PolyScalarRowScalar(c, out, max_p);
}

void PolyPairRow(const double c[5], int sender_procs, double* out,
                 int max_pr) {
#if PIPEMAP_X86
  if (HasAvx2()) {
    PolyPairRowAvx2(c, sender_procs, out, max_pr);
    return;
  }
#endif
  PolyPairRowScalar(c, sender_procs, out, max_pr);
}

double RowMin(const double* x, int n) {
#if PIPEMAP_X86
  if (HasAvx2()) return RowMinAvx2(x, n);
#endif
  return RowMinScalar(x, n);
}

void UpdateBestOverTargets(double v, double c_in, double d_in,
                           double src_index, const double* o, int m,
                           double replicas, double response_cap,
                           bool path_sum, double* best, double* src) {
#if PIPEMAP_X86
  if (HasAvx2()) {
    UpdateBestOverTargetsAvx2(v, c_in, d_in, src_index, o, m, replicas,
                              response_cap, path_sum, best, src);
    return;
  }
#endif
  UpdateBestOverTargetsScalar(v, c_in, d_in, src_index, o, m, replicas,
                              response_cap, path_sum, best, src);
}

}  // namespace pipemap::simd
