// Vectorized inner-loop kernels for the evaluator tabulation and the DP
// stage sweep, with runtime AVX2 dispatch and a portable scalar fallback.
//
// Bit-identity contract: every kernel uses only IEEE-exact operations
// (add, sub, mul, div, max, compare) in the same association order as the
// scalar reference code, so the AVX2 and scalar paths produce bitwise
// identical outputs (simd_kernels_test pins this lane by lane). The TU is
// compiled with -ffp-contract=off so the compiler cannot fuse a*b+c into
// an FMA on one path but not the other. Inputs are assumed non-NaN (cost
// functions return times); +inf propagates harmlessly — an infinite
// candidate never wins a strict-< minimum update.
#pragma once

#include <cstdint>

namespace pipemap::simd {

/// True when the CPU supports AVX2 (probed once per process).
bool HasAvx2();

/// out[p] = c[0] + c[1]/p + c[2]*p for p in [1, max_p] (PolyScalarCost::
/// Eval's exact expression order). out[0] is left untouched.
void PolyScalarRow(const double c[3], double* out, int max_p);

/// out[pr] = c[0] + c[1]/ps + c[2]/pr + c[3]*ps + c[4]*pr for pr in
/// [1, max_pr] at fixed sender count ps (PolyPairCost::Eval's exact
/// expression order). out[0] is left untouched.
void PolyPairRow(const double c[5], int sender_procs, double* out,
                 int max_pr);

/// Minimum over x[0..n); returns +inf when all entries are +inf or
/// n == 0.
double RowMin(const double* x, int n);

/// The DP transition kernel: folds one source state into the per-target
/// running minima. For each target t in [0, m):
///
///   resp = (c_in + o[t]) / replicas          // module effective response
///   cand = path_sum ? d_in + o[t]            // latency aggregation
///                   : max(resp, v)           // bottleneck aggregation
///   if (resp > response_cap) cand = +inf     // == the serial `continue`
///   if (cand < best[t]) { best[t] = cand; src[t] = src_index; }
///
/// `v` is the source state's value, `c_in` its in_com + body, `d_in` its
/// value + body; `o[t]` the outgoing external-communication cost of target
/// t. The strict < keeps the first (lowest-index) source achieving each
/// minimum, reproducing the serial sweep's pp-ascending tie rule when
/// sources are folded in ascending order. `src` stores indices as doubles
/// so one compare mask blends value and index alike; indices are small
/// integers, exactly representable.
///
/// `o`, `best`, and `src` must be readable/writable for m rounded up to a
/// multiple of 4 (both the scalar and AVX2 paths process the padded lane
/// count, so they stay bitwise interchangeable lane for lane). Padding o
/// lanes may hold +inf or any finite value: lanes at index >= m are
/// scratch — the caller must consume only best/src[0..m).
void UpdateBestOverTargets(double v, double c_in, double d_in,
                           double src_index, const double* o, int m,
                           double replicas, double response_cap,
                           bool path_sum, double* best, double* src);

}  // namespace pipemap::simd
