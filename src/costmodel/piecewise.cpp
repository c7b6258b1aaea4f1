#include "costmodel/piecewise.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/error.h"

namespace pipemap {
namespace {

/// Piecewise-linear interpolation helper over a sorted axis. Returns the
/// pair (index of lower bracket, blend weight toward upper bracket).
std::pair<std::size_t, double> Bracket(const std::vector<int>& axis, int x) {
  if (x <= axis.front()) return {0, 0.0};
  if (x >= axis.back()) return {axis.size() - 1, 0.0};
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - axis.begin());
  const std::size_t lo = hi - 1;
  const double t = static_cast<double>(x - axis[lo]) /
                   static_cast<double>(axis[hi] - axis[lo]);
  return {lo, t};
}

/// Bilinear blend of grid rows r0, r1 (weight st) at receiver cell ri
/// (weight rt). Eval and EvalRow share it, so they agree bit for bit.
double Blend(const double* r0, const double* r1, double st, std::size_t ri,
             double rt) {
  const std::size_t ri2 = rt > 0.0 ? ri + 1 : ri;
  const double v0 = (1.0 - rt) * r0[ri] + rt * r0[ri2];
  const double v1 = (1.0 - rt) * r1[ri] + rt * r1[ri2];
  return (1.0 - st) * v0 + st * v1;
}

}  // namespace

TabulatedScalarCost::TabulatedScalarCost(
    std::vector<std::pair<int, double>> samples) {
  PIPEMAP_CHECK(!samples.empty(), "TabulatedScalarCost: no samples");
  std::map<int, std::pair<double, int>> accum;  // procs -> (sum, count)
  for (const auto& [p, t] : samples) {
    PIPEMAP_CHECK(p >= 1, "TabulatedScalarCost: procs must be >= 1");
    auto& entry = accum[p];
    entry.first += t;
    entry.second += 1;
  }
  samples_.reserve(accum.size());
  for (const auto& [p, sum_count] : accum) {
    samples_.emplace_back(p, sum_count.first / sum_count.second);
  }
}

double TabulatedScalarCost::Eval(int procs) const {
  PIPEMAP_CHECK(procs >= 1, "TabulatedScalarCost: procs must be >= 1");
  // `samples_` is sorted by processor count (built from an ordered map), so
  // bracket it in place; this is a mapper hot path and must not allocate.
  if (procs <= samples_.front().first) return samples_.front().second;
  if (procs >= samples_.back().first) return samples_.back().second;
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), procs,
      [](int x, const std::pair<int, double>& s) { return x < s.first; });
  const auto lo = it - 1;
  const double t = static_cast<double>(procs - lo->first) /
                   static_cast<double>(it->first - lo->first);
  return (1.0 - t) * lo->second + t * it->second;
}

std::unique_ptr<ScalarCost> TabulatedScalarCost::Clone() const {
  return std::make_unique<TabulatedScalarCost>(samples_);
}

TabulatedPairCost::TabulatedPairCost(std::vector<Sample> samples) {
  PIPEMAP_CHECK(!samples.empty(), "TabulatedPairCost: no samples");
  for (const Sample& s : samples) {
    PIPEMAP_CHECK(s.sender_procs >= 1 && s.receiver_procs >= 1,
                  "TabulatedPairCost: processor counts must be >= 1");
    sender_axis_.push_back(s.sender_procs);
    receiver_axis_.push_back(s.receiver_procs);
  }
  auto uniquify = [](std::vector<int>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  uniquify(sender_axis_);
  uniquify(receiver_axis_);

  const std::size_t ns = sender_axis_.size();
  const std::size_t nr = receiver_axis_.size();
  grid_.assign(ns * nr, std::nan(""));
  std::vector<int> counts(ns * nr, 0);
  auto index_of = [](const std::vector<int>& axis, int x) {
    return static_cast<std::size_t>(
        std::lower_bound(axis.begin(), axis.end(), x) - axis.begin());
  };
  for (const Sample& s : samples) {
    const std::size_t si = index_of(sender_axis_, s.sender_procs);
    const std::size_t ri = index_of(receiver_axis_, s.receiver_procs);
    const std::size_t idx = si * nr + ri;
    if (counts[idx] == 0) grid_[idx] = 0.0;
    grid_[idx] += s.seconds;
    counts[idx] += 1;
  }
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    if (counts[i] > 0) grid_[i] /= counts[i];
  }
  // Fill holes with the nearest (Manhattan distance on grid indices)
  // populated cell, so interpolation is always defined.
  for (std::size_t si = 0; si < ns; ++si) {
    for (std::size_t ri = 0; ri < nr; ++ri) {
      if (!std::isnan(grid_[si * nr + ri])) continue;
      double best = std::nan("");
      std::size_t best_dist = static_cast<std::size_t>(-1);
      for (std::size_t sj = 0; sj < ns; ++sj) {
        for (std::size_t rj = 0; rj < nr; ++rj) {
          if (counts[sj * nr + rj] == 0) continue;
          const std::size_t dist =
              (sj > si ? sj - si : si - sj) + (rj > ri ? rj - ri : ri - rj);
          if (dist < best_dist) {
            best_dist = dist;
            best = grid_[sj * nr + rj];
          }
        }
      }
      grid_[si * nr + ri] = best;
    }
  }
}

double TabulatedPairCost::Eval(int sender_procs, int receiver_procs) const {
  PIPEMAP_CHECK(sender_procs >= 1 && receiver_procs >= 1,
                "TabulatedPairCost: processor counts must be >= 1");
  const auto [si, st] = Bracket(sender_axis_, sender_procs);
  const auto [ri, rt] = Bracket(receiver_axis_, receiver_procs);
  const std::size_t nr = receiver_axis_.size();
  return Blend(&grid_[si * nr], &grid_[(st > 0.0 ? si + 1 : si) * nr], st, ri,
               rt);
}

void TabulatedPairCost::EvalRow(int sender_procs, double* row,
                                int max_receiver_procs) const {
  PIPEMAP_CHECK(sender_procs >= 1,
                "TabulatedPairCost: processor counts must be >= 1");
  const auto [si, st] = Bracket(sender_axis_, sender_procs);
  const std::vector<int>& axis = receiver_axis_;
  const double* r0 = &grid_[si * axis.size()];
  const double* r1 = &grid_[(st > 0.0 ? si + 1 : si) * axis.size()];
  // Bracket(axis, pr) for rising pr: `hi`, its upper_bound, only moves
  // forward, so a row costs one pass over the axis.
  std::size_t hi = 0;
  for (int pr = 1; pr <= max_receiver_procs; ++pr) {
    while (hi < axis.size() && axis[hi] <= pr) ++hi;
    if (hi == 0 || hi == axis.size()) {  // clamped below or above the axis
      row[pr] = Blend(r0, r1, st, hi == 0 ? 0 : hi - 1, 0.0);
    } else {
      const double rt = static_cast<double>(pr - axis[hi - 1]) /
                        static_cast<double>(axis[hi] - axis[hi - 1]);
      row[pr] = Blend(r0, r1, st, hi - 1, rt);
    }
  }
}

std::unique_ptr<PairCost> TabulatedPairCost::Clone() const {
  return std::make_unique<TabulatedPairCost>(*this);
}

}  // namespace pipemap
