// Pointwise-defined cost functions with interpolation.
//
// Section 5 notes that the mapping algorithms accept cost functions "defined
// pointwise possibly using interpolation"; these classes provide that form,
// used when a profile exists for a handful of processor counts and no
// parametric fit is wanted.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "costmodel/cost_function.h"

namespace pipemap {

/// ScalarCost defined by (procs, seconds) samples; evaluation linearly
/// interpolates between bracketing samples and clamps outside the sampled
/// range (flat extrapolation, the conservative choice for a profile).
class TabulatedScalarCost final : public ScalarCost {
 public:
  /// Samples need not be sorted; duplicates (same procs) are averaged.
  explicit TabulatedScalarCost(
      std::vector<std::pair<int, double>> samples);

  double Eval(int procs) const override;
  std::unique_ptr<ScalarCost> Clone() const override;

  const std::vector<std::pair<int, double>>& samples() const {
    return samples_;
  }

 private:
  std::vector<std::pair<int, double>> samples_;  // sorted by procs
};

/// PairCost defined by (sender, receiver, seconds) samples; evaluation uses
/// bilinear interpolation over the rectangular grid induced by the distinct
/// sender and receiver counts. Missing grid cells are filled by nearest
/// available samples at construction.
class TabulatedPairCost final : public PairCost {
 public:
  struct Sample {
    int sender_procs;
    int receiver_procs;
    double seconds;
  };

  explicit TabulatedPairCost(std::vector<Sample> samples);

  double Eval(int sender_procs, int receiver_procs) const override;
  /// One sender bracket per row and one pass over the receiver axis.
  void EvalRow(int sender_procs, double* row,
               int max_receiver_procs) const override;
  std::unique_ptr<PairCost> Clone() const override;

  /// The filled grid, cell (si, ri) at grid()[si * receiver_axis().size()
  /// + ri]; one sample per cell rebuilds it exactly.
  const std::vector<int>& sender_axis() const { return sender_axis_; }
  const std::vector<int>& receiver_axis() const { return receiver_axis_; }
  const std::vector<double>& grid() const { return grid_; }

 private:
  std::vector<int> sender_axis_;    // sorted distinct sender counts
  std::vector<int> receiver_axis_;  // sorted distinct receiver counts
  std::vector<double> grid_;        // row-major [sender][receiver]
};

}  // namespace pipemap
