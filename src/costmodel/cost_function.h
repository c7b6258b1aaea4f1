// Cost-function interfaces.
//
// The paper's algorithms are deliberately model-agnostic (Section 5): the
// mapping machinery consumes only "time as a function of processor counts".
// ScalarCost models execution time f_exec(p) and internal redistribution
// f_icom(p); PairCost models external communication f_ecom(p_sender,
// p_receiver).
#pragma once

#include <functional>
#include <memory>

namespace pipemap {

/// Time as a function of one processor count (f_exec, f_icom).
class ScalarCost {
 public:
  virtual ~ScalarCost() = default;

  /// Time in seconds on `procs` processors. Requires procs >= 1.
  virtual double Eval(int procs) const = 0;

  virtual std::unique_ptr<ScalarCost> Clone() const = 0;
};

/// Time as a function of sender and receiver processor counts (f_ecom).
class PairCost {
 public:
  virtual ~PairCost() = default;

  /// Time in seconds to move one data set from `sender_procs` processors to
  /// `receiver_procs` processors. Requires both >= 1.
  virtual double Eval(int sender_procs, int receiver_procs) const = 0;

  /// Fills row[pr] = Eval(sender_procs, pr), bit for bit, for pr in [1,
  /// max_receiver_procs]. Overrides share work across the row but must
  /// keep Eval's expression and evaluation order.
  virtual void EvalRow(int sender_procs, double* row,
                       int max_receiver_procs) const {
    for (int pr = 1; pr <= max_receiver_procs; ++pr) {
      row[pr] = Eval(sender_procs, pr);
    }
  }

  virtual std::unique_ptr<PairCost> Clone() const = 0;
};

/// ScalarCost backed by an arbitrary callable; the bridge between workload
/// ground-truth functions (which include log terms, contention knees, etc.)
/// and the mapper-facing interface.
class CallbackScalarCost final : public ScalarCost {
 public:
  explicit CallbackScalarCost(std::function<double(int)> fn)
      : fn_(std::move(fn)) {}

  double Eval(int procs) const override { return fn_(procs); }

  std::unique_ptr<ScalarCost> Clone() const override {
    return std::make_unique<CallbackScalarCost>(fn_);
  }

 private:
  std::function<double(int)> fn_;
};

/// PairCost backed by an arbitrary callable.
class CallbackPairCost final : public PairCost {
 public:
  explicit CallbackPairCost(std::function<double(int, int)> fn)
      : fn_(std::move(fn)) {}

  double Eval(int sender_procs, int receiver_procs) const override {
    return fn_(sender_procs, receiver_procs);
  }

  std::unique_ptr<PairCost> Clone() const override {
    return std::make_unique<CallbackPairCost>(fn_);
  }

 private:
  std::function<double(int, int)> fn_;
};

/// A ScalarCost that is identically zero; used for chains whose endpoints
/// have no external input/output cost and in tests.
class ZeroScalarCost final : public ScalarCost {
 public:
  double Eval(int) const override { return 0.0; }
  std::unique_ptr<ScalarCost> Clone() const override {
    return std::make_unique<ZeroScalarCost>();
  }
};

/// A PairCost that is identically zero; models the Choudhary et al. [4]
/// assumption of free inter-task communication (used as an ablation).
class ZeroPairCost final : public PairCost {
 public:
  double Eval(int, int) const override { return 0.0; }
  std::unique_ptr<PairCost> Clone() const override {
    return std::make_unique<ZeroPairCost>();
  }
};

}  // namespace pipemap
