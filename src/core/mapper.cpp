#include "core/mapper.h"

#include <limits>

#include "support/error.h"

namespace pipemap {

FeasibleProcs::FeasibleProcs(const std::vector<int>& counts) {
  int largest = 0;
  for (const int p : counts) {
    PIPEMAP_CHECK(p >= 1, "FeasibleProcs: counts must be >= 1");
    largest = std::max(largest, p);
  }
  at_most_.assign(static_cast<std::size_t>(largest) + 1, 0);
  for (const int p : counts) at_most_[p] = p;
  for (int p = 1; p <= largest; ++p) {
    at_most_[p] = std::max(at_most_[p], at_most_[p - 1]);
  }
}

Clustering SingletonClustering(int num_tasks) {
  Clustering clustering;
  clustering.reserve(num_tasks);
  for (int t = 0; t < num_tasks; ++t) clustering.emplace_back(t, t);
  return clustering;
}

ModuleConfig ConfigureConstrained(const Evaluator& eval, int first, int last,
                                  int budget, ReplicationPolicy policy,
                                  const FeasibleProcs& feasible) {
  const int min_p = eval.MinProcs(first, last);
  if (budget < min_p || budget < 1) return {};

  const bool may_replicate = policy != ReplicationPolicy::kNone &&
                             eval.Replicable(first, last) &&
                             min_p < kInfeasibleProcs;
  const int max_r = may_replicate ? budget / min_p : 1;

  if (policy == ReplicationPolicy::kSearch) {
    ModuleConfig best;
    double best_score = std::numeric_limits<double>::infinity();
    for (int r = 1; r <= max_r; ++r) {
      const int procs = feasible.AtMost(budget / r);
      if (procs < min_p) continue;
      const double score = eval.Body(first, last, procs) / r;
      if (score < best_score) {
        best_score = score;
        best = {r, procs, true};
      }
    }
    return best;
  }

  // kMaximal (and kNone, where max_r == 1): prefer the highest replica
  // count whose per-instance share admits a feasible rectangle.
  for (int r = max_r; r >= 1; --r) {
    const int procs = feasible.AtMost(budget / r);
    if (procs >= min_p) return {r, procs, true};
  }
  return {};
}

std::optional<Mapping> BuildMapping(const Evaluator& eval,
                                    const Clustering& clustering,
                                    const std::vector<int>& budgets,
                                    ReplicationPolicy policy,
                                    const FeasibleProcs& feasible) {
  PIPEMAP_CHECK(clustering.size() == budgets.size(),
                "BuildMapping: clustering/budget size mismatch");
  Mapping mapping;
  mapping.modules.reserve(clustering.size());
  for (std::size_t i = 0; i < clustering.size(); ++i) {
    const auto [first, last] = clustering[i];
    const ModuleConfig cfg =
        ConfigureConstrained(eval, first, last, budgets[i], policy, feasible);
    if (!cfg.valid) return std::nullopt;
    mapping.modules.push_back(
        ModuleAssignment{first, last, cfg.replicas, cfg.procs});
  }
  return mapping;
}

}  // namespace pipemap
