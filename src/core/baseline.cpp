#include "core/baseline.h"

#include <algorithm>

#include "support/error.h"

namespace pipemap {
namespace {

MapResult Finish(const Evaluator& eval, Mapping mapping, std::uint64_t work) {
  MapResult result;
  result.throughput = eval.Throughput(mapping);
  result.mapping = std::move(mapping);
  result.work = work;
  return result;
}

}  // namespace

MapResult DataParallelMapping(const Evaluator& eval, int total_procs) {
  const int k = eval.num_tasks();
  const int min_p = eval.MinProcs(0, k - 1);
  if (min_p > total_procs) {
    throw Infeasible("DataParallelMapping: chain does not fit in memory on "
                     "the full machine");
  }
  Mapping mapping;
  mapping.modules.push_back(ModuleAssignment{0, k - 1, 1, total_procs});
  return Finish(eval, std::move(mapping), 1);
}

MapResult ReplicatedDataParallelMapping(const Evaluator& eval,
                                        int total_procs,
                                        ReplicationPolicy policy) {
  const int k = eval.num_tasks();
  const ModuleConfig cfg =
      ConfigureConstrained(eval, 0, k - 1, total_procs, policy, {});
  if (!cfg.valid) {
    throw Infeasible("ReplicatedDataParallelMapping: chain does not fit");
  }
  Mapping mapping;
  mapping.modules.push_back(
      ModuleAssignment{0, k - 1, cfg.replicas, cfg.procs});
  return Finish(eval, std::move(mapping), 1);
}

MapResult TaskParallelMapping(const Evaluator& eval, int total_procs) {
  const int k = eval.num_tasks();
  std::vector<int> budgets(k);
  int used = 0;
  for (int t = 0; t < k; ++t) {
    budgets[t] = eval.MinProcs(t, t);
    if (budgets[t] >= kInfeasibleProcs) {
      throw Infeasible("TaskParallelMapping: task does not fit in memory");
    }
    used += budgets[t];
  }
  if (used > total_procs) {
    throw Infeasible("TaskParallelMapping: memory minima exceed machine");
  }
  // Round-robin the remaining processors for an (approximately) even split.
  for (int t = 0; used < total_procs; t = (t + 1) % k) {
    ++budgets[t];
    ++used;
  }
  Mapping mapping;
  for (int t = 0; t < k; ++t) {
    mapping.modules.push_back(ModuleAssignment{t, t, 1, budgets[t]});
  }
  return Finish(eval, std::move(mapping), static_cast<std::uint64_t>(k));
}

MapResult NoCommAssignmentMapping(const Evaluator& eval, int total_procs,
                                  ReplicationPolicy policy) {
  const int k = eval.num_tasks();
  std::vector<int> budgets(k);
  int used = 0;
  for (int t = 0; t < k; ++t) {
    budgets[t] = eval.MinProcs(t, t);
    if (budgets[t] >= kInfeasibleProcs) {
      throw Infeasible("NoCommAssignmentMapping: task does not fit in memory");
    }
    used += budgets[t];
  }
  if (used > total_procs) {
    throw Infeasible("NoCommAssignmentMapping: memory minima exceed machine");
  }

  std::uint64_t work = 0;
  auto effective_exec = [&](int t, int budget) {
    const ModuleConfig cfg =
        ConfigureConstrained(eval, t, t, budget, policy, {});
    PIPEMAP_CHECK(cfg.valid, "NoCommAssignmentMapping: config degenerated");
    return eval.Exec(t, cfg.procs) / cfg.replicas;
  };

  for (; used < total_procs; ++used) {
    // Grant a processor to the slowest task by execution time alone — the
    // O(P k) algorithm the paper describes for negligible communication.
    int slowest = 0;
    double worst = -1.0;
    for (int t = 0; t < k; ++t) {
      ++work;
      const double e = effective_exec(t, budgets[t]);
      if (e > worst) {
        worst = e;
        slowest = t;
      }
    }
    ++budgets[slowest];
  }

  Mapping mapping;
  for (int t = 0; t < k; ++t) {
    const ModuleConfig cfg =
        ConfigureConstrained(eval, t, t, budgets[t], policy, {});
    mapping.modules.push_back(
        ModuleAssignment{t, t, cfg.replicas, cfg.procs});
  }
  return Finish(eval, std::move(mapping), work);
}

}  // namespace pipemap
