#include "core/dp_mapper.h"

#include "core/dp_engine.h"

namespace pipemap {

DpMapper::DpMapper(MapperOptions options) : options_(std::move(options)) {}

MapResult DpMapper::Map(const Evaluator& eval, int total_procs) const {
  detail::DpProblem problem;
  problem.eval = &eval;
  problem.total_procs = total_procs;
  problem.options = options_;
  problem.objective = detail::DpObjective::kBottleneck;
  detail::DpSolution solution = detail::RunChainDp(problem);

  MapResult result;
  result.mapping = std::move(solution.mapping);
  result.throughput = eval.Throughput(result.mapping);
  result.work = solution.work;
  result.pruned_cells = solution.pruned_cells;
  result.timed_out = solution.timed_out;
  result.worker_work = std::move(solution.worker_work);
  return result;
}

}  // namespace pipemap
