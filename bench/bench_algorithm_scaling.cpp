// Algorithm runtime scaling (Sections 3 and 4): the dynamic program costs
// O(P^4 k^2) (O(P^4 k) without clustering) while the greedy heuristic is
// O(P k) — "this computation cost can be unacceptably high when the number
// of processors is large, particularly when mapping tasks dynamically."
//
// Best-of-kReps steady-clock timings over P for both mappers, plus
// k-scaling at fixed P and the cost of one Evaluator::Throughput call. The
// work column is the mapper's own count: DP transitions or greedy steps.
//
// Usage: bench_algorithm_scaling
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "core/greedy_mapper.h"
#include "support/table.h"
#include "workloads/synthetic.h"

namespace pipemap::bench {
namespace {

constexpr int kReps = 20;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Workload ChainFor(int num_tasks, int procs) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = num_tasks;
  spec.machine_procs = procs;
  spec.comm_comp_ratio = 0.4;
  spec.memory_tightness = 0.15;
  return workloads::MakeSynthetic(spec, 12345);
}

/// Adds one row: the best of kReps wall times of `mapper.Map` on a fresh
/// synthetic chain with `num_tasks` tasks and `procs` processors.
template <typename Mapper>
void TimeMapper(TextTable& table, const std::string& series,
                const Mapper& mapper, int num_tasks, int procs) {
  const Workload w = ChainFor(num_tasks, procs);
  const Evaluator eval(w.chain, procs, w.machine.node_memory_bytes);
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t work = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double start = Now();
    const MapResult r = mapper.Map(eval, procs);
    best = std::min(best, Now() - start);
    work = r.work;
  }
  table.AddRow({series, TextTable::Num(num_tasks), TextTable::Num(procs),
                TextTable::Num(best * 1e6, 1), std::to_string(work)});
}

int Run() {
  std::printf("Algorithm runtime scaling (best of %d)\n\n", kReps);
  TextTable table({"Series", "k", "P", "Best us", "Work"});

  const DpMapper dp;
  for (const int procs : {16, 32, 48, 64}) {
    TimeMapper(table, "DP vs P", dp, 3, procs);
  }
  table.AddSeparator();
  MapperOptions assign_only;
  assign_only.allow_clustering = false;
  const DpMapper dp_assign(assign_only);
  for (const int procs : {16, 32, 64, 96}) {
    TimeMapper(table, "DP assign-only vs P", dp_assign, 3, procs);
  }
  table.AddSeparator();
  const GreedyMapper greedy;
  for (const int procs : {16, 64, 256, 512}) {
    TimeMapper(table, "Greedy vs P", greedy, 3, procs);
  }
  table.AddSeparator();
  for (const int k : {2, 4, 6, 8}) TimeMapper(table, "DP vs k", dp, k, 24);
  table.AddSeparator();
  for (const int k : {2, 4, 8, 12}) {
    TimeMapper(table, "Greedy vs k", greedy, k, 24);
  }
  std::fputs(table.Render().c_str(), stdout);

  // One Throughput call is tens of nanoseconds, so each rep times a batch.
  constexpr int kBatch = 100000;
  const Workload w = ChainFor(4, 64);
  const Evaluator eval(w.chain, 64, w.machine.node_memory_bytes);
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 1, 4, 8});
  m.modules.push_back(ModuleAssignment{2, 3, 2, 16});
  volatile double sink = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const double start = Now();
    for (int i = 0; i < kBatch; ++i) sink = eval.Throughput(m);
    best = std::min(best, (Now() - start) / kBatch);
  }
  std::printf("\nEvaluator::Throughput (k=4, P=64, 2 modules): %.1f ns"
              " per call (%.2f data sets/s)\n",
              best * 1e9, static_cast<double>(sink));
  return 0;
}

}  // namespace
}  // namespace pipemap::bench

int main() { return pipemap::bench::Run(); }
