#include "core/evaluator.h"

#include <algorithm>

#include "core/simd_kernels.h"
#include "costmodel/memory.h"
#include "costmodel/poly.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/metrics.h"
#include "support/thread_pool.h"
#include "support/tracer.h"

namespace pipemap {
namespace {

// Above this machine size the O(k P^2) external-communication tables stop
// paying for themselves; fall back to direct cost-function calls.
constexpr int kTabulationLimit = 512;

/// Fills row[p] = cost.Eval(p) for p in [1, max_p]. Section-5 polynomial
/// costs take the vectorized kernel (bitwise identical to per-entry Eval:
/// same expression, same association, no FMA contraction on either path);
/// everything else calls Eval per entry.
void FillScalarRow(const ScalarCost& cost, double* row, int max_p) {
  if (const auto* poly = dynamic_cast<const PolyScalarCost*>(&cost)) {
    simd::PolyScalarRow(poly->coeffs().data(), row, max_p);
    return;
  }
  for (int p = 1; p <= max_p; ++p) row[p] = cost.Eval(p);
}

/// Fills row[pr] = cost.Eval(ps, pr) for pr in [1, max_p] at fixed sender
/// count ps; polynomial pair costs take the vectorized kernel.
void FillPairRow(const PairCost& cost, int ps, double* row, int max_p) {
  if (const auto* poly = dynamic_cast<const PolyPairCost*>(&cost)) {
    simd::PolyPairRow(poly->coeffs().data(), ps, row, max_p);
    return;
  }
  cost.EvalRow(ps, row, max_p);
}

}  // namespace

Evaluator::Evaluator(const TaskChain& chain, int max_procs,
                     double node_memory_bytes, int num_threads)
    : chain_(&chain),
      k_(chain.size()),
      max_procs_(max_procs),
      node_memory_bytes_(node_memory_bytes),
      tabulated_(max_procs <= kTabulationLimit) {
  PIPEMAP_CHECK(max_procs_ >= 1, "Evaluator: need at least one processor");
  PIPEMAP_CHECK(node_memory_bytes_ > 0.0,
                "Evaluator: node memory must be positive");
  const ChainCostModel& costs = chain.costs();
  const int pp = max_procs_ + 1;
  num_threads = ThreadPool::ResolveThreads(num_threads);

  PIPEMAP_TRACE_SPAN("evaluator.tabulate", "evaluator", max_procs_);

  if (tabulated_) {
    exec_table_.assign(static_cast<std::size_t>(k_) * pp, 0.0);
    icom_table_.assign(static_cast<std::size_t>(std::max(0, k_ - 1)) * pp,
                       0.0);
    body_prefix_.assign(static_cast<std::size_t>(k_ + 1) * pp, 0.0);
    ecom_table_.assign(
        static_cast<std::size_t>(std::max(0, k_ - 1)) * pp * pp, 0.0);
    for (int t = 0; t < k_; ++t) {
      FillScalarRow(costs.ExecFn(t),
                    &exec_table_[static_cast<std::size_t>(t) * pp],
                    max_procs_);
    }
    PIPEMAP_COUNTER_ADD("evaluator.exec_evals",
                        static_cast<std::uint64_t>(k_) * max_procs_);
    for (int e = 0; e < k_ - 1; ++e) {
      FillScalarRow(costs.IComFn(e),
                    &icom_table_[static_cast<std::size_t>(e) * pp],
                    max_procs_);
    }
    PIPEMAP_COUNTER_ADD(
        "evaluator.icom_evals",
        static_cast<std::uint64_t>(std::max(0, k_ - 1)) * max_procs_);
    // The external-communication table is the expensive part —
    // (k-1)·(P+1)² cost-function calls. Each (edge, sender) pair owns a
    // disjoint row of the table, so the fill is embarrassingly parallel.
    ParallelFor(
        num_threads, static_cast<std::int64_t>(std::max(0, k_ - 1)) * max_procs_,
        ParallelSchedule::kDynamic, std::max(1, max_procs_ / 4),
        [&](int, std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            const int e = static_cast<int>(i / max_procs_);
            const int ps = static_cast<int>(i % max_procs_) + 1;
            double* row =
                &ecom_table_[(static_cast<std::size_t>(e) * pp + ps) * pp];
            FillPairRow(costs.EComFn(e), ps, row, max_procs_);
          }
          // One bulk add per chunk keeps the counter out of the fill loop.
          PIPEMAP_COUNTER_ADD(
              "evaluator.ecom_evals",
              static_cast<std::uint64_t>(end - begin) * max_procs_);
        });
    for (int p = 1; p <= max_procs_; ++p) {
      double acc = 0.0;
      body_prefix_[p] = 0.0;
      for (int t = 0; t < k_; ++t) {
        acc += exec_table_[static_cast<std::size_t>(t) * pp + p];
        if (t > 0) {
          acc += icom_table_[static_cast<std::size_t>(t - 1) * pp + p];
        }
        body_prefix_[static_cast<std::size_t>(t + 1) * pp + p] = acc;
      }
    }
  }

  min_procs_.assign(static_cast<std::size_t>(k_) * k_, 0);
  replicable_.assign(static_cast<std::size_t>(k_) * k_, 0);
  for (int first = 0; first < k_; ++first) {
    for (int last = first; last < k_; ++last) {
      min_procs_[static_cast<std::size_t>(first) * k_ + last] =
          MinProcsUncached(first, last);
      replicable_[static_cast<std::size_t>(first) * k_ + last] =
          chain.RangeReplicable(first, last) ? 1 : 0;
    }
  }

  // Content hashes for the engine's request key: a task's hash covers its
  // execution row, an edge's its redistribution row and external block.
  if (tabulated_) {
    task_hash_.resize(k_);
    for (int t = 0; t < k_; ++t) {
      task_hash_[t] =
          HashDoubles(&exec_table_[static_cast<std::size_t>(t) * pp], pp);
    }
    edge_hash_.resize(std::max(0, k_ - 1));
    for (int e = 0; e < k_ - 1; ++e) {
      edge_hash_[e] = HashCombine(
          HashDoubles(&icom_table_[static_cast<std::size_t>(e) * pp], pp),
          HashDoubles(&ecom_table_[static_cast<std::size_t>(e) * pp * pp],
                      static_cast<std::size_t>(pp) * pp));
    }
  }
}

const double* Evaluator::EComRow(int edge, int sender_procs) const {
  PIPEMAP_CHECK(tabulated_, "EComRow: evaluator is not tabulated");
  PIPEMAP_CHECK(edge >= 0 && edge < k_ - 1, "EComRow: edge out of range");
  PIPEMAP_CHECK(sender_procs >= 1 && sender_procs <= max_procs_,
                "EComRow: sender count out of range");
  const int pp = max_procs_ + 1;
  return &ecom_table_[(static_cast<std::size_t>(edge) * pp + sender_procs) *
                      pp];
}

std::uint64_t Evaluator::TaskCostHash(int task) const {
  PIPEMAP_CHECK(tabulated_, "TaskCostHash: evaluator is not tabulated");
  PIPEMAP_CHECK(task >= 0 && task < k_, "TaskCostHash: task out of range");
  return task_hash_[task];
}

std::uint64_t Evaluator::EdgeCostHash(int edge) const {
  PIPEMAP_CHECK(tabulated_, "EdgeCostHash: evaluator is not tabulated");
  PIPEMAP_CHECK(edge >= 0 && edge < k_ - 1,
                "EdgeCostHash: edge out of range");
  return edge_hash_[edge];
}

int Evaluator::MinProcsUncached(int first, int last) const {
  try {
    return MinProcessors(chain_->costs().ModuleMemory(first, last),
                         node_memory_bytes_);
  } catch (const Infeasible&) {
    return kInfeasibleProcs;
  }
}

double Evaluator::Exec(int task, int procs) const {
  PIPEMAP_CHECK(task >= 0 && task < k_, "Exec: task index out of range");
  PIPEMAP_CHECK(procs >= 1, "Exec: procs must be >= 1");
  if (tabulated_ && procs <= max_procs_) {
    return exec_table_[static_cast<std::size_t>(task) * (max_procs_ + 1) +
                       procs];
  }
  return chain_->costs().Exec(task, procs);
}

double Evaluator::ICom(int edge, int procs) const {
  PIPEMAP_CHECK(edge >= 0 && edge < k_ - 1, "ICom: edge index out of range");
  PIPEMAP_CHECK(procs >= 1, "ICom: procs must be >= 1");
  if (tabulated_ && procs <= max_procs_) {
    return icom_table_[static_cast<std::size_t>(edge) * (max_procs_ + 1) +
                       procs];
  }
  return chain_->costs().ICom(edge, procs);
}

double Evaluator::ECom(int edge, int sender_procs, int receiver_procs) const {
  PIPEMAP_CHECK(edge >= 0 && edge < k_ - 1, "ECom: edge index out of range");
  PIPEMAP_CHECK(sender_procs >= 1 && receiver_procs >= 1,
                "ECom: processor counts must be >= 1");
  if (tabulated_ && sender_procs <= max_procs_ &&
      receiver_procs <= max_procs_) {
    const int pp = max_procs_ + 1;
    return ecom_table_[(static_cast<std::size_t>(edge) * pp + sender_procs) *
                           pp +
                       receiver_procs];
  }
  return chain_->costs().ECom(edge, sender_procs, receiver_procs);
}

double Evaluator::Body(int first, int last, int procs) const {
  PIPEMAP_CHECK(first >= 0 && last < k_ && first <= last,
                "Body: bad task range");
  PIPEMAP_CHECK(procs >= 1, "Body: procs must be >= 1");
  if (tabulated_ && procs <= max_procs_) {
    const int pp = max_procs_ + 1;
    double body = body_prefix_[static_cast<std::size_t>(last + 1) * pp +
                               procs] -
                  body_prefix_[static_cast<std::size_t>(first) * pp + procs];
    // The prefix difference includes the internal-communication cost of the
    // edge entering `first`, which belongs to the boundary, not the body.
    if (first > 0) {
      body -= icom_table_[static_cast<std::size_t>(first - 1) * pp + procs];
    }
    return body;
  }
  return chain_->costs().ModuleBody(first, last, procs);
}

int Evaluator::MinProcs(int first, int last) const {
  PIPEMAP_CHECK(first >= 0 && last < k_ && first <= last,
                "MinProcs: bad task range");
  return min_procs_[static_cast<std::size_t>(first) * k_ + last];
}

bool Evaluator::Replicable(int first, int last) const {
  PIPEMAP_CHECK(first >= 0 && last < k_ && first <= last,
                "Replicable: bad task range");
  return replicable_[static_cast<std::size_t>(first) * k_ + last] != 0;
}

double Evaluator::InstanceResponse(int first, int last, int procs,
                                   int prev_procs, int next_procs) const {
  double response = Body(first, last, procs);
  if (prev_procs > 0) {
    response += ECom(first - 1, prev_procs, procs);
  }
  if (next_procs > 0) {
    response += ECom(last, procs, next_procs);
  }
  return response;
}

double Evaluator::EffectiveResponse(const Mapping& mapping,
                                    int module_index) const {
  PIPEMAP_CHECK(module_index >= 0 && module_index < mapping.num_modules(),
                "EffectiveResponse: module index out of range");
  const ModuleAssignment& m = mapping.modules[module_index];
  const int prev =
      module_index > 0 ? mapping.modules[module_index - 1].procs_per_instance
                       : 0;
  const int next = module_index + 1 < mapping.num_modules()
                       ? mapping.modules[module_index + 1].procs_per_instance
                       : 0;
  const double response = InstanceResponse(m.first_task, m.last_task,
                                           m.procs_per_instance, prev, next);
  return response / m.replicas;
}

double Evaluator::BottleneckResponse(const Mapping& mapping) const {
  PIPEMAP_CHECK(mapping.IsValidFor(k_),
                "BottleneckResponse: mapping invalid for chain");
  double worst = 0.0;
  for (int i = 0; i < mapping.num_modules(); ++i) {
    worst = std::max(worst, EffectiveResponse(mapping, i));
  }
  return worst;
}

double Evaluator::Throughput(const Mapping& mapping) const {
  const double bottleneck = BottleneckResponse(mapping);
  PIPEMAP_CHECK(bottleneck > 0.0, "Throughput: bottleneck must be positive");
  return 1.0 / bottleneck;
}

double Evaluator::Latency(const Mapping& mapping) const {
  PIPEMAP_CHECK(mapping.IsValidFor(k_), "Latency: mapping invalid for chain");
  double latency = 0.0;
  for (int i = 0; i < mapping.num_modules(); ++i) {
    const ModuleAssignment& m = mapping.modules[i];
    latency += Body(m.first_task, m.last_task, m.procs_per_instance);
    if (i + 1 < mapping.num_modules()) {
      latency += ECom(m.last_task, m.procs_per_instance,
                      mapping.modules[i + 1].procs_per_instance);
    }
  }
  return latency;
}

}  // namespace pipemap
