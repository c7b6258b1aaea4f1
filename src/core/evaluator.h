// Mapping evaluation (paper Sections 2.2 and 3.2).
//
// The Evaluator turns a chain's cost model into the quantities the mapping
// algorithms optimize:
//   * module response times, including the internal/external communication
//     choice implied by the clustering,
//   * the memory minimum and replicability of every module range (which
//     ConfigureConstrained in core/mapper.h turns into replication),
//   * effective response f_i / r_i and the bottleneck throughput
//     1 / max_i(f_i / r_i).
//
// It also pre-tabulates the cost functions so the dynamic program's inner
// loop meets the paper's O(1)-per-lookup assumption.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mapping.h"
#include "core/task.h"

namespace pipemap {

/// How a module's processor budget is split into replicas.
enum class ReplicationPolicy {
  /// No replication: one instance owns the whole budget.
  kNone,
  /// The paper's rule (Section 3.2): replicate maximally subject to memory,
  /// r = floor(budget / p_min), with the budget divided equally.
  kMaximal,
  /// Ablation: search every feasible r and keep the one minimizing the
  /// module body's effective time (boundary communication excluded so the
  /// choice stays a function of the module and its budget alone, which the
  /// dynamic program requires).
  kSearch,
};

/// Replication configuration chosen for a module budget.
struct ModuleConfig {
  int replicas = 0;
  int procs = 0;  // per instance
  bool valid = false;
};

/// Sentinel returned by Evaluator::MinProcs when no processor count can
/// satisfy a module's memory requirement.
inline constexpr int kInfeasibleProcs = 1 << 28;

class Evaluator {
 public:
  /// `max_procs` is the machine size P; `node_memory_bytes` the usable
  /// memory per processor (drives minimum processor counts).
  /// `num_threads` parallelizes the cost-table pre-tabulation — dominated
  /// by the (k-1)·(P+1)² external-communication table — over the shared
  /// thread pool; <= 0 means hardware concurrency. The tables are
  /// identical for every thread count (disjoint writes, no reductions).
  Evaluator(const TaskChain& chain, int max_procs, double node_memory_bytes,
            int num_threads = 1);

  int max_procs() const { return max_procs_; }
  int num_tasks() const { return k_; }
  const TaskChain& chain() const { return *chain_; }
  double node_memory_bytes() const { return node_memory_bytes_; }

  /// Tabulated cost lookups (O(1) for p <= max_procs).
  double Exec(int task, int procs) const;
  double ICom(int edge, int procs) const;
  double ECom(int edge, int sender_procs, int receiver_procs) const;

  /// True when the cost tables are materialized (max_procs within the
  /// tabulation limit); the batched row accessors and content hashes below
  /// require it.
  bool tabulated() const { return tabulated_; }

  /// Contiguous external-communication row for (edge, sender): entry pr
  /// (1 <= pr <= max_procs) is ECom(edge, sender_procs, pr). Tabulated
  /// evaluators only. The DP's vectorized transition kernel reads these
  /// rows directly instead of calling ECom per cell.
  const double* EComRow(int edge, int sender_procs) const;

  /// Content hash (support/hash.h) of task `task`'s tabulated execution
  /// row, and of edge `edge`'s internal-redistribution row plus
  /// external-communication block. Two evaluators with equal hashes (and
  /// equal range caches, see the accessors below) agree on every cost the
  /// DP reads for that task / edge, which is what the engine's request
  /// key (engine/fingerprint.h) folds. Tabulated evaluators only.
  std::uint64_t TaskCostHash(int task) const;
  std::uint64_t EdgeCostHash(int edge) const;

  /// Raw range caches (k*k, (first, last) at first * k + last), which the
  /// request key folds beside the content hashes.
  const std::vector<int>& min_procs_table() const { return min_procs_; }
  const std::vector<char>& replicable_table() const { return replicable_; }

  /// Module body time: executions of tasks [first, last] plus internal
  /// redistributions between them, on one group of `procs` processors.
  /// O(1) via prefix sums.
  double Body(int first, int last, int procs) const;

  /// Memory-imposed minimum processors per instance for module
  /// [first, last]; kInfeasibleProcs when no count suffices.
  int MinProcs(int first, int last) const;

  /// True iff every task in [first, last] is replicable.
  bool Replicable(int first, int last) const;

  /// Response time of one instance of module [first, last] on `procs`
  /// processors, given the instance processor counts of the neighbouring
  /// modules (0 when the module is first/last in the chain). Includes the
  /// boundary external communications, per the paper's response definition
  /// f_i = f_com_in + f_exec + f_com_out.
  double InstanceResponse(int first, int last, int procs, int prev_procs,
                          int next_procs) const;

  /// f_i / r_i for module `module_index` of `mapping`.
  double EffectiveResponse(const Mapping& mapping, int module_index) const;

  /// max_i (f_i / r_i).
  double BottleneckResponse(const Mapping& mapping) const;

  /// Predicted throughput 1 / BottleneckResponse, in data sets per second.
  double Throughput(const Mapping& mapping) const;

  /// Predicted time for one data set to traverse the pipeline: module
  /// bodies plus each boundary communication counted once.
  double Latency(const Mapping& mapping) const;

 private:
  const TaskChain* chain_;
  int k_;
  int max_procs_;
  double node_memory_bytes_;
  bool tabulated_;

  // body_prefix_[t * (P+1) + p] = sum over tasks 0..t-1 of exec(p) plus
  // icoms of edges 0..t-2, i.e. Body(0, t-1, p).
  std::vector<double> exec_table_;    // k * (P+1)
  std::vector<double> icom_table_;    // (k-1) * (P+1)
  std::vector<double> body_prefix_;   // (k+1) * (P+1)
  std::vector<double> ecom_table_;    // (k-1) * (P+1) * (P+1)
  std::vector<int> min_procs_;        // k * k cache, kInfeasibleProcs sentinel
  std::vector<char> replicable_;      // k * k cache

  // Content hashes over the tables above (tabulated evaluators only).
  std::vector<std::uint64_t> task_hash_;  // k
  std::vector<std::uint64_t> edge_hash_;  // k - 1

  int MinProcsUncached(int first, int last) const;
};

}  // namespace pipemap
