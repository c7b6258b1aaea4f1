// A small, work-stealing-free thread pool and a parallel_for utility.
//
// The mapping algorithms are memory-bandwidth-friendly loops over dense
// tables, so a fixed set of persistent workers with either static block
// partitioning or chunked self-scheduling covers every use in the repo;
// work stealing would add complexity without a workload that needs it.
//
// Determinism contract: the mappers guarantee bit-identical results for
// every thread count. Parallel loop bodies therefore must either write to
// disjoint locations derived from the loop index alone, or reduce into
// per-worker slots that the caller merges with an order-independent rule
// (e.g. tie-breaking on state index, never on arrival order).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace pipemap {

/// How ParallelFor assigns loop indices to workers.
enum class ParallelSchedule {
  /// One contiguous block per worker, fixed up front. Worker w sees the
  /// same range for a given (n, num_workers), so per-worker reductions are
  /// reproducible run-to-run.
  kStatic,
  /// Workers claim `grain`-sized chunks from a shared counter; balances
  /// triangular or irregular per-index costs.
  kDynamic,
};

/// Fixed pool of persistent worker threads. One parallel region runs at a
/// time (concurrent ParallelFor calls serialize); the calling thread always
/// participates as worker 0, so `num_workers` threads of compute use
/// `num_workers - 1` pool threads.
class ThreadPool {
 public:
  /// body(worker, begin, end): process indices [begin, end). `worker` is in
  /// [0, num_workers) and is stable for the whole region, so it can index a
  /// per-worker reduction slot.
  using Body = std::function<void(int, std::int64_t, std::int64_t)>;

  ThreadPool();
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `body` over [0, n) on `num_workers` workers (grown on demand, so
  /// requesting more workers than cores is allowed — needed to validate
  /// determinism at thread counts the host does not have). Exceptions from
  /// any worker are rethrown on the calling thread (first one wins).
  void ParallelFor(int num_workers, std::int64_t n, ParallelSchedule schedule,
                   std::int64_t grain, const Body& body);

  /// Process-wide pool shared by every mapper and the Evaluator, so nested
  /// and repeated mapping calls reuse one set of threads.
  static ThreadPool& Shared();

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareConcurrency();

  /// Processors actually available to this process: the CPU affinity mask
  /// when the platform exposes one (a container or cpuset can grant fewer
  /// CPUs than the machine has), else HardwareConcurrency. Probed once per
  /// process; floor of 1.
  static int AvailableConcurrency();

  /// Maps a MapperOptions::num_threads value to a worker count:
  /// <= 0 means AvailableConcurrency, anything else is clamped to
  /// [1, kMaxWorkers].
  static int ResolveThreads(int requested);

  static constexpr int kMaxWorkers = 256;

 private:
  struct Impl;
  Impl* impl_;
};

/// Runs body over [0, n): inline on the calling thread when
/// `num_threads <= 1` (bit-exact serial path, the shared pool is never
/// touched), on ThreadPool::Shared() otherwise.
void ParallelFor(int num_threads, std::int64_t n, ParallelSchedule schedule,
                 std::int64_t grain, const ThreadPool::Body& body);

/// Splits items [0, n) into at most `max_groups` contiguous groups of
/// near-equal total weight; returns the group boundaries (boundaries[g] ..
/// boundaries[g+1] is group g; front() == 0, back() == n). The group count
/// adapts to the work available: it never exceeds the item count, and is
/// reduced so every group carries at least `min_group_weight` (when the
/// total allows) — parallel loops use this to stop fanning tiny stages out
/// to workers whose dispatch costs more than their share of the loop.
/// Deterministic: depends only on the arguments. Weights must be
/// non-negative; items heavier than the ideal share get a group of their
/// own and the remainder rebalances.
std::vector<std::int64_t> BalancedPartition(
    const std::vector<std::int64_t>& weights, int max_groups,
    std::int64_t min_group_weight);

}  // namespace pipemap
