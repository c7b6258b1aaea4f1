// Parallel-scaling regression harness for the DP mapping engine.
//
// Runs the throughput DP on a P >= 128, k >= 16 synthetic chain at the
// full 1..8 thread ladder, verifies every run returns the identical
// mapping and objective (the engine's determinism contract), and records
// per-worker work shares so partition imbalance is tracked alongside wall
// time, together with each rung's CPU split (user vs sys), minor page
// faults (getrusage deltas over the process) and DP table bytes (the
// dp.table_bytes gauge, reset before the rung), so a memory-bound solve
// shows up as sys time and faults, not just as wall time. The process's
// peak RSS is recorded at exit. The ladder is NOT clamped to the visible
// core count: determinism must hold oversubscribed too, so runs beyond the
// available concurrency execute and are flagged `oversubscribed` in the
// JSON (their wall times measure scheduling noise, not scaling, and
// downstream tooling skips them). `hardware_threads` reports
// ThreadPool::AvailableConcurrency() — the affinity-aware count the
// mappers use for num_threads <= 0 — not the raw cpuinfo count.
//
// Exit status is nonzero when any thread count changes the mapping —
// never when a speedup is small, because measured speedup is a property
// of the host; the JSON carries enough context (`hardware_threads`,
// `oversubscribed`) for tooling to judge the numbers.
//
// Usage: bench_dp_parallel_scaling [output.json] [P] [k]
//        defaults: BENCH_dp_parallel.json 128 16
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/thread_pool.h"
#include "workloads/synthetic.h"

namespace pipemap::bench {
namespace {

struct ThreadSample {
  int threads = 0;
  bool oversubscribed = false;
  double wall_s = 0.0;
  double speedup = 1.0;
  std::uint64_t work = 0;
  std::uint64_t pruned_cells = 0;
  double throughput = 0.0;
  double work_imbalance = 1.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  long minor_faults = 0;
  double table_bytes = 0.0;
  std::vector<std::uint64_t> worker_work;
  std::string mapping;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

rusage SelfUsage() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return u;
}

/// max(worker share) / mean(worker share): 1.0 is a perfect partition.
double WorkImbalance(const std::vector<std::uint64_t>& shares) {
  if (shares.empty()) return 1.0;
  std::uint64_t max = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t w : shares) {
    max = std::max(max, w);
    total += w;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shares.size());
  return static_cast<double>(max) / mean;
}

int Run(const std::string& out_path, int procs, int num_tasks) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = num_tasks;
  spec.machine_procs = procs;
  spec.comm_comp_ratio = 0.35;
  spec.memory_tightness = 0.2;
  spec.replicable_fraction = 0.8;
  const Workload w = workloads::MakeSynthetic(spec, 20260805);

  const int avail = ThreadPool::AvailableConcurrency();
  std::printf("DP parallel scaling: P=%d, k=%d (host has %d available"
              " thread%s)\n\n",
              procs, num_tasks, avail, avail == 1 ? "" : "s");

  // The big table pays for itself here; clustering is off so the stage
  // grid stays k blocks of (P+1)^3 states. Warm the evaluator once (its
  // tabulation is timed separately from the DP proper).
  const Evaluator eval(w.chain, procs, w.machine.node_memory_bytes,
                       /*num_threads=*/0);

  MetricsRegistry::Global().Reset();
  MetricsRegistry::Gauge* const table_bytes =
      MetricsRegistry::Global().GetGauge("dp.table_bytes");

  std::vector<ThreadSample> samples;
  for (int threads = 1; threads <= 8; threads *= 2) {
    MapperOptions options;
    options.allow_clustering = false;
    options.num_threads = threads;
    options.observe = true;
    const DpMapper mapper(options);
    table_bytes->Set(0.0);
    const rusage before = SelfUsage();
    const double start = Now();
    const MapResult r = mapper.Map(eval, procs);
    const double wall = Now() - start;
    const rusage after = SelfUsage();
    ThreadSample s;
    s.user_s = Seconds(after.ru_utime) - Seconds(before.ru_utime);
    s.sys_s = Seconds(after.ru_stime) - Seconds(before.ru_stime);
    s.minor_faults = after.ru_minflt - before.ru_minflt;
    s.table_bytes = table_bytes->Value();
    s.threads = threads;
    s.oversubscribed = threads > avail;
    s.wall_s = wall;
    s.work = r.work;
    s.pruned_cells = r.pruned_cells;
    s.throughput = r.throughput;
    s.worker_work = r.worker_work;
    s.work_imbalance = WorkImbalance(r.worker_work);
    s.mapping = r.mapping.ToString(w.chain);
    samples.push_back(std::move(s));
    const ThreadSample& last = samples.back();
    std::printf("  %d thread%s: %8.3f s   work=%llu  pruned=%llu"
                "  imbalance=%.3f  user=%.3f s sys=%.3f s faults=%ld"
                "  table=%.1f MB%s\n",
                threads, threads == 1 ? " " : "s", wall,
                static_cast<unsigned long long>(r.work),
                static_cast<unsigned long long>(r.pruned_cells),
                last.work_imbalance, last.user_s, last.sys_s,
                last.minor_faults, last.table_bytes / 1e6,
                last.oversubscribed ? "  (oversubscribed)" : "");
  }

  bool identical = true;
  for (ThreadSample& s : samples) {
    s.speedup = samples.front().wall_s / s.wall_s;
    identical = identical && s.mapping == samples.front().mapping &&
                s.throughput == samples.front().throughput;
  }
  std::printf("\n  speedup at %d threads: %.2fx\n", samples.back().threads,
              samples.back().speedup);
  std::printf("  identical mappings across thread counts: %s\n",
              identical ? "yes" : "NO — determinism contract violated");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter jw;
  jw.BeginObject();
  jw.Key("bench").String("bench_dp_parallel_scaling");
  jw.Key("procs").Int(procs);
  jw.Key("num_tasks").Int(num_tasks);
  jw.Key("hardware_threads").Int(avail);
  jw.Key("identical_mappings").Bool(identical);
  jw.Key("mapping").String(samples.front().mapping);
  jw.Key("runs").BeginArray();
  for (const ThreadSample& s : samples) {
    jw.BeginObject();
    jw.Key("threads").Int(s.threads);
    jw.Key("oversubscribed").Bool(s.oversubscribed);
    jw.Key("wall_s").Double(s.wall_s);
    jw.Key("speedup").Double(s.speedup);
    jw.Key("work").UInt(s.work);
    jw.Key("pruned_cells").UInt(s.pruned_cells);
    jw.Key("throughput").Double(s.throughput);
    jw.Key("work_imbalance").Double(s.work_imbalance);
    jw.Key("user_s").Double(s.user_s);
    jw.Key("sys_s").Double(s.sys_s);
    jw.Key("minor_faults").Int(s.minor_faults);
    jw.Key("table_bytes").Double(s.table_bytes);
    jw.Key("worker_work").BeginArray();
    for (const std::uint64_t share : s.worker_work) jw.UInt(share);
    jw.EndArray();
    jw.EndObject();
  }
  jw.EndArray();
  // ru_maxrss is in KiB on Linux.
  jw.Key("peak_rss_mb").Double(static_cast<double>(SelfUsage().ru_maxrss) /
                               1024.0);
  jw.Key("metrics").Raw(MetricsRegistry::Global().Snapshot().ToJson());
  jw.EndObject();
  out << jw.str();
  std::printf("  wrote %s\n", out_path.c_str());
  return identical ? 0 : 2;
}

}  // namespace
}  // namespace pipemap::bench

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_dp_parallel.json";
  const int procs = argc > 2 ? std::atoi(argv[2]) : 128;
  const int num_tasks = argc > 3 ? std::atoi(argv[3]) : 16;
  return pipemap::bench::Run(out, procs, num_tasks);
}
