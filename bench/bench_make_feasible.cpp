// Layer harness for FeasibilityChecker::MakeFeasible, the step the daemon
// runs after MappingEngine::Map on every map and report request.
//
// The requests are cold_dp-shaped: a fixed, seeded set of synthetic chains
// (k=10, P=128 on a 12x11 grid), each solved once, untimed, by
// MappingEngine::Map under the machine's feasibility table, as the daemon
// solves them. Only the MakeFeasible calls are timed, kReps per request,
// so the per-call p99 has at least ten samples beyond it. A few percent of
// these requests run packing searches that give up at the node cap, and
// they set the mean and the tail.
//
// A second pass packs each request's DP mapping and its one-replica
// reductions with PackInstances at the default cap, the searches
// MakeFeasible opens with, and reports the packer's nodes, node-cap hits
// and ns per node. Both passes hash what they return (the feasible
// mappings; every pack's outcome, nodes and placements), so two builds
// that answer alike print equal digests. When the library counts its
// packing (machine.pack_*), the counts over one untimed MakeFeasible call
// per request are reported too; a build without those counters reports
// null.
//
// Usage: bench_make_feasible [output.json]   (default
//        BENCH_make_feasible.json). Exit 1 when the file cannot be written.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "engine/fingerprint.h"
#include "engine/mapping_engine.h"
#include "machine/feasible.h"
#include "machine/packing.h"
#include "support/hash.h"
#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/thread_pool.h"
#include "workloads/synthetic.h"

namespace pipemap::bench {
namespace {

constexpr int kRequests = 300;
constexpr int kReps = 4;
constexpr std::uint64_t kFirstSeed = 20261019;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t HashMapping(std::uint64_t h, const Mapping& mapping) {
  for (const ModuleAssignment& m : mapping.modules) {
    for (const int v : {m.first_task, m.last_task, m.replicas,
                        m.procs_per_instance}) {
      h = HashCombine(h, static_cast<std::uint64_t>(v));
    }
  }
  return HashCombine(h, mapping.modules.size());
}

std::uint64_t HashPack(std::uint64_t h, const PackResult& r) {
  h = HashCombine(h, r.success);
  h = HashCombine(h, r.nodes);
  h = HashCombine(h, r.hit_node_cap);
  for (const InstancePlacement& p : r.placements) {
    for (const int v : {p.module, p.instance, p.rect.row, p.rect.col,
                        p.rect.height, p.rect.width}) {
      h = HashCombine(h, static_cast<std::uint64_t>(v));
    }
  }
  return HashCombine(h, r.placements.size());
}

/// Nearest-rank quantile of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// The registry's total for `name`, or null when no call site defines it.
void CounterOrNull(JsonWriter& w, const MetricsSnapshot& snap,
                   const char* name) {
  const auto it = snap.counters.find(name);
  if (it == snap.counters.end()) {
    w.Null();
  } else {
    w.UInt(it->second);
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

int Run(const std::string& out_path) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 10;
  spec.machine_procs = 128;

  MappingEngine engine;
  std::vector<double> samples_us;
  int slow_requests = 0;  // at least 1 ms per call
  std::uint64_t mapping_digest = kFnv1aOffset;
  std::uint64_t pack_digest = kFnv1aOffset;
  std::uint64_t pack_searches = 0, pack_nodes = 0, pack_capped = 0;
  double pack_s = 0.0;

  MetricsRegistry::Global().Reset();
  for (int i = 0; i < kRequests; ++i) {
    const Workload w = workloads::MakeSynthetic(spec, kFirstSeed + i);
    const Evaluator eval(w.chain, spec.machine_procs,
                         w.machine.node_memory_bytes, /*num_threads=*/1);
    MapRequest request;
    request.chain = &w.chain;
    request.machine = w.machine;
    request.total_procs = spec.machine_procs;
    request.options.num_threads = 1;
    request.use_cache = false;
    request.eval = &eval;
    const Mapping solved = engine.Map(request).mapping;

    // One untimed, counted call gives the answer; kReps timed ones follow.
    const FeasibilityChecker checker(w.machine);
    {
      const ScopedMetricsEnable metrics(true);
      mapping_digest =
          HashMapping(mapping_digest, checker.MakeFeasible(solved, eval));
    }
    double request_us = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double start = Now();
      checker.MakeFeasible(solved, eval);
      samples_us.push_back((Now() - start) * 1e6);
      request_us += samples_us.back() / kReps;
    }
    slow_requests += request_us >= 1000.0;

    std::vector<Mapping> candidates{solved};
    for (std::size_t m = 0; m < solved.modules.size(); ++m) {
      if (solved.modules[m].replicas <= 1) continue;
      candidates.push_back(solved);
      candidates.back().modules[m].replicas -= 1;
    }
    for (const Mapping& candidate : candidates) {
      const double start = Now();
      const PackResult r =
          PackInstances(candidate, w.machine.grid_rows, w.machine.grid_cols);
      pack_s += Now() - start;
      ++pack_searches;
      pack_nodes += r.nodes;
      pack_capped += r.hit_node_cap;
      pack_digest = HashPack(pack_digest, r);
    }
  }
  const MetricsSnapshot counted = MetricsRegistry::Global().Snapshot();

  std::vector<double> sorted = samples_us;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (const double us : sorted) sum += us;
  const double p99 = Quantile(sorted, 0.99);
  const std::size_t beyond_p99 = static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p99));
  const double ns_per_node =
      pack_nodes == 0 ? 0.0 : pack_s * 1e9 / static_cast<double>(pack_nodes);

  std::printf("MakeFeasible on %d cold_dp-shaped requests x %d reps:\n",
              kRequests, kReps);
  std::printf("  mean %.1f us, p50 %.1f us, p99 %.1f us, max %.1f us"
              " (%zu samples beyond p99)\n",
              sum / static_cast<double>(sorted.size()), Quantile(sorted, 0.5),
              p99, sorted.back(), beyond_p99);
  std::printf("  packing pass: %llu searches, %llu nodes, %llu at the cap,"
              " %.1f ns per node\n",
              static_cast<unsigned long long>(pack_searches),
              static_cast<unsigned long long>(pack_nodes),
              static_cast<unsigned long long>(pack_capped), ns_per_node);
  std::printf("  mapping digest %s, pack digest %s\n",
              FingerprintHex(mapping_digest).c_str(),
              FingerprintHex(pack_digest).c_str());

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("bench_make_feasible");
  w.Key("host").BeginObject();
  w.Key("cpu_model").String(CpuModel());
  w.Key("available_threads").Int(ThreadPool::AvailableConcurrency());
  w.Key("hardware_threads").Int(ThreadPool::HardwareConcurrency());
  w.EndObject();
  w.Key("requests").Int(kRequests);
  w.Key("num_tasks").Int(spec.num_tasks);
  w.Key("procs").Int(spec.machine_procs);
  w.Key("first_seed").UInt(kFirstSeed);
  w.Key("make_feasible").BeginObject();
  w.Key("samples").UInt(sorted.size());
  w.Key("mean_us").Double(sum / static_cast<double>(sorted.size()));
  w.Key("p50_us").Double(Quantile(sorted, 0.5));
  w.Key("p99_us").Double(p99);
  w.Key("samples_beyond_p99").UInt(beyond_p99);
  w.Key("max_us").Double(sorted.back());
  w.Key("requests_at_least_1ms").Int(slow_requests);
  w.Key("mapping_digest").String(FingerprintHex(mapping_digest));
  w.Key("pack_searches");
  CounterOrNull(w, counted, "machine.pack_searches");
  w.Key("pack_nodes");
  CounterOrNull(w, counted, "machine.pack_nodes");
  w.Key("pack_gave_up");
  CounterOrNull(w, counted, "machine.pack_gave_up");
  w.EndObject();
  w.Key("packing").BeginObject();
  w.Key("searches").UInt(pack_searches);
  w.Key("nodes").UInt(pack_nodes);
  w.Key("node_cap_hits").UInt(pack_capped);
  w.Key("seconds").Double(pack_s);
  w.Key("ns_per_node").Double(ns_per_node);
  w.Key("digest").String(FingerprintHex(pack_digest));
  w.EndObject();
  w.EndObject();
  out << w.str();
  std::printf("  wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pipemap::bench

int main(int argc, char** argv) {
  return pipemap::bench::Run(argc > 1 ? argv[1] : "BENCH_make_feasible.json");
}
