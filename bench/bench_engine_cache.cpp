// Engine cache / warm-start harness (writes BENCH_engine_cache.json).
//
// Quantifies the reuse the MappingEngine adds on top of the mappers —
// the solution cache with its disk tier across requests — on the Table-2
// applications, and checks that its warm-started sweeps answer like cold
// ones:
//
//   1. Frontier sweeps: MappingEngine::Frontier threads one
//      WarmStartState through every DP solve of a latency/throughput
//      sweep, so each floor's solve prunes against the previous floor's
//      mapping. The bench times the sweep cold (no incumbent carried) and
//      verifies the warm frontier matches it point for point. Every solve
//      tabulates its own range tables, so warm and cold differ only by
//      the carried incumbent, which saves less than the host's
//      run-to-run noise; the warm sweep is checked, not timed.
//
//   2. Machine sizing: MinProcs binary-searches processor budgets below
//      P, each probe seeded with the previous probe's mapping; timed cold
//      and checked like the frontier.
//
//   3. The solution cache: repeating an identical MapRequest is answered
//      from the sharded LRU without running any solver. The bench times
//      the cold solve vs the cache hit and checks the mappings are
//      byte-identical (same serialized form).
//
//   4. The persistent tier: a writer engine with a cache directory spills
//      its solve to disk and exits; a fresh engine on the same directory,
//      which then owns it as a restarted process would, answers the
//      identical request first from disk (lazily rehydrating its LRU),
//      then from memory. The bench records cold vs. disk-warm vs.
//      memory-warm times and checks all three mappings are
//      byte-identical (tools/check_cache_persist.py gates the ratios).
//
// Exit status is nonzero when warm and cold disagree — never on small
// speedups, which are host-dependent; the JSON records the wall times so
// the trajectory is tracked from change to change.
//
// Usage: bench_engine_cache [output.json] [points] [reps]
//        defaults: BENCH_engine_cache.json 6 3
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/latency_mapper.h"
#include "engine/mapping_engine.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "support/json_writer.h"
#include "bench_util.h"

namespace pipemap::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepSample {
  double cold_s = 0.0;
  bool identical = true;
};

struct CacheSample {
  double miss_s = 0.0;
  double hit_s = 0.0;
  bool byte_identical = true;
};

struct PersistSample {
  double cold_s = 0.0;
  double disk_hit_s = 0.0;
  double mem_hit_s = 0.0;
  bool byte_identical = true;
};

struct AppSample {
  std::string label;
  std::string size;
  std::string comm;
  SweepSample frontier;
  SweepSample sizing;
  CacheSample cache;
  PersistSample persist;
};

bool SameFrontier(const std::vector<FrontierPoint>& a,
                  const std::vector<FrontierPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].mapping == b[i].mapping) ||
        a[i].throughput != b[i].throughput || a[i].latency != b[i].latency) {
      return false;
    }
  }
  return true;
}

int Run(const std::string& out_path, int points, int reps) {
  std::printf("Engine cache and warm-start reuse (Table-2 applications,"
              " %d-point frontiers, best of %d)\n\n",
              points, reps);

  MappingEngine engine;
  // Scratch directory for the persistent-tier measurements; wiped up
  // front so stale entries from an earlier run cannot fake a disk hit.
  const std::string persist_dir = out_path + ".cachedir";
  std::filesystem::remove_all(persist_dir);
  std::vector<AppSample> apps;
  bool all_identical = true;
  for (const NamedWorkload& c : Table2Configs()) {
    const int P = c.workload.machine.total_procs();
    AppSample app;
    app.label = c.label;
    app.size = c.size;
    app.comm = ToString(c.workload.machine.comm_mode);

    // The sweep with no incumbent carried between solves, timed, vs. the
    // warm-started sweep through the engine, checked.
    MapRequest request;
    request.chain = &c.workload.chain;
    request.machine = c.workload.machine;
    std::vector<FrontierPoint> cold_frontier;
    app.frontier.cold_s = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
      const double start = Now();
      const Evaluator eval(c.workload.chain, P,
                           c.workload.machine.node_memory_bytes);
      MapperOptions options;
      options.proc_feasible =
          FeasibilityChecker(c.workload.machine).ProcCountPredicate();
      cold_frontier = LatencyThroughputFrontier(eval, P, points, options);
      app.frontier.cold_s = std::min(app.frontier.cold_s, Now() - start);
    }
    app.frontier.identical =
        SameFrontier(cold_frontier, engine.Frontier(request, points));
    all_identical = all_identical && app.frontier.identical;

    // Machine sizing: the binary search probes many processor budgets
    // below P; the engine's warm-started search, checked against the
    // timed cold one, seeds each probe with the previous probe's mapping.
    request.solver = SolverPolicy::kDp;
    request.use_cache = false;  // keep the cache cold for the miss timing
    const double peak = engine.Map(request).throughput;
    const double target = 0.5 * peak;
    ProcCountResult cold_size;
    app.sizing.cold_s = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
      const double start = Now();
      const Evaluator eval(c.workload.chain, P,
                           c.workload.machine.node_memory_bytes);
      MapperOptions options;
      options.proc_feasible =
          FeasibilityChecker(c.workload.machine).ProcCountPredicate();
      cold_size = MinProcessorsForThroughput(eval, P, target, options);
      app.sizing.cold_s = std::min(app.sizing.cold_s, Now() - start);
    }
    const ProcCountResult warm_size = engine.MinProcs(request, target);
    app.sizing.identical = cold_size.procs == warm_size.procs &&
                           cold_size.mapping == warm_size.mapping;
    all_identical = all_identical && app.sizing.identical;

    // Solution cache: identical request answered without solving.
    request.use_cache = true;
    const double miss_start = Now();
    const MapResponse cold = engine.Map(request);
    app.cache.miss_s = Now() - miss_start;
    app.cache.hit_s = std::numeric_limits<double>::infinity();
    std::string hit_text;
    for (int rep = 0; rep < reps; ++rep) {
      const double start = Now();
      const MapResponse hit = engine.Map(request);
      app.cache.hit_s = std::min(app.cache.hit_s, Now() - start);
      app.cache.byte_identical =
          app.cache.byte_identical && hit.cache_hit &&
          SerializeMapping(hit.mapping) == SerializeMapping(cold.mapping);
    }
    all_identical = all_identical && app.cache.byte_identical;

    // Persistent tier: a writer engine spills the solve and goes away,
    // releasing the directory's lock; then fresh reader engines on the
    // same directory, each its owner in turn, serve it — the first Map
    // from disk (rehydrating the reader's LRU), the second from memory.
    {
      EngineConfig persist_config;
      persist_config.cache_dir = persist_dir;
      std::string cold_text;
      {
        MappingEngine writer(persist_config);
        const double cold_start = Now();
        const MapResponse persisted = writer.Map(request);
        app.persist.cold_s = Now() - cold_start;
        writer.cache().FlushPersistence();
        cold_text = SerializeMapping(persisted.mapping);
      }

      app.persist.disk_hit_s = std::numeric_limits<double>::infinity();
      app.persist.mem_hit_s = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < reps; ++rep) {
        MappingEngine reader(persist_config);
        double start = Now();
        const MapResponse disk_hit = reader.Map(request);
        app.persist.disk_hit_s =
            std::min(app.persist.disk_hit_s, Now() - start);
        app.persist.byte_identical =
            app.persist.byte_identical && disk_hit.cache_hit &&
            disk_hit.cache_tier == "disk" &&
            SerializeMapping(disk_hit.mapping) == cold_text;
        start = Now();
        const MapResponse mem_hit = reader.Map(request);
        app.persist.mem_hit_s = std::min(app.persist.mem_hit_s, Now() - start);
        app.persist.byte_identical =
            app.persist.byte_identical && mem_hit.cache_hit &&
            mem_hit.cache_tier == "memory" &&
            SerializeMapping(mem_hit.mapping) == cold_text;
      }
    }
    all_identical = all_identical && app.persist.byte_identical;

    std::printf("%-10s %-9s %-9s frontier %8.2f ms cold"
                "  sizing %8.2f ms cold  map hit %5.2fx%s%s%s\n",
                app.label.c_str(), app.size.c_str(), app.comm.c_str(),
                1e3 * app.frontier.cold_s, 1e3 * app.sizing.cold_s,
                app.cache.miss_s / app.cache.hit_s,
                app.frontier.identical ? "" : "  FRONTIER MISMATCH",
                app.sizing.identical ? "" : "  SIZING MISMATCH",
                app.cache.byte_identical ? "" : "  CACHE MISMATCH");
    std::printf("%-31s persist %8.2f ms cold (disk hit %6.1fx, mem hit"
                " %6.1fx)%s\n",
                "", 1e3 * app.persist.cold_s,
                app.persist.cold_s / app.persist.disk_hit_s,
                app.persist.cold_s / app.persist.mem_hit_s,
                app.persist.byte_identical ? "" : "  PERSIST MISMATCH");
    apps.push_back(std::move(app));
  }

  const SolutionCacheStats cache_stats = engine.cache().stats();
  std::printf("\ncache: %llu hits, %llu misses, %llu entries\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(cache_stats.entries));
  std::printf("warm == cold everywhere: %s\n",
              all_identical ? "yes" : "NO — reuse changed a result");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("bench_engine_cache");
  w.Key("frontier_points").Int(points);
  w.Key("reps").Int(reps);
  w.Key("all_identical").Bool(all_identical);
  w.Key("applications").BeginArray();
  for (const AppSample& app : apps) {
    w.BeginObject();
    w.Key("program").String(app.label);
    w.Key("size").String(app.size);
    w.Key("comm").String(app.comm);
    w.Key("frontier").BeginObject();
    w.Key("cold_s").Double(app.frontier.cold_s);
    w.Key("identical").Bool(app.frontier.identical);
    w.EndObject();
    w.Key("sizing").BeginObject();
    w.Key("cold_s").Double(app.sizing.cold_s);
    w.Key("identical").Bool(app.sizing.identical);
    w.EndObject();
    w.Key("cache").BeginObject();
    w.Key("miss_s").Double(app.cache.miss_s);
    w.Key("hit_s").Double(app.cache.hit_s);
    w.Key("speedup").Double(app.cache.miss_s / app.cache.hit_s);
    w.Key("byte_identical").Bool(app.cache.byte_identical);
    w.EndObject();
    w.Key("persist").BeginObject();
    w.Key("cold_s").Double(app.persist.cold_s);
    w.Key("disk_hit_s").Double(app.persist.disk_hit_s);
    w.Key("mem_hit_s").Double(app.persist.mem_hit_s);
    w.Key("disk_speedup").Double(app.persist.cold_s / app.persist.disk_hit_s);
    w.Key("mem_speedup").Double(app.persist.cold_s / app.persist.mem_hit_s);
    w.Key("byte_identical").Bool(app.persist.byte_identical);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("cache_stats").BeginObject();
  w.Key("hits").UInt(cache_stats.hits);
  w.Key("misses").UInt(cache_stats.misses);
  w.Key("inserts").UInt(cache_stats.inserts);
  w.Key("evictions").UInt(cache_stats.evictions);
  w.Key("entries").UInt(cache_stats.entries);
  w.EndObject();
  w.EndObject();
  out << w.str();
  std::filesystem::remove_all(persist_dir);
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 2;
}

}  // namespace
}  // namespace pipemap::bench

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_engine_cache.json";
  const int points = argc > 2 ? std::atoi(argv[2]) : 6;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 3;
  return pipemap::bench::Run(out, points, reps);
}
