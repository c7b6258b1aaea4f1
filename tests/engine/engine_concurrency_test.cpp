// Concurrent MappingEngine use: the server layer drains many requests
// into one shared engine, so Map/Frontier/MinProcs must be safe — and
// deterministic — when called from many threads against the same
// solution cache and single-flight group. This test also compiles
// into a ThreadSanitizer target (engine_concurrency_tsan, see
// tests/CMakeLists.txt), which is where the race-freedom claim is
// actually certified.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/mapping_engine.h"
#include "gtest/gtest.h"
#include "io/serialize.h"
#include "support/deadline.h"
#include "workloads/synthetic.h"

namespace pipemap {
namespace {

Workload ProblemVariant(std::uint64_t seed) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 4 + static_cast<int>(seed % 3);
  spec.machine_procs = 8;
  return workloads::MakeSynthetic(spec, seed);
}

MapRequest RequestFor(const Workload& workload) {
  MapRequest request;
  request.chain = &workload.chain;
  request.machine = workload.machine;
  request.solver = SolverPolicy::kAuto;
  request.options.num_threads = 1;  // parallelism across requests
  request.use_cache = true;
  return request;
}

TEST(EngineConcurrencyTest, MixedMapAndSweepTrafficIsSafeAndDeterministic) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 12;
  constexpr int kVariants = 3;

  // Reference answers, solved serially on a private engine.
  std::vector<Workload> variants;
  std::vector<std::string> expected_mappings;
  std::vector<double> expected_frontier_first;
  for (int v = 0; v < kVariants; ++v) {
    variants.push_back(ProblemVariant(static_cast<std::uint64_t>(v + 1)));
  }
  MappingEngine reference;
  for (const Workload& w : variants) {
    const MapRequest request = RequestFor(w);
    expected_mappings.push_back(
        SerializeMapping(reference.Map(request).mapping));
    const std::vector<FrontierPoint> frontier =
        reference.Frontier(request, 3);
    ASSERT_FALSE(frontier.empty());
    expected_frontier_first.push_back(frontier.front().throughput);
  }

  // Hammer one shared engine from many threads with a mixed request
  // stream: maps (cold, then cache hits), frontiers (a warm sweep each),
  // and maps that bypass the cache and always solve. Every answer must be
  // byte-identical to the serial reference.
  MappingEngine shared;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const int v = (t + i) % kVariants;
        const Workload& w = variants[static_cast<std::size_t>(v)];
        MapRequest request = RequestFor(w);
        switch ((t + i) % 3) {
          case 0: {
            const MapResponse response = shared.Map(request);
            if (SerializeMapping(response.mapping) !=
                expected_mappings[static_cast<std::size_t>(v)]) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 1: {
            const std::vector<FrontierPoint> frontier =
                shared.Frontier(request, 3);
            if (frontier.empty() ||
                frontier.front().throughput !=
                    expected_frontier_first[static_cast<std::size_t>(v)]) {
              mismatches.fetch_add(1);
            }
            break;
          }
          default: {
            // Uncached traffic: every such request solves, concurrently
            // with the cached traffic on the same engine.
            request.use_cache = false;
            const MapResponse response = shared.Map(request);
            if (SerializeMapping(response.mapping) !=
                expected_mappings[static_cast<std::size_t>(v)]) {
              mismatches.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The shared cache actually absorbed the repetition: far fewer misses
  // than requests.
  const SolutionCacheStats stats = shared.cache().stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST(EngineConcurrencyTest, ConcurrentDeadlineSolvesNeverPoisonTheCache) {
  // Threads race tiny-budget (truncated) and unlimited solves of the same
  // problem. Whatever the interleaving, a truncated answer must never be
  // served from the cache: exact requests always get exact results.
  const Workload workload = ProblemVariant(7);
  MappingEngine shared;
  std::atomic<int> inexact_from_cache{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        MapRequest request = RequestFor(workload);
        if ((t + i) % 2 == 0) request.time_budget_s = 1e-9;
        const MapResponse response = shared.Map(request);
        if (!Deadline::HasBudget(request.time_budget_s) &&
            !response.exact) {
          inexact_from_cache.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(inexact_from_cache.load(), 0);
}

}  // namespace
}  // namespace pipemap
