// Differential cache-identity property: a cached, disk-persisted or
// single-flight-shared answer is exactly what a fresh solve returns.
//
// Every case is a pair of chains that differ only in one f_ecom entry at
// a (ps, pr) off the serializer's sample axis — the grid SerializeChain
// samples callback and tabulated pair costs on (dense to 16, then eight
// strides up to P). Both chains go through the same engines, so a request
// key that cannot tell them apart answers one with the other's mapping.
// The answer from each path — cache off, memory hit, disk hit from a
// fresh engine on the same directory, single-flight follower — must match
// the cache-off solve in mapping bytes, objective, throughput, latency,
// solver and exactness.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "costmodel/cost_function.h"
#include "costmodel/piecewise.h"
#include "costmodel/poly.h"
#include "core/evaluator.h"
#include "engine/mapping_engine.h"
#include "io/serialize.h"
#include "support/rng.h"

namespace pipemap {
namespace {

constexpr double kNodeMemory = 100.0;

/// True when SerializeChain's sample axis for `max_procs` contains `p`.
bool OnSampleAxis(int p, int max_procs) {
  if (p <= 16 || p == max_procs) return true;
  const int stride = std::max(1, (max_procs - 16) / 8);
  return (p - 16) % stride == 0;
}

/// The one f_ecom entry a twin chain adds 1000 s to.
struct Spike {
  int edge = 0;
  int ps = 0;
  int pr = 0;
};

/// Wraps `inner` as a callback cost, adding `bump` at the spike's entry.
/// With bump 0 the values are `inner`'s exactly.
std::unique_ptr<PairCost> Spiked(std::unique_ptr<PairCost> inner,
                                 const Spike& spike, double bump) {
  std::shared_ptr<const PairCost> base(std::move(inner));
  return std::make_unique<CallbackPairCost>([base, spike, bump](int ps,
                                                                int pr) {
    const double v = base->Eval(ps, pr);
    return ps == spike.ps && pr == spike.pr ? v + bump : v;
  });
}

std::unique_ptr<ScalarCost> RandomScalar(Rng& rng, int max_procs,
                                         double scale) {
  const double a = scale * rng.Uniform(0.5, 4.0);
  const double b = scale * rng.Uniform(0.0, 0.02);
  const double c = scale * rng.Uniform(0.0, 0.001);
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return std::make_unique<PolyScalarCost>(b, a, c);
    case 1:
      return std::make_unique<CallbackScalarCost>([a, b, c](int p) {
        return b + a / p + c * p + (p % 3 == 0 ? 0.5 * c : 0.0);
      });
    default: {
      // Profile points scattered over [1, P], most of them off the axis.
      std::vector<std::pair<int, double>> samples;
      for (int i = 0; i < 6; ++i) {
        const int p = rng.UniformInt(1, max_procs);
        samples.emplace_back(p, b + a / p + c * p);
      }
      return std::make_unique<TabulatedScalarCost>(std::move(samples));
    }
  }
}

std::unique_ptr<PairCost> RandomPair(Rng& rng, int max_procs) {
  const double f = rng.Uniform(0.0, 0.01);
  const double s = rng.Uniform(0.0, 0.3);
  const double r = rng.Uniform(0.0, 0.3);
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return std::make_unique<PolyPairCost>(f, s, r, 0.0001, 0.0001);
    case 1:
      return std::make_unique<CallbackPairCost>([f, s, r](int ps, int pr) {
        return f + s / ps + r / pr + (ps == pr ? 0.0 : 0.001);
      });
    default: {
      // A pair grid whose sender and receiver points lie off the axis.
      std::vector<int> axis = {1, max_procs};
      for (int i = 0; i < 4; ++i) axis.push_back(rng.UniformInt(2, max_procs));
      std::vector<TabulatedPairCost::Sample> samples;
      for (const int ps : axis) {
        for (const int pr : axis) {
          samples.push_back({ps, pr, f + s / ps + r / pr});
        }
      }
      return std::make_unique<TabulatedPairCost>(std::move(samples));
    }
  }
}

/// A seeded random chain: 2-4 tasks with poly, callback or tabulated
/// costs, random memory minima and replicability. With a spike, that
/// edge's f_ecom is wrapped by Spiked(bump); the random draws do not
/// depend on the spike, so the chain is otherwise the same.
TaskChain RandomChain(std::uint64_t seed, int max_procs, const Spike* spike,
                      double bump) {
  Rng rng(seed);
  const int k = rng.UniformInt(2, 4);
  ChainCostModel costs;
  std::vector<Task> tasks;
  for (int t = 0; t < k; ++t) {
    const int min_procs = rng.UniformInt(1, 6);
    const double dist =
        min_procs <= 1 ? 0.0 : (min_procs - 0.5) * kNodeMemory;
    costs.AddTask(RandomScalar(rng, max_procs, 1.0), MemorySpec{0.0, dist});
    tasks.push_back(Task{"t" + std::to_string(t), rng.UniformInt(0, 2) == 0});
  }
  for (int e = 0; e + 1 < k; ++e) {
    std::unique_ptr<ScalarCost> icom = RandomScalar(rng, max_procs, 0.05);
    std::unique_ptr<PairCost> ecom = RandomPair(rng, max_procs);
    if (spike != nullptr && spike->edge == e) {
      ecom = Spiked(std::move(ecom), *spike, bump);
    }
    costs.SetEdge(e, std::move(icom), std::move(ecom));
  }
  return TaskChain(std::move(tasks), std::move(costs));
}

MachineConfig Grid8x8() {
  MachineConfig machine;
  machine.name = "grid8x8";
  machine.grid_rows = 8;
  machine.grid_cols = 8;
  machine.node_memory_bytes = kNodeMemory;
  return machine;
}

MapRequest RequestFor(const TaskChain& chain, int procs, bool use_cache) {
  MapRequest request;
  request.chain = &chain;
  request.machine = Grid8x8();
  request.total_procs = procs;
  request.options.num_threads = 1;
  request.use_cache = use_cache;
  return request;
}

std::string Exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything a response says about the answer, as one comparable value.
std::string Answer(const MapResponse& r) {
  return SerializeMapping(r.mapping) + "objective " +
         Exact(r.objective_value) + "\nthroughput " + Exact(r.throughput) +
         "\nlatency " + Exact(r.latency) + "\nsolver " + r.solver +
         "\nexact " + (r.exact ? "1" : "0");
}

std::string CacheOffAnswer(const TaskChain& chain, int procs) {
  MappingEngine engine;
  return Answer(engine.Map(RequestFor(chain, procs, /*use_cache=*/false)));
}

/// A chain pair (base, twin) and the cache-off answer for each.
struct Pair {
  Pair(int p, TaskChain b, TaskChain t)
      : procs(p),
        base(std::move(b)),
        twin(std::move(t)),
        base_answer(CacheOffAnswer(base, procs)),
        twin_answer(CacheOffAnswer(twin, procs)) {}

  int procs;
  TaskChain base;
  TaskChain twin;
  std::string base_answer;
  std::string twin_answer;
};

/// A fresh scratch directory, unique to this process so parallel ctest
/// runs of the same test (plain and TSan builds) never share it.
std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("pipemap_cache_identity_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Runs one pair through the memory tier, the disk tier and single-flight,
/// comparing every answer with the cache-off solve. Returns the number of
/// single-flight followers observed.
int CheckPair(const Pair& pair, const std::string& label) {
  SCOPED_TRACE(label);
  const MapRequest base = RequestFor(pair.base, pair.procs, true);
  const MapRequest twin = RequestFor(pair.twin, pair.procs, true);

  {  // Memory tier: solve both, then both again from memory.
    MappingEngine engine;
    EXPECT_EQ(Answer(engine.Map(base)), pair.base_answer);
    const MapResponse twin_first = engine.Map(twin);
    EXPECT_FALSE(twin_first.cache_hit) << "twin answered from base's entry";
    EXPECT_EQ(Answer(twin_first), pair.twin_answer);
    for (const auto& [request, expected] :
         {std::pair{&base, &pair.base_answer},
          std::pair{&twin, &pair.twin_answer}}) {
      const MapResponse hit = engine.Map(*request);
      EXPECT_EQ(hit.cache_tier, "memory");
      EXPECT_EQ(Answer(hit), *expected);
    }
  }

  {  // Disk tier: a fresh engine on the writer's directory.
    const std::string dir = ScratchDir(label);
    EngineConfig config;
    config.cache_dir = dir;
    {
      MappingEngine writer(config);
      writer.Map(base);
      writer.Map(twin);
      writer.cache().FlushPersistence();
    }
    MappingEngine reader(config);
    for (const auto& [request, expected] :
         {std::pair{&base, &pair.base_answer},
          std::pair{&twin, &pair.twin_answer}}) {
      const MapResponse hit = reader.Map(*request);
      EXPECT_EQ(hit.cache_tier, "disk");
      EXPECT_EQ(Answer(hit), *expected);
    }
    std::filesystem::remove_all(dir);
  }

  // Single-flight: on a fresh engine, a leader per chain starts, and a
  // follower per chain is released once both leaders hold their flights.
  // The followers bring prebuilt Evaluators, so they reach the flight
  // within microseconds, while their leaders solve. A leader can still
  // finish first (its follower then hits the cache), so rounds repeat
  // until a follower shares a solve.
  const Evaluator base_eval(pair.base, pair.procs, kNodeMemory);
  const Evaluator twin_eval(pair.twin, pair.procs, kNodeMemory);
  MapRequest base_follower = base;
  base_follower.eval = &base_eval;
  MapRequest twin_follower = twin;
  twin_follower.eval = &twin_eval;
  const MapRequest* requests[] = {&base, &twin, &base_follower,
                                  &twin_follower};
  const std::string* expected[] = {&pair.base_answer, &pair.twin_answer,
                                   &pair.base_answer, &pair.twin_answer};
  constexpr int kThreads = 4;
  constexpr int kMaxRounds = 200;
  int followers = 0;
  for (int round = 0; round < kMaxRounds && followers == 0; ++round) {
    MappingEngine engine;
    std::vector<MapResponse> responses(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        if (t >= 2) {
          while (engine.single_flight_stats().leaders < 2) {
            std::this_thread::yield();
          }
        }
        responses[static_cast<std::size_t>(t)] = engine.Map(*requests[t]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      const MapResponse& r = responses[static_cast<std::size_t>(t)];
      if (r.shared_solve) ++followers;
      EXPECT_EQ(Answer(r), *expected[t])
          << (r.shared_solve ? "follower" : r.cache_hit ? "hit" : "leader");
    }
  }
  return followers;
}

/// Makes a seeded pair. The spike goes on a module boundary of the base
/// chain's optimal mapping where a processor count is off the sample
/// axis, so the twin's optimum differs; when no boundary qualifies it
/// lands on an off-axis entry of edge 0.
Pair SeededPair(std::uint64_t seed) {
  static constexpr int kProcs[] = {32, 48, 64};
  const int procs = kProcs[seed % 3];
  const TaskChain plain = RandomChain(seed, procs, nullptr, 0.0);
  MappingEngine engine;
  const Mapping mapping = engine.Map(RequestFor(plain, procs, false)).mapping;
  Spike spike{0, 17, 17};  // 17 is off the axis for every P used here
  for (int i = 0; i + 1 < mapping.num_modules(); ++i) {
    const int ps = mapping.modules[i].procs_per_instance;
    const int pr = mapping.modules[i + 1].procs_per_instance;
    if (!OnSampleAxis(ps, procs) || !OnSampleAxis(pr, procs)) {
      spike = {mapping.modules[i].last_task, ps, pr};
      break;
    }
  }
  return Pair(procs, RandomChain(seed, procs, &spike, 0.0),
              RandomChain(seed, procs, &spike, 1000.0));
}

TEST(CacheIdentityTest, EveryPathReturnsTheFreshAnswerOnRandomChains) {
  int followers = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    followers += CheckPair(SeededPair(seed), "seed" + std::to_string(seed));
  }
  EXPECT_GT(followers, 0) << "no single-flight follower was exercised";
}

/// Two 2-task chains on P=64 whose f_ecom differ only in the ps=32 row
/// and pr=32 column: the base's optimum splits the machine 32/32, the
/// twin's cannot use 32.
TEST(CacheIdentityTest, EcomDifferingOnlyAtPs32IsAnotherProblem) {
  const auto make = [](double bump) {
    ChainCostModel costs;
    costs.AddTask(std::make_unique<PolyScalarCost>(0.0, 1.0, 0.0),
                  MemorySpec{});
    costs.AddTask(std::make_unique<PolyScalarCost>(0.0, 1.0, 0.0),
                  MemorySpec{});
    costs.SetEdge(0, std::make_unique<PolyScalarCost>(1.0, 0.0, 0.0),
                  std::make_unique<CallbackPairCost>([bump](int ps, int pr) {
                    return ps == 32 || pr == 32 ? 0.001 + bump : 0.001;
                  }));
    return TaskChain({Task{"a", false}, Task{"b", false}}, std::move(costs));
  };
  const Pair pair(64, make(0.0), make(1000.0));
  ASSERT_NE(pair.base_answer, pair.twin_answer);
  CheckPair(pair, "ps32");
}

}  // namespace
}  // namespace pipemap
