// The engine's request key (engine/fingerprint.h): sensitivity to every
// cost-table bit, stability across thread counts and processes, and the
// disk tier's handling of entries from an older key format.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/warm_start.h"
#include "costmodel/cost_function.h"
#include "engine/cache_persist.h"
#include "engine/fingerprint.h"
#include "engine/mapping_engine.h"
#include "io/serialize.h"
#include "support/deadline.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::kTestNodeMemory;

/// One bit of one cost-table entry: table 0 = f_exec (index = task),
/// 1 = f_icom (index = edge), 2 = f_ecom (index = edge, entry (ps, pr)).
/// table -1 flips nothing.
struct Flip {
  int table = -1;
  int index = 0;
  int ps = 0;
  int pr = 0;
  int bit = 0;
};

double Apply(const Flip& flip, int table, int index, int ps, int pr,
             double v) {
  if (flip.table != table || flip.index != index || flip.ps != ps ||
      (table == 2 && flip.pr != pr)) {
    return v;
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= std::uint64_t{1} << flip.bit;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Three tasks with callback costs, one entry optionally bit-flipped.
TaskChain FlipChain(const Flip& flip) {
  ChainCostModel costs;
  for (int t = 0; t < 3; ++t) {
    costs.AddTask(std::make_unique<CallbackScalarCost>([flip, t](int p) {
                    return Apply(flip, 0, t, p, 0, (t + 1.0) / p + 0.01 * p);
                  }),
                  MemorySpec{});
  }
  for (int e = 0; e < 2; ++e) {
    costs.SetEdge(
        e,
        std::make_unique<CallbackScalarCost>([flip, e](int p) {
          return Apply(flip, 1, e, p, 0, 0.001 * (e + 1) * p);
        }),
        std::make_unique<CallbackPairCost>([flip, e](int ps, int pr) {
          return Apply(flip, 2, e, ps, pr,
                       0.002 + 0.01 / ps + 0.02 / pr + 0.001 * e);
        }));
  }
  return TaskChain({Task{"a", true}, Task{"b", false}, Task{"c", true}},
                   std::move(costs));
}

MachineConfig Machine(int rows, int cols) {
  MachineConfig machine;
  machine.name = "key";
  machine.grid_rows = rows;
  machine.grid_cols = cols;
  machine.node_memory_bytes = kTestNodeMemory;
  return machine;
}

std::uint64_t KeyOf(const TaskChain& chain, const MachineConfig& machine,
                    int threads) {
  MapRequest request;
  request.chain = &chain;
  request.machine = machine;
  request.options.num_threads = threads;
  MappingEngine engine;
  return engine.Fingerprint(request);
}

TEST(RequestKeyTest, EverySingleBitOfEveryCostEntryMovesTheKey) {
  constexpr int kProcs = 8;
  const MachineConfig machine = Machine(2, 4);
  const std::uint64_t base = KeyOf(FlipChain(Flip{}), machine, 1);
  ASSERT_NE(base, 0u);
  std::unordered_set<std::uint64_t> keys = {base};
  std::size_t flips = 0;
  // Sign (63), exponent (52-62) and mantissa (0-51) bits of every entry
  // the solvers read: exec and icom at p = 1..P, ecom at (ps, pr).
  for (int bit = 0; bit < 64; ++bit) {
    for (int table = 0; table < 3; ++table) {
      const int rows = table == 0 ? 3 : 2;
      for (int index = 0; index < rows; ++index) {
        for (int ps = 1; ps <= kProcs; ++ps) {
          for (int pr = 1; pr <= (table == 2 ? kProcs : 1); ++pr) {
            const Flip flip{table, index, ps, pr, bit};
            const std::uint64_t key = KeyOf(FlipChain(flip), machine, 1);
            ASSERT_NE(key, base) << "table " << table << " index " << index
                                 << " (" << ps << ", " << pr << ") bit "
                                 << bit;
            keys.insert(key);
            ++flips;
          }
        }
      }
    }
  }
  EXPECT_EQ(flips, 64u * (3 * 8 + 2 * 8 + 2 * 64));
  EXPECT_EQ(keys.size(), flips + 1) << "two different flips shared a key";
}

TEST(RequestKeyTest, EveryKeyedOptionFieldMovesTheKey) {
  const TaskChain chain = testing::SmallChain();
  MapRequest request;
  request.chain = &chain;
  request.machine = Machine(2, 4);
  request.options.num_threads = 1;
  MappingEngine engine;
  std::unordered_set<std::uint64_t> keys;
  for (const ReplicationPolicy policy :
       {ReplicationPolicy::kNone, ReplicationPolicy::kMaximal,
        ReplicationPolicy::kSearch}) {
    for (const bool clustering : {false, true}) {
      for (const std::size_t table_bytes : {std::size_t{1} << 20,
                                             std::size_t{3} << 30}) {
        MapRequest variant = request;
        variant.options.replication = policy;
        variant.options.allow_clustering = clustering;
        variant.options.max_table_bytes = table_bytes;
        keys.insert(engine.Fingerprint(variant));
      }
    }
  }
  EXPECT_EQ(keys.size(), 12u);
}

TEST(RequestKeyTest, KeyDependsOnlyOnTheAdmittedCounts) {
  // The key folds which counts in 1..P the resolved table admits — what
  // the solvers read — and nothing else about the table.
  const TaskChain chain = testing::SmallChain();
  MapRequest request;
  request.chain = &chain;
  request.machine = Machine(2, 4);  // P = 8
  request.options.num_threads = 1;
  MappingEngine engine;
  const auto key_with = [&](const FeasibleProcs& table) {
    MapRequest variant = request;
    variant.options.proc_feasible = table;
    return engine.Fingerprint(variant);
  };
  const std::uint64_t key = key_with(FeasibleProcs({1, 2, 4}));
  ASSERT_NE(key, 0u);
  EXPECT_EQ(key_with(FeasibleProcs({4, 2, 1, 2})), key);
  EXPECT_EQ(key_with(FeasibleProcs({1, 2, 4, 9, 64})), key);  // above P
  EXPECT_NE(key_with(FeasibleProcs({1, 2, 4, 8})), key);
  EXPECT_NE(key_with(FeasibleProcs({1, 4})), key);
  EXPECT_NE(key_with(FeasibleProcs{std::vector<int>{}}), key);
}

TEST(RequestKeyTest, ExecutionKnobsDoNotMoveTheKey) {
  // Threads, observation, warm-start state and deadlines cannot change a
  // cacheable answer, so they stay out of the key: requests differing
  // only in them share cache entries.
  const TaskChain chain = testing::SmallChain();
  MapRequest plain;
  plain.chain = &chain;
  plain.machine = Machine(2, 4);
  plain.options.num_threads = 1;
  MapRequest knobs = plain;
  knobs.options.num_threads = 7;
  knobs.options.observe = true;
  knobs.options.warm = std::make_shared<WarmStartState>();
  knobs.options.deadline = Deadline::After(60.0);
  knobs.time_budget_s = 60.0;
  knobs.trace_id = 42;
  MappingEngine engine;
  EXPECT_EQ(engine.Fingerprint(knobs), engine.Fingerprint(plain));
}

TEST(RequestKeyTest, KeyIsTheSameAtEveryThreadCount) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 6;
  spec.machine_procs = 64;
  const Workload workload = workloads::MakeSynthetic(spec, 5);
  const std::uint64_t serial = KeyOf(workload.chain, workload.machine, 1);
  ASSERT_NE(serial, 0u);
  for (const int threads : {2, 3, 4, 0}) {
    EXPECT_EQ(KeyOf(workload.chain, workload.machine, threads), serial)
        << threads << " threads";
  }
}

TEST(RequestKeyTest, KeyIsTheSameInAnotherProcess) {
  const TaskChain chain = FlipChain(Flip{});
  const MachineConfig machine = Machine(2, 4);
  const std::uint64_t key = KeyOf(chain, machine, 1);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    const std::uint64_t child = KeyOf(FlipChain(Flip{}), machine, 1);
    const bool sent =
        ::write(fds[1], &child, sizeof(child)) == sizeof(child);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  std::uint64_t child_key = 0;
  EXPECT_EQ(::read(fds[0], &child_key, sizeof(child_key)),
            static_cast<ssize_t>(sizeof(child_key)));
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(child_key, key);

  // And in every process that ever ran this test: keys name disk entries
  // a restarted daemon must find again. Changing the key's layout
  // orphans every cache directory, so it comes with a format bump. v3
  // folds the counts the resolved feasibility table admits where v2
  // folded the machine_feasibility flag.
  const TaskChain poly = testing::SmallChain();
  EXPECT_EQ(FingerprintHex(KeyOf(poly, machine, 1)), "2275bcc9b145ca52");
}

TEST(RequestKeyTest, V2EntryUnderAV3KeyIsAMissAndIsOverwritten) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("pipemap_request_key_v2_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const TaskChain chain = testing::SmallChain();
  MapRequest request;
  request.chain = &chain;
  request.machine = Machine(2, 4);
  request.options.num_threads = 1;
  EngineConfig config;
  config.cache_dir = dir.string();
  MappingEngine engine(config);
  const std::uint64_t key = engine.Fingerprint(request);

  // A well-formed entry of the old format, under the new key's name.
  CachedSolution stale;
  stale.mapping_text = "not this problem's mapping\n";
  stale.solver = "dp";
  stale.exact = true;
  std::string v2 = EncodeCacheEntry(key, stale);
  ASSERT_EQ(v2.rfind("pipemap-cache v3\n", 0), 0u);
  v2.replace(0, 16, "pipemap-cache v2");
  const std::filesystem::path file = dir / CacheEntryFileName(key);
  std::ofstream(file, std::ios::binary) << v2;

  const MapResponse response = engine.Map(request);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.fingerprint, key);
  const SolutionCacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.persist.hits, 0u);
  EXPECT_EQ(stats.persist.misses, 1u);
  EXPECT_EQ(stats.persist.errors, 0u);
  EXPECT_EQ(stats.persist.breaker_state, "closed");

  // The solve's insert replaces the stale file with a v3 entry.
  engine.cache().FlushPersistence();
  std::ifstream in(file, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::optional<CachedSolution> entry = DecodeCacheEntry(key, bytes);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->mapping_text, SerializeMapping(response.mapping));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pipemap
