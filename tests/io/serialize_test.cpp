#include "io/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "costmodel/piecewise.h"
#include "costmodel/poly.h"
#include "support/error.h"
#include "support/rng.h"
#include "workloads/fft_hist.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

TEST(ChainSerializationTest, PolynomialChainRoundTripsExactly) {
  const TaskChain chain = testing::SmallChain();
  const std::string text = SerializeChain(chain, 16);
  const TaskChain parsed = ParseChain(text);

  ASSERT_EQ(parsed.size(), chain.size());
  for (int t = 0; t < chain.size(); ++t) {
    EXPECT_EQ(parsed.task(t).name, chain.task(t).name);
    EXPECT_EQ(parsed.task(t).replicable, chain.task(t).replicable);
    EXPECT_DOUBLE_EQ(parsed.costs().Memory(t).fixed_bytes,
                     chain.costs().Memory(t).fixed_bytes);
    EXPECT_DOUBLE_EQ(parsed.costs().Memory(t).distributed_bytes,
                     chain.costs().Memory(t).distributed_bytes);
    for (int p = 1; p <= 32; ++p) {
      EXPECT_DOUBLE_EQ(parsed.costs().Exec(t, p), chain.costs().Exec(t, p));
    }
  }
  for (int e = 0; e < chain.size() - 1; ++e) {
    for (int p = 1; p <= 32; ++p) {
      EXPECT_DOUBLE_EQ(parsed.costs().ICom(e, p), chain.costs().ICom(e, p));
      EXPECT_DOUBLE_EQ(parsed.costs().ECom(e, p, 33 - p),
                       chain.costs().ECom(e, p, 33 - p));
    }
  }
}

TEST(ChainSerializationTest, SecondRoundTripIsIdentity) {
  const TaskChain chain = testing::SmallChain();
  const std::string once = SerializeChain(chain, 16);
  const std::string twice = SerializeChain(ParseChain(once), 16);
  EXPECT_EQ(once, twice);
}

TEST(ChainSerializationTest, CallbackCostsBecomeTabulated) {
  // FFT-Hist ground truth uses callbacks; they serialize as samples and
  // round-trip exactly at sampled scalar points.
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const std::string text = SerializeChain(w.chain, 64);
  const TaskChain parsed = ParseChain(text);
  for (int t = 0; t < w.chain.size(); ++t) {
    for (int p = 1; p <= 64; ++p) {
      EXPECT_NEAR(parsed.costs().Exec(t, p), w.chain.costs().Exec(t, p),
                  1e-12)
          << "task " << t << " p " << p;
    }
  }
  // Pair costs are grid-sampled: exact on the grid, interpolated between.
  for (int e = 0; e < 2; ++e) {
    EXPECT_NEAR(parsed.costs().ECom(e, 1, 1), w.chain.costs().ECom(e, 1, 1),
                1e-12);
    EXPECT_NEAR(parsed.costs().ECom(e, 64, 64),
                w.chain.costs().ECom(e, 64, 64), 1e-12);
    // Interpolation error between grid points stays small.
    const double truth = w.chain.costs().ECom(e, 10, 23);
    EXPECT_NEAR(parsed.costs().ECom(e, 10, 23), truth, 0.15 * truth + 1e-9);
  }
}

TEST(ChainSerializationTest, SerializedChainMapsLikeTheOriginal) {
  // The serialized-and-parsed FFT-Hist model yields (nearly) the same
  // predicted optimum as the original ground truth.
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const TaskChain parsed = ParseChain(SerializeChain(w.chain, 64));
  const Evaluator original(w.chain, 64, w.machine.node_memory_bytes);
  const Evaluator restored(parsed, 64, w.machine.node_memory_bytes);
  // Throughput of the original optimum evaluated under the restored model.
  const double t1 = original.Throughput(
      Mapping{{ModuleAssignment{0, 0, 7, 3}, ModuleAssignment{1, 2, 10, 4}}});
  const double t2 = restored.Throughput(
      Mapping{{ModuleAssignment{0, 0, 7, 3}, ModuleAssignment{1, 2, 10, 4}}});
  EXPECT_NEAR(t2, t1, 0.05 * t1);
}

TEST(ChainSerializationTest, MalformedInputThrows) {
  EXPECT_THROW(ParseChain(""), InvalidArgument);
  EXPECT_THROW(ParseChain("pipemap-chain v2\n"), InvalidArgument);
  EXPECT_THROW(ParseChain("pipemap-chain v1\ntasks 1 max_procs 4\nend\n"),
               InvalidArgument);  // missing exec
  EXPECT_THROW(
      ParseChain("pipemap-chain v1\ntasks 1 max_procs 4\nbogus line\nend\n"),
      InvalidArgument);
}

TEST(ChainSerializationTest, WhitespaceInTaskNameRejected) {
  ChainCostModel costs;
  costs.AddTask(std::make_unique<PolyScalarCost>(1, 0, 0), MemorySpec{});
  const TaskChain chain({Task{"two words"}}, std::move(costs));
  EXPECT_THROW(SerializeChain(chain, 4), InvalidArgument);
}

/// A 3-task chain whose f_ecom costs are scattered profiles, built like
/// cache_identity_test's: sender and receiver points at 1, P and four
/// draws in between, most of them off the axis SerializeChain samples
/// callbacks on. Each grid also has one hole and one duplicated cell.
TaskChain ScatteredPairChain(std::uint64_t seed, int max_procs) {
  Rng rng(seed);
  ChainCostModel costs;
  std::vector<Task> tasks;
  for (int t = 0; t < 3; ++t) {
    costs.AddTask(std::make_unique<PolyScalarCost>(
                      0.01, rng.Uniform(0.5, 4.0), 0.001),
                  MemorySpec{});
    tasks.push_back(Task{"t" + std::to_string(t), t != 1});
  }
  for (int e = 0; e < 2; ++e) {
    const double f = rng.Uniform(0.0, 0.01);
    const double s = rng.Uniform(0.0, 0.3);
    const double r = rng.Uniform(0.0, 0.3);
    std::vector<int> axis = {1, max_procs};
    for (int i = 0; i < 4; ++i) axis.push_back(rng.UniformInt(2, max_procs));
    std::vector<TabulatedPairCost::Sample> samples;
    for (const int ps : axis) {
      for (const int pr : axis) {
        if (ps == axis[2] && pr == axis[3]) continue;
        samples.push_back({ps, pr, f + s / ps + r / pr});
      }
    }
    samples.push_back({axis[4], axis[5], f});
    costs.SetEdge(e, std::make_unique<PolyScalarCost>(0.0, 0.01, 0.0),
                  std::make_unique<TabulatedPairCost>(std::move(samples)));
  }
  return TaskChain(std::move(tasks), std::move(costs));
}

/// Every task and edge content hash of the chain's Evaluator at P.
std::vector<std::uint64_t> CostHashes(const TaskChain& chain, int max_procs) {
  const Evaluator eval(chain, max_procs, 1e9);
  std::vector<std::uint64_t> hashes;
  for (int t = 0; t < chain.size(); ++t) {
    hashes.push_back(eval.TaskCostHash(t));
  }
  for (int e = 0; e + 1 < chain.size(); ++e) {
    hashes.push_back(eval.EdgeCostHash(e));
  }
  return hashes;
}

TEST(ChainSerializationTest, TabulatedPairCostsRoundTripLosslessly) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TaskChain chain = ScatteredPairChain(seed, 64);
    const TaskChain parsed = ParseChain(SerializeChain(chain, 64));
    EXPECT_EQ(CostHashes(parsed, 64), CostHashes(chain, 64))
        << "seed " << seed;
  }
}

TEST(ChainSerializationTest, TabsCarriageReturnsAndCommentsParseAsSpaces) {
  const std::string text = SerializeChain(ScatteredPairChain(3, 64), 64);
  // Past the header, every space becomes a tab or a carriage return, and
  // comment and blank lines go in after the header and before "end".
  std::string mixed = text;
  const std::size_t body = mixed.find('\n') + 1;
  bool tab = true;
  for (std::size_t i = body; i < mixed.size(); ++i) {
    if (mixed[i] != ' ') continue;
    mixed[i] = tab ? '\t' : '\r';
    tab = !tab;
  }
  mixed.insert(body, "# a comment line\n");
  mixed.insert(mixed.rfind("end\n"), "#another\n\n");
  // Poly and tab costs serialize exactly, so equal text is equal chains.
  EXPECT_EQ(SerializeChain(ParseChain(mixed), 64), text);
}

TEST(ChainSerializationTest, HalfNumericTokensAreRejected) {
  const std::string chain =
      "pipemap-chain v1\ntasks 1 max_procs 4\n"
      "task 0 replicable 0 mem_fixed 0 mem_dist 0 name a\n"
      "exec 0 tab 2 1 0.5 4 0.25\nend\n";
  ASSERT_NO_THROW(ParseChain(chain));
  // Each token must parse whole: "3junk" is not 3, and the trailing
  // "0.25junk" is not 0.25 followed by ignored text.
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"2 1 0.5", "2 3junk 0.5"},
      {"4 0.25", "4 0.25junk"},
      {"tasks 1", "tasks 1.0"},
      {"0.5 4", "0x1p-1 4"},
  };
  for (const auto& [from, to] : corpus) {
    std::string bad = chain;
    bad.replace(bad.find(from), from.size(), to);
    EXPECT_THROW(ParseChain(bad), InvalidArgument) << to;
  }
  const std::string mapping = "pipemap-mapping v1\nmodules 1\nmodule 0 0 1 4";
  ASSERT_NO_THROW(ParseMapping(mapping + "\nend\n"));
  EXPECT_THROW(ParseMapping(mapping + ".5\nend\n"), InvalidArgument);
}

// Randomized sweep: synthetic chains of every shape round-trip exactly
// (their costs are Section-5 polynomials, persisted losslessly).
class SerializeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerializeSweep, RandomChainRoundTripsExactly) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 1 + GetParam() % 6;
  spec.machine_procs = 8 + 4 * (GetParam() % 5);
  spec.comm_comp_ratio = 0.1 * (GetParam() % 9);
  spec.replicable_fraction = 0.5;
  spec.memory_tightness = 0.2;
  const Workload w = workloads::MakeSynthetic(spec, 42000 + GetParam());
  const TaskChain parsed =
      ParseChain(SerializeChain(w.chain, spec.machine_procs));
  ASSERT_EQ(parsed.size(), w.chain.size());
  for (int t = 0; t < w.chain.size(); ++t) {
    EXPECT_EQ(parsed.task(t).replicable, w.chain.task(t).replicable);
    for (int p : {1, 2, 5, 11}) {
      EXPECT_DOUBLE_EQ(parsed.costs().Exec(t, p), w.chain.costs().Exec(t, p));
    }
  }
  for (int e = 0; e < w.chain.size() - 1; ++e) {
    EXPECT_DOUBLE_EQ(parsed.costs().ICom(e, 7), w.chain.costs().ICom(e, 7));
    EXPECT_DOUBLE_EQ(parsed.costs().ECom(e, 3, 9),
                     w.chain.costs().ECom(e, 3, 9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeSweep, ::testing::Range(0, 18));

TEST(MappingSerializationTest, RoundTrip) {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 7, 3});
  m.modules.push_back(ModuleAssignment{1, 2, 10, 4});
  EXPECT_EQ(ParseMapping(SerializeMapping(m)), m);
}

TEST(MappingSerializationTest, EmptyMappingRoundTrips) {
  const Mapping m;
  EXPECT_EQ(ParseMapping(SerializeMapping(m)), m);
}

TEST(MappingSerializationTest, MalformedInputThrows) {
  EXPECT_THROW(ParseMapping("nope"), InvalidArgument);
  EXPECT_THROW(ParseMapping("pipemap-mapping v1\nmodules 2\n"
                            "module 0 0 1 1\nend\n"),
               InvalidArgument);  // count mismatch
}

TEST(MachineSerializationTest, RoundTrip) {
  MachineConfig m = MachineConfig::IWarp64(CommMode::kSystolic);
  m.node_memory_bytes = 123456.789;
  m.pathways_per_link = 7;
  const MachineConfig parsed = ParseMachine(SerializeMachine(m));
  EXPECT_EQ(parsed.name, m.name);
  EXPECT_EQ(parsed.grid_rows, m.grid_rows);
  EXPECT_EQ(parsed.grid_cols, m.grid_cols);
  EXPECT_EQ(parsed.comm_mode, m.comm_mode);
  EXPECT_DOUBLE_EQ(parsed.node_memory_bytes, m.node_memory_bytes);
  EXPECT_DOUBLE_EQ(parsed.msg_overhead_s, m.msg_overhead_s);
  EXPECT_EQ(parsed.pathways_per_link, m.pathways_per_link);
}

TEST(MachineSerializationTest, UnknownKeyThrows) {
  EXPECT_THROW(ParseMachine("pipemap-machine v1\nwarp_factor 9\nend\n"),
               InvalidArgument);
}

TEST(FileIoTest, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/pipemap_io_test.txt";
  WriteTextFile(path, "hello\nworld\n");
  EXPECT_EQ(ReadTextFile(path), "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileThrows) {
  EXPECT_THROW(ReadTextFile("/nonexistent/path/file.txt"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: take a valid serialized workload and corrupt one
// field at a time — NaN costs, negative/zero resources, truncations. Every
// corruption must be rejected at the parse boundary with InvalidArgument;
// none may crash, hang, or leak a poisoned value into the solvers.

/// Replaces the whitespace-delimited token that follows the first
/// occurrence of `key` with `to`, so corpus entries name fields rather
/// than hard-coding the serialized values.
std::string CorruptValue(std::string text, const std::string& key,
                         const std::string& to) {
  const auto pos = text.find(key + " ");
  EXPECT_NE(pos, std::string::npos) << "corpus key missing: " << key;
  if (pos == std::string::npos) return text;
  const auto value_begin = pos + key.size() + 1;
  const auto value_end = text.find_first_of(" \n", value_begin);
  text.replace(value_begin, value_end - value_begin, to);
  return text;
}

TEST(MalformedCorpusTest, CorruptedChainsAreRejected) {
  const Workload w = workloads::MakeFftHist(64, CommMode::kMessage);
  const std::string good = SerializeChain(w.chain, 16);
  ASSERT_NO_THROW(ParseChain(good));

  EXPECT_THROW(ParseChain("pipemap-chain v9\n" + good.substr(good.find('\n'))),
               InvalidArgument);  // future version
  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"tasks", "-3"},          // negative count
      {"tasks", "999"},         // count > body: exec tables missing
      {"max_procs", "0"},       // no processors
      {"replicable", "maybe"},  // non-numeric field
      {"mem_fixed", "nan"},     // poisoned memory cost
      {"mem_fixed", "inf"},
      {"mem_dist", "-1"},       // negative memory
      {"exec", "9"},            // table index out of range
  };
  for (const auto& [key, to] : corpus) {
    EXPECT_THROW(ParseChain(CorruptValue(good, key, to)), InvalidArgument)
        << "accepted corruption: " << key << " -> " << to;
  }

  // Every cost term is non-negative: poly coefficients and tab samples of
  // exec, icom and ecom alike (a negative f_ecom constant once reached the
  // DP, whose bounds assume transfers cost >= 0).
  const std::string costs =
      "pipemap-chain v1\n"
      "tasks 3 max_procs 4\n"
      "task 0 replicable 1 mem_fixed 0 mem_dist 0 name a\n"
      "exec 0 poly 0 1 0\n"
      "task 1 replicable 0 mem_fixed 0 mem_dist 0 name b\n"
      "exec 1 tab 2 1 1 4 0.25\n"
      "task 2 replicable 0 mem_fixed 0 mem_dist 0 name c\n"
      "exec 2 poly 0.5 0 0\n"
      "icom 0 poly 0 0.5 0\n"
      "ecom 0 poly 0.1 0 0 0 0\n"
      "icom 1 tab 1 1 0.2\n"
      "ecom 1 tab 1 1 1 0.1\n"
      "end\n";
  ASSERT_NO_THROW(ParseChain(costs));
  const std::vector<std::pair<std::string, std::string>> negative_costs = {
      {"exec 0 poly", "-1"},       // scalar poly constant
      {"exec 0 poly 0", "-1"},     // scalar poly 1/p coefficient
      {"exec 1 tab 2 1", "-1"},    // scalar sample
      {"icom 0 poly 0 0.5", "-1e-9"},
      {"ecom 0 poly", "-0.05"},    // the f_ecom constant
      {"ecom 0 poly 0.1 0 0 0", "-1"},
      {"icom 1 tab 1 1", "-0.2"},
      {"ecom 1 tab 1 1 1", "-0.1"},  // pair sample
      {"exec 2 poly", "nan"},
  };
  for (const auto& [key, to] : negative_costs) {
    EXPECT_THROW(ParseChain(CorruptValue(costs, key, to)), InvalidArgument)
        << "accepted corruption: " << key << " -> " << to;
  }
}

TEST(MalformedCorpusTest, CorruptedMachinesAreRejected) {
  const Workload w = workloads::MakeFftHist(64, CommMode::kMessage);
  const std::string good = SerializeMachine(w.machine);
  ASSERT_NO_THROW(ParseMachine(good));

  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"grid", "0"},                     // empty grid
      {"grid", "268435456"},             // area 2^31 overflows an int
      {"node_memory_bytes", "nan"},      // poisoned capacity
      {"node_memory_bytes", "-5"},       // negative capacity
      {"node_flops", "0"},               // division by zero downstream
      {"node_bandwidth", "inf"},         // non-finite rate
      {"msg_overhead_s", "-1"},          // negative overhead
      {"comm_mode", "telepathy"},        // unknown enum
      {"pathways_per_link", "0"},        // no routes
  };
  for (const auto& [key, to] : corpus) {
    EXPECT_THROW(ParseMachine(CorruptValue(good, key, to)), InvalidArgument)
        << "accepted corruption: " << key << " -> " << to;
  }
  // A line missing its second field is rejected, not silently defaulted.
  const std::string short_grid = CorruptValue(good, "grid", "8\ngrid_pad");
  EXPECT_THROW(ParseMachine(short_grid), InvalidArgument);
}

TEST(MalformedCorpusTest, CorruptedMappingsAreRejected) {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 1, 2, 3});
  const std::string good = SerializeMapping(m);
  ASSERT_NO_THROW(ParseMapping(good));

  const std::vector<std::pair<std::string, std::string>> corpus = {
      {"modules 1", "modules 2"},              // count > body
      {"modules 1", "modules x"},              // non-numeric count
      {"module 0 1 2 3", "module 0 1 2"},      // missing field
      {"module 0 1 2 3", "module 0 1 -2 3"},   // negative replicas
      {"module 0 1 2 3\n", ""},                // body shorter than count
  };
  for (const auto& [from, to] : corpus) {
    std::string bad = good;
    const auto pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    EXPECT_THROW(ParseMapping(bad), InvalidArgument)
        << "accepted corruption: " << from << " -> " << to;
  }
}

}  // namespace
}  // namespace pipemap
