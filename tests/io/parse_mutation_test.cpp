// Seeded byte-mutation corpus for the text parsers. Each serialized
// Table-2 chain (the paper's six configurations at P = 64), its machine
// and a mapping of it is mutated about 500 times by replacing, inserting
// or deleting one byte. Every mutant must either parse or throw
// InvalidArgument: no other exception, no crash, no hang. The sanitizer
// builds run this test like any other, so the parsers' bounds and
// lifetimes are checked on hostile input there too.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "io/serialize.h"
#include "support/error.h"
#include "support/rng.h"
#include "workloads/fft_hist.h"
#include "workloads/radar.h"
#include "workloads/stereo.h"

namespace pipemap {
namespace {

constexpr int kMutantsPerInput = 500;

std::vector<Workload> Table2Workloads() {
  return {workloads::MakeFftHist(256, CommMode::kMessage),
          workloads::MakeFftHist(256, CommMode::kSystolic),
          workloads::MakeFftHist(512, CommMode::kMessage),
          workloads::MakeFftHist(512, CommMode::kSystolic),
          workloads::MakeRadar(CommMode::kSystolic),
          workloads::MakeStereo(CommMode::kSystolic)};
}

/// One module per task, so the mapping text has a line per task.
Mapping OneModulePerTask(int num_tasks) {
  Mapping mapping;
  for (int t = 0; t < num_tasks; ++t) {
    mapping.modules.push_back(ModuleAssignment{t, t, 1 + t % 2, 4});
  }
  return mapping;
}

/// `text` with one byte replaced, inserted or deleted. Half the new bytes
/// come from the format's own alphabet (digits, signs, separators,
/// comment and line marks), so mutants reach past the first bad token.
std::string Mutate(const std::string& text, Rng& rng) {
  static constexpr std::string_view kAlphabet = "0123456789.-+eE \t\r\n#x";
  const auto new_byte = [&rng] {
    return rng.UniformInt(0, 1) == 0
               ? kAlphabet[rng.UniformInt(
                     0, static_cast<int>(kAlphabet.size()) - 1)]
               : static_cast<char>(rng.UniformInt(0, 255));
  };
  std::string out = text;
  const std::size_t pos = rng.UniformInt(0, static_cast<int>(out.size()) - 1);
  switch (rng.UniformInt(0, 2)) {
    case 0:
      out[pos] = new_byte();
      break;
    case 1:
      out.insert(out.begin() + pos, new_byte());
      break;
    default:
      out.erase(pos, 1);
      break;
  }
  return out;
}

/// Parses every mutant of `text`; returns how many were accepted.
int ParseMutants(const std::string& text, std::uint64_t seed,
                 const std::function<void(const std::string&)>& parse) {
  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string mutant = Mutate(text, rng);
    try {
      parse(mutant);
      ++accepted;
    } catch (const InvalidArgument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " of seed " << seed
                    << " threw a non-InvalidArgument: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "mutant " << i << " of seed " << seed
                    << " threw a non-exception";
    }
  }
  return accepted;
}

TEST(ParseMutationTest, EveryMutantParsesOrThrowsInvalidArgument) {
  std::uint64_t seed = 1;
  int accepted = 0;
  int total = 0;
  for (const Workload& w : Table2Workloads()) {
    const std::string chain = SerializeChain(w.chain, 64);
    const std::string machine = SerializeMachine(w.machine);
    const std::string mapping =
        SerializeMapping(OneModulePerTask(w.chain.size()));
    ASSERT_NO_THROW(ParseChain(chain));
    ASSERT_NO_THROW(ParseMachine(machine));
    ASSERT_NO_THROW(ParseMapping(mapping));
    accepted += ParseMutants(chain, seed++, [](const std::string& text) {
      ParseChain(text);
    });
    accepted += ParseMutants(machine, seed++, [](const std::string& text) {
      ParseMachine(text);
    });
    accepted += ParseMutants(mapping, seed++, [](const std::string& text) {
      ParseMapping(text);
    });
    total += 3 * kMutantsPerInput;
  }
  // The corpus exercises both outcomes: mutants that stay valid (a digit
  // changed inside a number) and mutants the parsers refuse.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, total);
}

}  // namespace
}  // namespace pipemap
