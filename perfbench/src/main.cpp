// perfbench: the benchmark's program. See perfbench/README.md.
//
//   perfbench drive  --workload W --seed N --seconds S --setups K
//                    --server PATH --work-dir DIR
//   perfbench replay --workload W --seed N --seconds S --requests N0,N1
//                    --work-dir DIR --spans PATH
//   perfbench selftest
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>

#include "commands.h"
#include "support/parse.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench drive --workload W --seed N --seconds S "
               "--setups K --server PATH --work-dir DIR\n"
               "       perfbench replay --workload W --seed N --seconds S "
               "--requests N0,N1 --work-dir DIR --spans PATH\n"
               "       perfbench selftest\n");
  return 2;
}

/// --flag value pairs; nullopt on a malformed command line.
std::optional<std::map<std::string, std::string>> Flags(int argc,
                                                        char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return std::nullopt;
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    if (command == "selftest") return perfbench::Selftest();
    const auto flags = Flags(argc, argv);
    if (!flags) return Usage();
    const auto flag = [&](const char* name) {
      const auto it = flags->find(name);
      if (it == flags->end()) {
        std::fprintf(stderr, "perfbench: missing --%s\n", name);
        std::exit(2);
      }
      return it->second;
    };
    const auto number = [&](const char* name) {
      const std::optional<double> v = pipemap::TryParseDouble(flag(name));
      if (!v || *v < 0) {
        std::fprintf(stderr, "perfbench: bad --%s\n", name);
        std::exit(2);
      }
      return *v;
    };
    const std::optional<perfbench::WorkloadKind> kind =
        perfbench::ParseWorkloadKind(flag("workload"));
    if (!kind) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   flag("workload").c_str());
      return 2;
    }
    if (command == "drive") {
      perfbench::DriveOptions o;
      o.kind = *kind;
      o.seed = static_cast<std::uint64_t>(number("seed"));
      o.seconds = number("seconds");
      o.setups = static_cast<int>(number("setups"));
      if (o.setups < 1) return Usage();
      o.server = flag("server");
      o.work_dir = flag("work-dir");
      return perfbench::Drive(o);
    }
    if (command == "replay") {
      perfbench::ReplayOptions o;
      o.kind = *kind;
      o.seed = static_cast<std::uint64_t>(number("seed"));
      o.seconds = number("seconds");
      const std::string requests = flag("requests");
      const std::size_t comma = requests.find(',');
      const std::optional<int> n0 =
          pipemap::TryParseInt(requests.substr(0, comma));
      const std::optional<int> n1 =
          comma == std::string::npos
              ? std::nullopt
              : pipemap::TryParseInt(requests.substr(comma + 1));
      if (!n0 || !n1) return Usage();
      o.requests[0] = *n0;
      o.requests[1] = *n1;
      o.work_dir = flag("work-dir");
      o.spans_path = flag("spans");
      return perfbench::Replay(o);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return Usage();
}
