#include "tools/cli_lib.h"

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "core/diagnostics.h"
#include "core/explain.h"
#include "core/evaluator.h"
#include "core/sensitivity.h"
#include "engine/fingerprint.h"
#include "engine/mapping_engine.h"
#include "fault/fault_plan.h"
#include "fault/repair.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "sim/attribution.h"
#include "sim/pipeline_sim.h"
#include "sim/run_report.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/parse.h"
#include "support/tracer.h"
#include "workloads/fft_hist.h"
#include "workloads/radar.h"
#include "workloads/stereo.h"

namespace pipemap::cli {
namespace {

constexpr const char* kUsage = R"(usage: pipemap_cli <command> [options]

commands:
  export-workload <fft256|fft512|radar|stereo> <message|systolic>
                  --chain-out FILE --machine-out FILE
  map       --chain FILE --machine FILE [--procs N]
            [--algorithm dp|greedy|auto|brute]
            [--objective throughput|latency] [--floor X]
            [--replication maximal|none|search] [--no-clustering]
            [--unconstrained] [--engine-cache] [--cache-dir DIR]
            [--cache-dir-max-bytes N]
            [--threads N] [--solver-deadline S] [--out FILE]
            [--metrics FILE] [--trace FILE]
  simulate  --chain FILE --machine FILE --mapping FILE [--datasets N]
            [--noise X] [--seed N] [--faults FILE|SPEC]
            [--repair-policy full|drop-replica|floor]
            [--solver-deadline S]
  report    --chain FILE --machine FILE [--procs N]
            [--algorithm dp|greedy|auto|brute]
            [--datasets N] [--noise X] [--seed N] [--threads N]
            [--solver-deadline S]
            [--out FILE] [--trace FILE] [--metrics FILE] [--unconstrained]
            [--engine-cache] [--cache-dir DIR] [--cache-dir-max-bytes N]
  explain   --chain FILE --machine FILE --mapping FILE
  frontier  --chain FILE --machine FILE [--points N] [--threads N]
            [--metrics FILE] [--trace FILE]
  diagnose  --chain FILE --machine FILE
  sensitivity --chain FILE --machine FILE --mapping FILE
  size      --chain FILE --machine FILE --target X [--threads N]
            [--metrics FILE] [--trace FILE]

--threads 0 (the default) uses every hardware thread for the mapping
algorithms; --threads 1 forces the serial path. Mappings are identical for
every thread count.

--algorithm auto runs the solver portfolio: greedy for a fast incumbent,
the exact DP warm-started from it, and (on tiny instances) a brute-force
certification pass. --engine-cache answers repeated identical requests
from the in-process solution cache; cached mappings are byte-identical
to recomputed ones. --cache-dir DIR additionally persists solved
mappings to DIR (one checksummed file per fingerprint) and implies
--engine-cache: a later pipemap_cli run — or a pipemap_server — pointed
at the same directory answers the same problem from disk without
re-solving. --cache-dir-max-bytes N bounds the directory: crossing the
cap evicts the oldest entries first. The directory is guarded by an
advisory lock; a second process sharing it falls back to read-only.
Unknown commands and flags are rejected.

--metrics FILE writes a JSON snapshot of the engine's internal counters,
gauges, and histograms; --trace FILE writes Chrome trace-event JSON
(load in chrome://tracing or https://ui.perfetto.dev). Neither flag
changes the computed mapping.

--solver-deadline S interrupts a solve after S seconds of wall clock and
returns the best incumbent found so far (flagged as not certified). The
solvers check the deadline cooperatively inside their inner loops, so
even a single long DP stage is interrupted mid-flight.

--faults injects failures into the simulation: either a fault-plan file
(pipemap-faults v1) or an inline spec of ';'-separated events —
crash@T:mM[.iI] (instance I of module M crashes at time T; omit .iI to
crash all instances), slow@T+D:mM[.iI]xF (compute slowdown by factor F
during [T,T+D)), link@T+D:eExF (transfer degradation on the boundary
between modules E and E+1). With --repair-policy, a crash additionally
triggers the RepairEngine: the mapping is repaired onto the surviving
processors (full = re-solve, drop-replica = shrink the failed module,
floor = drop-replica when it retains >= 50% throughput, else re-solve)
and the recovery report plus a fault-free replay of the repaired mapping
are printed.

report maps the chain, executes the mapping in the pipeline simulator,
and emits one machine-readable JSON run report (schema in DESIGN.md):
the mapping, predicted vs simulated throughput/latency, per-module
utilization, a ranked bottleneck-divergence list, an embedded metrics
snapshot, and the trace path when --trace is given. --out FILE writes
the report to a file (a rank summary goes to stdout); without --out the
report itself goes to stdout.
)";

/// A command-line mistake (unknown command/flag, malformed invocation).
/// RunCli reports these with the usage text appended, unlike runtime
/// failures which get the one-line error only.
class UsageError : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

/// Checked numeric parsing for flag values (support/parse.h): the whole
/// token must parse, and the value must be finite. std::stod/stoi alone
/// would accept "3abc", throw std::out_of_range as an unhandled crash on
/// "1e999", and turn typos into silent garbage.
double CheckedDouble(const std::string& key, const std::string& text) {
  if (const std::optional<double> v = TryParseDouble(text)) return *v;
  throw UsageError("invalid numeric value for --" + key + ": '" + text + "'");
}

int CheckedInt(const std::string& key, const std::string& text) {
  if (const std::optional<int> v = TryParseInt(text)) return *v;
  throw UsageError("invalid integer value for --" + key + ": '" + text +
                   "'");
}

/// Strict flag parser: --key value pairs plus standalone switches, each
/// validated against the owning command's allowlist so a typo fails with
/// a usage error instead of being silently ignored.
class Flags {
 public:
  Flags(const std::string& command, const std::vector<std::string>& args,
        std::size_t start, std::set<std::string> value_flags,
        std::set<std::string> switch_flags = {}) {
    for (std::size_t i = start; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a.rfind("--", 0) != 0) {
        throw UsageError("unexpected argument: " + a);
      }
      const std::string key = a.substr(2);
      if (switch_flags.count(key) > 0) {
        switches_.insert(key);
      } else if (value_flags.count(key) > 0) {
        if (i + 1 >= args.size()) {
          throw UsageError("missing value for --" + key);
        }
        values_[key] = args[++i];
      } else {
        throw UsageError("unknown flag --" + key + " for '" + command + "'");
      }
    }
  }

  std::optional<std::string> Get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string Require(const std::string& key) const {
    const auto v = Get(key);
    if (!v) throw UsageError("missing required flag --" + key);
    return *v;
  }

  bool Has(const std::string& key) const { return switches_.count(key) > 0; }

  double GetDouble(const std::string& key, double fallback) const {
    const auto v = Get(key);
    return v ? CheckedDouble(key, *v) : fallback;
  }

  int GetInt(const std::string& key, int fallback) const {
    const auto v = Get(key);
    return v ? CheckedInt(key, *v) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;
};

struct LoadedProblem {
  TaskChain chain;
  MachineConfig machine;
};

/// Arms the process-wide metrics registry and tracer for one CLI command
/// when --metrics/--trace name output files. Construct before the command
/// does any work (the Evaluator's tabulation pass is worth observing);
/// call Write() after it succeeds. The destructor restores the collectors
/// to their disabled default even when the command throws.
class ObservationSession {
 public:
  explicit ObservationSession(const Flags& flags)
      : metrics_path_(flags.Get("metrics")), trace_path_(flags.Get("trace")) {
    if (metrics_path_) {
      MetricsRegistry::Global().Reset();
      MetricsRegistry::Global().Enable(true);
    }
    if (trace_path_) {
      Tracer::Global().Clear();
      Tracer::Global().Enable(true);
    }
  }

  ~ObservationSession() {
    if (metrics_path_) MetricsRegistry::Global().Enable(false);
    if (trace_path_) Tracer::Global().Enable(false);
  }

  ObservationSession(const ObservationSession&) = delete;
  ObservationSession& operator=(const ObservationSession&) = delete;

  void Write(std::ostream& out) const {
    if (metrics_path_) {
      WriteTextFile(*metrics_path_,
                    MetricsRegistry::Global().Snapshot().ToJson());
      out << "wrote " << *metrics_path_ << "\n";
    }
    if (trace_path_) {
      WriteTextFile(*trace_path_, Tracer::Global().ToChromeJson());
      out << "wrote " << *trace_path_ << "\n";
    }
  }

 private:
  std::optional<std::string> metrics_path_;
  std::optional<std::string> trace_path_;
};

LoadedProblem Load(const Flags& flags) {
  // Validate all required flags before touching the filesystem so that a
  // usage mistake is reported as such.
  const std::string chain_path = flags.Require("chain");
  const std::string machine_path = flags.Require("machine");
  return LoadedProblem{ParseChain(ReadTextFile(chain_path)),
                       ParseMachine(ReadTextFile(machine_path))};
}

int ExportWorkload(const std::vector<std::string>& args, std::ostream& out) {
  if (args.size() < 3) {
    throw InvalidArgument("export-workload needs <name> <comm-mode>");
  }
  const std::string& name = args[1];
  const std::string& mode_name = args[2];
  if (mode_name != "message" && mode_name != "systolic") {
    throw InvalidArgument("unknown comm mode: " + mode_name);
  }
  const CommMode mode =
      mode_name == "systolic" ? CommMode::kSystolic : CommMode::kMessage;
  std::optional<Workload> workload;
  if (name == "fft256") workload = workloads::MakeFftHist(256, mode);
  if (name == "fft512") workload = workloads::MakeFftHist(512, mode);
  if (name == "radar") workload = workloads::MakeRadar(mode);
  if (name == "stereo") workload = workloads::MakeStereo(mode);
  if (!workload) throw InvalidArgument("unknown workload: " + name);

  const Flags flags("export-workload", args, 3, {"chain-out", "machine-out"});
  const std::string chain_path = flags.Require("chain-out");
  const std::string machine_path = flags.Require("machine-out");
  WriteTextFile(chain_path,
                SerializeChain(workload->chain,
                               workload->machine.total_procs()));
  WriteTextFile(machine_path, SerializeMachine(workload->machine));
  out << "wrote " << chain_path << " and " << machine_path << " ("
      << workload->name << ", " << ToString(mode) << ")\n";
  return 0;
}

/// Shared map/report request assembly: replication policy, clustering,
/// threading, machine feasibility, cache opt-in, and the solver policy
/// derived from --algorithm / --objective / --floor.
MapRequest BuildMapRequest(const Flags& flags, const LoadedProblem& problem) {
  MapRequest request;
  request.chain = &problem.chain;
  request.machine = problem.machine;
  request.total_procs = flags.GetInt("procs", problem.machine.total_procs());
  request.options.num_threads = flags.GetInt("threads", 0);
  const std::string replication = flags.Get("replication").value_or("maximal");
  if (replication == "none") {
    request.options.replication = ReplicationPolicy::kNone;
  } else if (replication == "search") {
    request.options.replication = ReplicationPolicy::kSearch;
  } else if (replication != "maximal") {
    throw UsageError("unknown replication policy: " + replication);
  }
  request.options.allow_clustering = !flags.Has("no-clustering");
  request.machine_feasibility = !flags.Has("unconstrained");
  request.use_cache = flags.Has("engine-cache");
  if (const auto dir = flags.Get("cache-dir")) {
    // Persistence lives on the shared engine's cache, so every later
    // command in this process (and the cache's write-behind spill of this
    // solve) sees the same directory. Implies --engine-cache.
    DiskPersistOptions persist;
    persist.dir = *dir;
    if (const auto cap = flags.Get("cache-dir-max-bytes")) {
      const int bytes = CheckedInt("cache-dir-max-bytes", *cap);
      if (bytes <= 0) {
        throw UsageError("--cache-dir-max-bytes must be positive, got " +
                         *cap);
      }
      persist.max_bytes = static_cast<std::uint64_t>(bytes);
    }
    MappingEngine::Shared().cache().EnablePersistence(persist);
    request.use_cache = true;
  }
  if (const auto deadline = flags.Get("solver-deadline")) {
    const double seconds = CheckedDouble("solver-deadline", *deadline);
    if (seconds < 0.0) {
      throw UsageError("--solver-deadline must be positive (0 disables"
                       " the deadline), got " + *deadline);
    }
    // 0 means "no deadline" at the engine boundary (Deadline::HasBudget),
    // same as omitting the flag.
    request.time_budget_s = seconds;
  }

  const auto floor = flags.Get("floor");
  const double floor_value = floor ? CheckedDouble("floor", *floor) : 0.0;
  try {
    ApplySolverPolicy(flags.Get("objective").value_or("throughput"),
                      flags.Get("algorithm").value_or("dp"), floor_value,
                      &request);
  } catch (const InvalidArgument& e) {
    throw UsageError(e.what());
  }
  return request;
}

int MapCommand(const std::vector<std::string>& args, std::ostream& out) {
  const Flags flags(
      "map", args, 1,
      {"chain", "machine", "procs", "threads", "algorithm", "objective",
       "floor", "replication", "solver-deadline", "out", "metrics", "trace",
       "cache-dir", "cache-dir-max-bytes"},
      {"no-clustering", "unconstrained", "engine-cache"});
  const LoadedProblem problem = Load(flags);
  const ObservationSession observation(flags);
  MapRequest request = BuildMapRequest(flags, problem);
  const Evaluator eval(problem.chain, request.total_procs,
                       problem.machine.node_memory_bytes,
                       request.options.num_threads);
  request.eval = &eval;
  const MapResponse response = MappingEngine::Shared().Map(request);
  Mapping mapping = response.mapping;

  if (request.objective == MapObjective::kThroughput) {
    out << "objective: maximum throughput (" << response.solver << ")\n";
  } else {
    out << "objective: minimum latency";
    if (request.objective == MapObjective::kLatencyWithFloor) {
      out << " with throughput >= " << *flags.Get("floor");
    }
    out << "\n";
  }
  if (request.use_cache) {
    out << "engine cache: ";
    if (response.cache_hit) {
      out << "hit [" << response.cache_tier << "]";
    } else {
      out << "miss";
    }
    out << " (fingerprint " << FingerprintHex(response.fingerprint) << ")\n";
  }
  if (response.timed_out) {
    out << "note: solver deadline expired; this is the best incumbent, not"
           " a certified optimum\n";
  }

  if (!flags.Has("unconstrained")) {
    mapping = FeasibilityChecker(problem.machine).MakeFeasible(mapping, eval);
  }

  out << "mapping: " << mapping.ToString(problem.chain) << "\n";
  out << ExplainMapping(eval, mapping).Render(problem.chain);
  if (const auto path = flags.Get("out")) {
    WriteTextFile(*path, SerializeMapping(mapping));
    out << "wrote " << *path << "\n";
  }
  observation.Write(out);
  return 0;
}

/// The simulation settings of --datasets, --noise and --seed: a warm-up
/// of a quarter of the data sets, and jitter of a third of the noise.
SimOptions SimOptionsFromFlags(const Flags& flags) {
  SimOptions options;
  options.num_datasets = flags.GetInt("datasets", 400);
  options.warmup = options.num_datasets / 4;
  const double noise = flags.GetDouble("noise", 0.0);
  options.noise.systematic_stddev = noise;
  options.noise.jitter_stddev = noise / 3.0;
  options.noise.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  return options;
}

int SimulateCommand(const std::vector<std::string>& args, std::ostream& out) {
  const Flags flags("simulate", args, 1,
                    {"chain", "machine", "mapping", "datasets", "noise",
                     "seed", "faults", "repair-policy", "solver-deadline"});
  const LoadedProblem problem = Load(flags);
  const Mapping mapping =
      ParseMapping(ReadTextFile(flags.Require("mapping")));

  SimOptions options = SimOptionsFromFlags(flags);

  FaultPlan plan;
  if (const auto spec = flags.Get("faults")) {
    plan = LoadFaultPlan(*spec);
    options.faults = &plan;
  } else if (flags.Get("repair-policy")) {
    throw UsageError("--repair-policy requires --faults");
  }

  PipelineSimulator sim(problem.chain);
  const SimResult result = sim.Run(mapping, options);
  out << "simulated " << options.num_datasets << " data sets\n";
  out << "throughput:  " << result.throughput << " data sets/s\n";
  out << "mean latency: " << result.mean_latency << " s\n";
  out << "makespan:    " << result.makespan << " s\n";
  out << "module utilization:";
  for (double u : result.module_utilization) out << " " << u;
  out << "\n";
  if (result.fault_impact.has_value()) {
    const FaultImpact& f = *result.fault_impact;
    out << "faults: " << f.crash_events << " crash, " << f.slowdown_events
        << " slowdown, " << f.link_events << " link; " << f.reroutes
        << " data sets rerouted\n";
  }

  const auto policy_name = flags.Get("repair-policy");
  if (!policy_name) return 0;
  if (plan.FirstCrash() == nullptr) {
    out << "repair: no crash events in the plan; nothing to repair\n";
    return 0;
  }

  RepairRequest rr;
  rr.chain = &problem.chain;
  rr.machine = problem.machine;
  rr.failed_mapping = mapping;
  rr.policy = RepairPolicyFromName(*policy_name);
  if (const auto deadline = flags.Get("solver-deadline")) {
    rr.solver_deadline_s = CheckedDouble("solver-deadline", *deadline);
    if (rr.solver_deadline_s < 0.0) {
      throw UsageError("--solver-deadline must be positive (0 disables"
                       " the deadline), got " + *deadline);
    }
  }
  ApplyCrashToRequest(rr, plan);
  const RepairOutcome outcome = RepairEngine().Repair(rr);

  out << "repair (" << ToString(rr.policy) << "): module " << rr.failed_module
      << " lost " << rr.failed_instances << " instance(s)\n";
  out << "  repaired mapping: " << outcome.mapping.ToString(problem.chain)
      << "\n";
  out << "  throughput: " << outcome.pre_fault_throughput << " -> "
      << outcome.post_fault_throughput << " data sets/s (retention "
      << outcome.throughput_retention << ")\n";
  out << "  recovery: " << outcome.repair_seconds << " s, "
      << outcome.attempts << " solve attempt(s), "
      << (outcome.degraded ? "degraded (drop-replica)"
                           : "remapped via " + outcome.solver)
      << (outcome.timed_out ? ", timed out (best incumbent)" : "") << "\n";

  // Prove the repaired mapping actually runs on the survivors: replay it
  // fault-free (the crashed instances no longer exist in the new mapping).
  SimOptions verify = options;
  verify.faults = nullptr;
  const SimResult repaired = sim.Run(outcome.mapping, verify);
  out << "  post-repair simulated throughput: " << repaired.throughput
      << " data sets/s\n";
  return 0;
}

int ReportCommand(const std::vector<std::string>& args, std::ostream& out) {
  const Flags flags("report", args, 1,
                    {"chain", "machine", "procs", "threads", "algorithm",
                     "datasets", "noise", "seed", "solver-deadline", "out",
                     "metrics", "trace", "cache-dir", "cache-dir-max-bytes"},
                    {"unconstrained", "engine-cache"});
  const LoadedProblem problem = Load(flags);
  // The report always embeds a metrics snapshot of its own run, so the
  // registry is armed regardless of --metrics (which additionally writes
  // the snapshot to its own file, like every other command).
  const ObservationSession observation(flags);
  MetricsRegistry::Global().Reset();
  const ScopedMetricsEnable metrics_on(true);
  const auto trace_path = flags.Get("trace");

  MapRequest request = BuildMapRequest(flags, problem);
  const int procs = request.total_procs;
  const Evaluator eval(problem.chain, procs,
                       problem.machine.node_memory_bytes,
                       request.options.num_threads);
  request.eval = &eval;
  Mapping mapping = MappingEngine::Shared().Map(request).mapping;
  if (!flags.Has("unconstrained")) {
    mapping = FeasibilityChecker(problem.machine).MakeFeasible(mapping, eval);
  }

  const SimOptions sim_options = SimOptionsFromFlags(flags);

  const SimResult result =
      PipelineSimulator(problem.chain).Run(mapping, sim_options);
  const BottleneckAttribution attribution =
      AttributeBottleneck(eval, mapping, result, sim_options.num_datasets);

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  RunReportOptions report_options;
  report_options.num_datasets = sim_options.num_datasets;
  report_options.metrics = &snapshot;
  if (trace_path) report_options.trace_path = *trace_path;
  const std::string report =
      BuildRunReportJson(eval, mapping, result, attribution, report_options);

  if (const auto path = flags.Get("out")) {
    WriteTextFile(*path, report);
    out << "wrote " << *path << "\n";
    out << "mapping: " << mapping.ToString(problem.chain) << "\n";
    out << RenderAttribution(attribution);
  } else {
    out << report;
  }
  observation.Write(out);
  return 0;
}

int ExplainCommand(const std::vector<std::string>& args, std::ostream& out) {
  const Flags flags("explain", args, 1, {"chain", "machine", "mapping"});
  const LoadedProblem problem = Load(flags);
  const Mapping mapping =
      ParseMapping(ReadTextFile(flags.Require("mapping")));
  const Evaluator eval(problem.chain, problem.machine.total_procs(),
                       problem.machine.node_memory_bytes);
  out << ExplainMapping(eval, mapping).Render(problem.chain);
  return 0;
}

int FrontierCommand(const std::vector<std::string>& args, std::ostream& out) {
  const Flags flags("frontier", args, 1,
                    {"chain", "machine", "points", "threads", "metrics",
                     "trace"});
  const LoadedProblem problem = Load(flags);
  const ObservationSession observation(flags);
  const int P = problem.machine.total_procs();
  MapRequest request;
  request.chain = &problem.chain;
  request.machine = problem.machine;
  request.options.num_threads = flags.GetInt("threads", 0);
  const int points = flags.GetInt("points", 6);
  const std::vector<FrontierPoint> frontier =
      MappingEngine::Shared().Frontier(request, points);
  out << "latency/throughput Pareto frontier (" << P << " processors):\n";
  for (const FrontierPoint& p : frontier) {
    out << "  " << p.throughput << " data sets/s @ " << p.latency * 1000.0
        << " ms   " << p.mapping.ToString(problem.chain) << "\n";
  }
  observation.Write(out);
  return 0;
}

int DiagnoseCommand(const std::vector<std::string>& args, std::ostream& out) {
  const Flags flags("diagnose", args, 1, {"chain", "machine"});
  const LoadedProblem problem = Load(flags);
  const Evaluator eval(problem.chain, problem.machine.total_procs(),
                       problem.machine.node_memory_bytes);
  const ChainDiagnostics d = DiagnoseChain(eval);
  out << "theorem preconditions for this chain:\n" << d.Summary();
  out << "guarantees:\n";
  out << "  Theorem 1 (bottleneck-only greedy optimal): "
      << (d.Theorem1Applies() ? "applies" : "does not apply") << "\n";
  out << "  Theorem 2 (greedy within 2 procs/task):      "
      << (d.Theorem2Applies() ? "applies" : "does not apply") << "\n";
  out << "  Maximal replication provably optimal:       "
      << (d.MaximalReplicationSafe() ? "yes" : "no") << "\n";
  return 0;
}

int SensitivityCommand(const std::vector<std::string>& args,
                       std::ostream& out) {
  const Flags flags("sensitivity", args, 1, {"chain", "machine", "mapping"});
  const LoadedProblem problem = Load(flags);
  const Mapping mapping =
      ParseMapping(ReadTextFile(flags.Require("mapping")));
  const Evaluator eval(problem.chain, problem.machine.total_procs(),
                       problem.machine.node_memory_bytes);
  const SensitivityReport report = AnalyzeSensitivity(eval, mapping);
  out << "mapping: " << mapping.ToString(problem.chain) << "\n";
  out << "predicted throughput: " << report.base_throughput
      << " data sets/s\n";
  out << report.Summary(problem.chain, 12);
  return 0;
}

int SizeCommand(const std::vector<std::string>& args, std::ostream& out) {
  const Flags flags("size", args, 1,
                    {"chain", "machine", "target", "threads", "metrics",
                     "trace"});
  const LoadedProblem problem = Load(flags);
  const ObservationSession observation(flags);
  const double target = CheckedDouble("target", flags.Require("target"));
  const int max_procs = problem.machine.total_procs();
  MapRequest request;
  request.chain = &problem.chain;
  request.machine = problem.machine;
  request.options.num_threads = flags.GetInt("threads", 0);
  const ProcCountResult r = MappingEngine::Shared().MinProcs(request, target);
  out << "target throughput: " << target << " data sets/s\n";
  out << "minimum processors: " << r.procs << " (of " << max_procs << ")\n";
  out << "achieved: " << r.throughput << " data sets/s with "
      << r.mapping.ToString(problem.chain) << "\n";
  observation.Write(out);
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 1 : 0;
  }
  try {
    const std::string& command = args[0];
    if (command == "export-workload") return ExportWorkload(args, out);
    if (command == "map") return MapCommand(args, out);
    if (command == "simulate") return SimulateCommand(args, out);
    if (command == "report") return ReportCommand(args, out);
    if (command == "explain") return ExplainCommand(args, out);
    if (command == "frontier") return FrontierCommand(args, out);
    if (command == "diagnose") return DiagnoseCommand(args, out);
    if (command == "sensitivity") return SensitivityCommand(args, out);
    if (command == "size") return SizeCommand(args, out);
    out << "unknown command: " << command << "\n" << kUsage;
    return 1;
  } catch (const UsageError& e) {
    out << "error: " << e.what() << "\n" << kUsage;
    return 1;
  } catch (const InvalidArgument& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  } catch (const Error& e) {
    out << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace pipemap::cli
