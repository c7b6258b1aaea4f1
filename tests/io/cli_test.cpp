#include "tools/cli_lib.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "../json_util.h"

namespace pipemap::cli {
namespace {

int RunCommand(const std::vector<std::string>& args, std::string* output) {
  std::ostringstream os;
  const int code = RunCli(args, os);
  *output = os.str();
  return code;
}

class CliWorkflow : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test case: ctest -j runs the cases as concurrent
    // processes, and shared file names would let one case's TearDown
    // delete files another is still reading.
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("pipemap_cli_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    chain_path_ = TempPath("chain.txt");
    machine_path_ = TempPath("machine.txt");
    mapping_path_ = TempPath("mapping.txt");
    std::string output;
    ASSERT_EQ(RunCommand({"export-workload", "fft256", "message", "--chain-out",
                   chain_path_, "--machine-out", machine_path_},
                  &output),
              0)
        << output;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string TempPath(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
  std::string chain_path_, machine_path_, mapping_path_;
};

TEST(CliTest, NoArgumentsPrintsUsageAndFails) {
  std::string output;
  EXPECT_EQ(RunCommand({}, &output), 1);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  std::string output;
  EXPECT_EQ(RunCommand({"help"}, &output), 0);
  EXPECT_NE(output.find("export-workload"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string output;
  EXPECT_EQ(RunCommand({"frobnicate"}, &output), 1);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownWorkloadFails) {
  std::string output;
  EXPECT_EQ(RunCommand({"export-workload", "doom", "message", "--chain-out", "x",
                 "--machine-out", "y"},
                &output),
            1);
  EXPECT_NE(output.find("unknown workload"), std::string::npos);
}

TEST(CliTest, UnknownFlagFailsWithUsage) {
  std::string output;
  EXPECT_EQ(RunCommand({"map", "--chain", "x", "--machine", "y", "--bogus",
                        "z"},
                       &output),
            1);
  EXPECT_NE(output.find("unknown flag --bogus"), std::string::npos);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(CliTest, SwitchOfAnotherCommandIsRejected) {
  // --no-clustering belongs to map; frontier must not silently accept it.
  std::string output;
  EXPECT_EQ(RunCommand({"frontier", "--chain", "x", "--machine", "y",
                        "--no-clustering"},
                       &output),
            1);
  EXPECT_NE(output.find("unknown flag --no-clustering"), std::string::npos);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(CliTest, SweepCommandsTakeNoEngineCacheFlag) {
  // Sweeps are not cached, so frontier and size reject the map flag.
  for (const char* command : {"frontier", "size"}) {
    std::string output;
    EXPECT_EQ(RunCommand({command, "--engine-cache", "--chain", "x",
                          "--machine", "y"},
                         &output),
              1)
        << command;
    EXPECT_NE(output.find("unknown flag --engine-cache"), std::string::npos)
        << command;
    EXPECT_NE(output.find("usage:"), std::string::npos) << command;
  }
}

TEST(CliTest, MissingFlagFails) {
  std::string output;
  EXPECT_EQ(RunCommand({"map", "--chain", "only"}, &output), 1);
  EXPECT_NE(output.find("--machine"), std::string::npos);
}

TEST(CliTest, MissingFileIsRuntimeError) {
  std::string output;
  EXPECT_EQ(RunCommand({"map", "--chain", "/no/such/file", "--machine",
                 "/no/such/file"},
                &output),
            1);
  EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST_F(CliWorkflow, MapThenSimulateRoundTrip) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine", machine_path_,
                 "--out", mapping_path_},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("predicted throughput"), std::string::npos);
  EXPECT_NE(output.find("mapping:"), std::string::npos);

  ASSERT_EQ(RunCommand({"simulate", "--chain", chain_path_, "--machine",
                 machine_path_, "--mapping", mapping_path_, "--datasets",
                 "100"},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("throughput:"), std::string::npos);
  EXPECT_NE(output.find("module utilization:"), std::string::npos);
}

TEST_F(CliWorkflow, GreedyAlgorithmOption) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine", machine_path_,
                 "--algorithm", "greedy"},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("(greedy)"), std::string::npos);
}

TEST_F(CliWorkflow, LatencyObjectiveWithFloor) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine", machine_path_,
                 "--objective", "latency", "--floor", "40"},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("minimum latency"), std::string::npos);
  EXPECT_NE(output.find("throughput >= 40"), std::string::npos);
}

TEST_F(CliWorkflow, ZeroFloorMeansPlainLatency) {
  // The server protocol cannot tell floor 0 from an absent floor, so the
  // CLI reads --floor 0 the same way; a negative floor is a usage error.
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--objective", "latency", "--floor",
                        "0"},
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("minimum latency"), std::string::npos);
  EXPECT_EQ(output.find("throughput >="), std::string::npos);

  EXPECT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--objective", "latency", "--floor",
                        "-1"},
                       &output),
            1);
  EXPECT_NE(output.find("floor must be finite and >= 0"), std::string::npos);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST_F(CliWorkflow, DiagnoseReportsTheorems) {
  std::string output;
  ASSERT_EQ(RunCommand({"diagnose", "--chain", chain_path_, "--machine",
                 machine_path_},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("Theorem 1"), std::string::npos);
  EXPECT_NE(output.find("Maximal replication"), std::string::npos);
}

TEST_F(CliWorkflow, SizeFindsProcessorCount) {
  std::string output;
  ASSERT_EQ(RunCommand({"size", "--chain", chain_path_, "--machine", machine_path_,
                 "--target", "30"},
                &output),
            0)
      << output;
  EXPECT_NE(output.find("minimum processors:"), std::string::npos);
}

TEST_F(CliWorkflow, UnreachableSizeTargetIsRuntimeError) {
  std::string output;
  EXPECT_EQ(RunCommand({"size", "--chain", chain_path_, "--machine", machine_path_,
                 "--target", "1000000"},
                &output),
            2);
  EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST_F(CliWorkflow, SensitivityReportsElasticities) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--out", mapping_path_},
                       &output),
            0)
      << output;
  ASSERT_EQ(RunCommand({"sensitivity", "--chain", chain_path_, "--machine",
                        machine_path_, "--mapping", mapping_path_},
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("elasticity"), std::string::npos);
  EXPECT_NE(output.find("exec"), std::string::npos);
}

TEST_F(CliWorkflow, ExplainCommandRendersReport) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--out", mapping_path_},
                       &output),
            0)
      << output;
  ASSERT_EQ(RunCommand({"explain", "--chain", chain_path_, "--machine",
                        machine_path_, "--mapping", mapping_path_},
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("bottleneck"), std::string::npos);
  EXPECT_NE(output.find("memory minimum"), std::string::npos);
}

TEST_F(CliWorkflow, FrontierCommandListsParetoPoints) {
  std::string output;
  ASSERT_EQ(RunCommand({"frontier", "--chain", chain_path_, "--machine",
                        machine_path_, "--points", "4"},
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("Pareto frontier"), std::string::npos);
  EXPECT_NE(output.find("data sets/s @"), std::string::npos);
}

TEST_F(CliWorkflow, ProcsFlagRestrictsTheMachine) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--procs", "16"},
                       &output),
            0)
      << output;
  // The mapping may not use more processors than requested.
  const auto pos = output.find(" procs)");
  ASSERT_NE(pos, std::string::npos);
  const auto open = output.rfind('(', pos);
  const int used = std::stoi(output.substr(open + 1));
  EXPECT_LE(used, 16);
}

TEST_F(CliWorkflow, NoClusteringFlagKeepsSingletons) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--no-clustering"},
                       &output),
            0)
      << output;
  // FFT-Hist has 3 tasks: three separate modules appear.
  EXPECT_NE(output.find("[colffts]"), std::string::npos);
  EXPECT_NE(output.find("[rowffts]"), std::string::npos);
  EXPECT_NE(output.find("[hist]"), std::string::npos);
}

TEST_F(CliWorkflow, UnconstrainedSkipsFeasibility) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--unconstrained"},
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("mapping:"), std::string::npos);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Portion of the map command's output that describes the result (the
/// mapping line onward), ignoring the trailing "wrote ..." file notes.
std::string MappingReport(const std::string& output) {
  const auto begin = output.find("mapping:");
  const auto end = output.find("wrote ");
  return output.substr(begin, end == std::string::npos ? end : end - begin);
}

TEST_F(CliWorkflow, MetricsAndTraceFlagsWriteValidJson) {
  const std::string metrics_path = TempPath("metrics.json");
  const std::string trace_path = TempPath("trace.json");
  std::string output;
  // --threads 2 so the shared thread pool engages even on 1-core CI hosts
  // and its workers show up in the trace.
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--threads", "2", "--metrics",
                        metrics_path, "--trace", trace_path},
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("wrote " + metrics_path), std::string::npos);
  EXPECT_NE(output.find("wrote " + trace_path), std::string::npos);

  const std::string metrics = Slurp(metrics_path);
  EXPECT_TRUE(testing::IsValidJson(metrics)) << metrics;
  EXPECT_NE(metrics.find("\"dp.cells_pruned\""), std::string::npos);
  EXPECT_NE(metrics.find("\"dp.cells_evaluated\""), std::string::npos);
  EXPECT_NE(metrics.find("\"evaluator.ecom_evals\""), std::string::npos);
  EXPECT_NE(metrics.find("\"pool.regions\""), std::string::npos);

  const std::string trace = Slurp(trace_path);
  EXPECT_TRUE(testing::IsValidJson(trace)) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"dp.stage\""), std::string::npos);
  EXPECT_NE(trace.find("\"evaluator.tabulate\""), std::string::npos);
  EXPECT_NE(trace.find("\"pool.worker\""), std::string::npos);

  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST_F(CliWorkflow, ObservationFlagsDoNotChangeTheMapping) {
  const std::string metrics_path = TempPath("metrics2.json");
  std::string plain, observed;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_},
                       &plain),
            0)
      << plain;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--metrics", metrics_path},
                       &observed),
            0)
      << observed;
  EXPECT_EQ(MappingReport(plain), MappingReport(observed));
  std::remove(metrics_path.c_str());
}

TEST_F(CliWorkflow, FrontierAndSizeAcceptMetricsFlag) {
  const std::string metrics_path = TempPath("metrics3.json");
  std::string output;
  ASSERT_EQ(RunCommand({"frontier", "--chain", chain_path_, "--machine",
                        machine_path_, "--points", "3", "--metrics",
                        metrics_path},
                       &output),
            0)
      << output;
  std::string metrics = Slurp(metrics_path);
  EXPECT_TRUE(testing::IsValidJson(metrics)) << metrics;
  EXPECT_NE(metrics.find("\"dp.runs\""), std::string::npos);

  ASSERT_EQ(RunCommand({"size", "--chain", chain_path_, "--machine",
                        machine_path_, "--target", "30", "--metrics",
                        metrics_path},
                       &output),
            0)
      << output;
  metrics = Slurp(metrics_path);
  EXPECT_TRUE(testing::IsValidJson(metrics)) << metrics;
  EXPECT_NE(metrics.find("\"dp.runs\""), std::string::npos);
  std::remove(metrics_path.c_str());
}

TEST_F(CliWorkflow, ReportWritesUnifiedRunReport) {
  const std::string report_path = TempPath("report.json");
  const std::string trace_path = TempPath("report_trace.json");
  std::string output;
  ASSERT_EQ(RunCommand({"report", "--chain", chain_path_, "--machine",
                        machine_path_, "--datasets", "100", "--out",
                        report_path, "--trace", trace_path},
                       &output),
            0)
      << output;
  // Console companion: the wrote note, the mapping, the attribution table.
  EXPECT_NE(output.find("wrote " + report_path), std::string::npos);
  EXPECT_NE(output.find("mapping:"), std::string::npos);
  EXPECT_NE(output.find("bottleneck:"), std::string::npos);

  const std::string report = Slurp(report_path);
  EXPECT_TRUE(testing::IsValidJson(report)) << report;
  EXPECT_NE(report.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(report.find("\"predicted\""), std::string::npos);
  EXPECT_NE(report.find("\"simulated\""), std::string::npos);
  EXPECT_NE(report.find("\"attribution\""), std::string::npos);
  EXPECT_NE(report.find("\"module_utilization\""), std::string::npos);
  EXPECT_NE(report.find("\"datasets\": 100"), std::string::npos);
  // The report command always embeds its metrics snapshot, which includes
  // the pipeline-runtime series.
  EXPECT_NE(report.find("\"sim.run.throughput\""), std::string::npos);
  EXPECT_NE(report.find("\"sim.dataset.latency_s\""), std::string::npos);
  // The trace path is recorded and the trace itself is valid Chrome JSON
  // with simulated lanes.
  EXPECT_NE(report.find(trace_path), std::string::npos);
  const std::string trace = Slurp(trace_path);
  EXPECT_TRUE(testing::IsValidJson(trace)) << trace;
  EXPECT_NE(trace.find("\"sim.compute\""), std::string::npos);

  std::remove(report_path.c_str());
  std::remove(trace_path.c_str());
}

TEST_F(CliWorkflow, ReportToStdoutIsValidJson) {
  std::string output;
  ASSERT_EQ(RunCommand({"report", "--chain", chain_path_, "--machine",
                        machine_path_, "--datasets", "50"},
                       &output),
            0)
      << output;
  EXPECT_TRUE(testing::IsValidJson(output)) << output;
  EXPECT_NE(output.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(output.find("\"trace_path\": null"), std::string::npos);
}

TEST_F(CliWorkflow, ReplicationPolicyNone) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine", machine_path_,
                 "--replication", "none"},
                &output),
            0)
      << output;
  // Every module must be unreplicated: the rendering shows "x1" only.
  EXPECT_EQ(output.find("]x2"), std::string::npos);
  EXPECT_NE(output.find("]x1"), std::string::npos);
}

TEST_F(CliWorkflow, AutoAlgorithmReportsPortfolioChain) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--algorithm", "auto"},
                       &output),
            0)
      << output;
  // The portfolio ran the greedy heuristic then escalated to the exact DP
  // (the fft256 instance is too large for the brute-force stage).
  EXPECT_NE(output.find("maximum throughput (greedy+dp)"), std::string::npos);
}

TEST_F(CliWorkflow, UnknownAlgorithmFailsWithUsage) {
  std::string output;
  EXPECT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--algorithm", "quantum"},
                       &output),
            1);
  EXPECT_NE(output.find("unknown algorithm: quantum"), std::string::npos);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST_F(CliWorkflow, EngineCacheHitYieldsByteIdenticalMapping) {
  const std::string first_path = TempPath("cached_a.txt");
  const std::string second_path = TempPath("cached_b.txt");
  std::string first, second;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--engine-cache", "--out", first_path},
                       &first),
            0)
      << first;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--engine-cache", "--out", second_path},
                       &second),
            0)
      << second;
  EXPECT_NE(second.find("engine cache: hit"), std::string::npos);
  // Same prediction report, and the serialized mappings are byte-identical.
  EXPECT_EQ(MappingReport(first), MappingReport(second));
  EXPECT_EQ(Slurp(first_path), Slurp(second_path));
  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
}

// ---------------------------------------------------------------------------
// Hardened numeric parsing: every raw number a user can type is checked, and
// a mistake yields one clean error line plus the usage text, exit code 1 —
// never an unhandled std::invalid_argument / std::out_of_range abort.

TEST_F(CliWorkflow, MalformedIntegerFlagFailsCleanly) {
  std::string output;
  EXPECT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--procs", "abc"},
                       &output),
            1);
  EXPECT_NE(output.find("error: invalid integer value for --procs: 'abc'"),
            std::string::npos);
  EXPECT_NE(output.find("usage:"), std::string::npos);

  // Trailing garbage is as invalid as no digits at all.
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--out", mapping_path_},
                       &output),
            0)
      << output;
  EXPECT_EQ(RunCommand({"simulate", "--chain", chain_path_, "--machine",
                        machine_path_, "--mapping", mapping_path_,
                        "--datasets", "12x"},
                       &output),
            1);
  EXPECT_NE(output.find("invalid integer value for --datasets: '12x'"),
            std::string::npos);
}

TEST_F(CliWorkflow, OutOfRangeNumbersFailCleanly) {
  std::string output;
  // Overflows std::stoi.
  EXPECT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--procs", "99999999999999999999"},
                       &output),
            1);
  EXPECT_NE(output.find("invalid integer value for --procs"),
            std::string::npos);

  // Overflows to +inf, rejected by the finiteness check.
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--out", mapping_path_},
                       &output),
            0)
      << output;
  EXPECT_EQ(RunCommand({"simulate", "--chain", chain_path_, "--machine",
                        machine_path_, "--mapping", mapping_path_, "--noise",
                        "1e999"},
                       &output),
            1);
  EXPECT_NE(output.find("invalid numeric value for --noise: '1e999'"),
            std::string::npos);
}

TEST_F(CliWorkflow, MalformedDoubleFlagsFailCleanly) {
  std::string output;
  EXPECT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--objective", "latency", "--floor",
                        "fast"},
                       &output),
            1);
  EXPECT_NE(output.find("invalid numeric value for --floor: 'fast'"),
            std::string::npos);

  EXPECT_EQ(RunCommand({"size", "--chain", chain_path_, "--machine",
                        machine_path_, "--target", ""},
                       &output),
            1);
  EXPECT_NE(output.find("invalid numeric value for --target: ''"),
            std::string::npos);
}

TEST_F(CliWorkflow, NonPositiveSolverDeadlineIsRejected) {
  std::string output;
  EXPECT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--solver-deadline", "-1"},
                       &output),
            1);
  EXPECT_NE(output.find("--solver-deadline must be positive"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault injection and repair through the CLI.

TEST_F(CliWorkflow, TinySolverDeadlinePrintsIncumbentNote) {
  std::string output;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--algorithm", "dp",
                        "--solver-deadline", "1e-9"},
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("solver deadline expired"), std::string::npos);
  EXPECT_NE(output.find("best incumbent"), std::string::npos);
}

TEST_F(CliWorkflow, SimulateWithCrashFaultReportsRepair) {
  std::string map_out;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--out", mapping_path_},
                       &map_out),
            0)
      << map_out;
  std::string output;
  ASSERT_EQ(RunCommand({"simulate", "--chain", chain_path_, "--machine",
                        machine_path_, "--mapping", mapping_path_,
                        "--datasets", "400", "--faults", "crash@2.0:m0.i0",
                        "--repair-policy", "floor"},
                       &output),
            0)
      << output;
  EXPECT_NE(output.find("faults: 1 crash"), std::string::npos);
  EXPECT_NE(output.find("repair (floor)"), std::string::npos);
  EXPECT_NE(output.find("(retention "), std::string::npos);
  EXPECT_NE(output.find("recovery: "), std::string::npos);
  EXPECT_NE(output.find("post-repair simulated throughput"),
            std::string::npos);
}

TEST_F(CliWorkflow, RepairPolicyWithoutFaultsIsUsageError) {
  std::string map_out;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--out", mapping_path_},
                       &map_out),
            0)
      << map_out;
  std::string output;
  EXPECT_EQ(RunCommand({"simulate", "--chain", chain_path_, "--machine",
                        machine_path_, "--mapping", mapping_path_,
                        "--repair-policy", "full"},
                       &output),
            1);
  EXPECT_NE(output.find("--repair-policy requires --faults"),
            std::string::npos);
}

TEST_F(CliWorkflow, MalformedFaultSpecIsUsageError) {
  std::string map_out;
  ASSERT_EQ(RunCommand({"map", "--chain", chain_path_, "--machine",
                        machine_path_, "--out", mapping_path_},
                       &map_out),
            0)
      << map_out;
  std::string output;
  EXPECT_EQ(RunCommand({"simulate", "--chain", chain_path_, "--machine",
                        machine_path_, "--mapping", mapping_path_, "--faults",
                        "crash@bad"},
                       &output),
            1);
  EXPECT_NE(output.find("FaultPlan"), std::string::npos);
}

}  // namespace
}  // namespace pipemap::cli
