// Pipeline-runtime telemetry (sim/telemetry.h). The hand-computed
// simulation results are asserted with collection on and off — the
// executable proof that telemetry never perturbs a simulated result —
// and the recording tests check what reaches the registry and the tracer.
#include "sim/telemetry.h"

#include <gtest/gtest.h>

#include <string>

#include "sim/event_sim.h"
#include "sim/pipeline_sim.h"
#include "support/metrics.h"
#include "support/tracer.h"
#include "../json_util.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::IsValidJson;
using testing::TaskSpec;

/// exec 1.0 and 2.0 s, transfer 0.5 s => f_0 = 1.5, f_1 = 2.5,
/// steady-state period 2.5 s, first data set done at 3.5 s.
TaskChain TwoTaskChain() {
  return BuildChain(
      {TaskSpec{1.0, 0.0, 0.0, 1}, TaskSpec{2.0, 0.0, 0.0, 1}},
      {EdgeSpec{0, 0, 0, /*e_fixed=*/0.5, 0, 0, 0, 0}});
}

Mapping TwoSingletons() {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 1, 1});
  m.modules.push_back(ModuleAssignment{1, 1, 1, 1});
  return m;
}

SimOptions Noiseless(int n) {
  SimOptions options;
  options.num_datasets = n;
  options.warmup = 0;
  return options;
}

/// Every test leaves the global collectors disabled and clean.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    Tracer::Global().Clear();
    MetricsRegistry::Global().Enable(false);
    Tracer::Global().Enable(false);
  }
  void TearDown() override {
    MetricsRegistry::Global().Enable(false);
    Tracer::Global().Enable(false);
    MetricsRegistry::Global().Reset();
    Tracer::Global().Clear();
  }
};

void ExpectIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  ASSERT_EQ(a.module_utilization.size(), b.module_utilization.size());
  for (std::size_t m = 0; m < a.module_utilization.size(); ++m) {
    EXPECT_EQ(a.module_utilization[m], b.module_utilization[m]);
  }
  ASSERT_EQ(a.module_activity.size(), b.module_activity.size());
  for (std::size_t m = 0; m < a.module_activity.size(); ++m) {
    EXPECT_EQ(a.module_activity[m].receive_s, b.module_activity[m].receive_s);
    EXPECT_EQ(a.module_activity[m].compute_s, b.module_activity[m].compute_s);
    EXPECT_EQ(a.module_activity[m].send_s, b.module_activity[m].send_s);
  }
}

// The central contract, asserted in both the instrumented and the
// compiled-out binary: observability on, off, or absent — the simulated
// numbers are bit-identical and match the hand computation.
TEST_F(TelemetryTest, PipelineResultsIdenticalObservedVsUnobserved) {
  const TaskChain chain = TwoTaskChain();
  const PipelineSimulator sim(chain);
  const int n = 10;

  const SimResult unobserved = sim.Run(TwoSingletons(), Noiseless(n));

  MetricsRegistry::Global().Enable(true);
  Tracer::Global().Enable(true);
  const SimResult observed = sim.Run(TwoSingletons(), Noiseless(n));
  MetricsRegistry::Global().Enable(false);
  Tracer::Global().Enable(false);

  ExpectIdentical(unobserved, observed);
  // done[d] = 3.5 + 2.5 d; throughput = n / done[n-1].
  EXPECT_DOUBLE_EQ(unobserved.makespan, 3.5 + 2.5 * (n - 1));
  EXPECT_DOUBLE_EQ(unobserved.throughput, n / (3.5 + 2.5 * (n - 1)));
}

TEST_F(TelemetryTest, EventSimResultsIdenticalObservedVsUnobserved) {
  const TaskChain chain = TwoTaskChain();
  const EventDrivenSimulator sim(chain);
  const int n = 10;

  const SimResult unobserved = sim.Run(TwoSingletons(), Noiseless(n));

  MetricsRegistry::Global().Enable(true);
  Tracer::Global().Enable(true);
  const SimResult observed = sim.Run(TwoSingletons(), Noiseless(n));
  MetricsRegistry::Global().Enable(false);
  Tracer::Global().Enable(false);

  ExpectIdentical(unobserved, observed);
  EXPECT_DOUBLE_EQ(unobserved.makespan, 3.5 + 2.5 * (n - 1));
}

// module_activity is independent of the observability switch: per data
// set each module is busy exactly its paper response f_i (rendezvous busy
// accounting excludes waiting), so busy_s / n recovers f_0 = 1.5 and
// f_1 = 2.5 in both engines and both build modes.
TEST_F(TelemetryTest, ModuleActivityRecoversPaperResponses) {
  const TaskChain chain = TwoTaskChain();
  const int n = 8;
  for (const bool event_driven : {false, true}) {
    const SimResult result =
        event_driven
            ? EventDrivenSimulator(chain).Run(TwoSingletons(), Noiseless(n))
            : PipelineSimulator(chain).Run(TwoSingletons(), Noiseless(n));
    ASSERT_EQ(result.module_activity.size(), 2u);
    EXPECT_NEAR(result.module_activity[0].compute_s, 1.0 * n, 1e-9);
    EXPECT_NEAR(result.module_activity[0].send_s, 0.5 * n, 1e-9);
    EXPECT_NEAR(result.module_activity[0].receive_s, 0.0, 1e-9);
    EXPECT_NEAR(result.module_activity[1].receive_s, 0.5 * n, 1e-9);
    EXPECT_NEAR(result.module_activity[1].compute_s, 2.0 * n, 1e-9);
    EXPECT_NEAR(result.module_activity[1].send_s, 0.0, 1e-9);
    EXPECT_NEAR(result.module_activity[0].busy_s() / n, 1.5, 1e-9);
    EXPECT_NEAR(result.module_activity[1].busy_s() / n, 2.5, 1e-9);
  }
}

TEST_F(TelemetryTest, InactiveWhenCollectorsDisabled) {
  const SimTelemetry telemetry(TwoSingletons(), 5);
  EXPECT_FALSE(telemetry.active());
}

TEST_F(TelemetryTest, PublishesStageHistogramsAndRunGauges) {
  const TaskChain chain = TwoTaskChain();
  const int n = 6;
  MetricsRegistry::Global().Enable(true);
  const SimResult result =
      PipelineSimulator(chain).Run(TwoSingletons(), Noiseless(n));
  MetricsRegistry::Global().Enable(false);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snap.counters.count("sim.telemetry.runs"), 1u);
  EXPECT_EQ(snap.counters.at("sim.telemetry.runs"), 1u);
  EXPECT_EQ(snap.counters.at("sim.telemetry.datasets"),
            static_cast<std::uint64_t>(n));

  // One compute per module per data set; one send/receive pair per edge
  // crossing; one latency sample per data set.
  EXPECT_EQ(snap.histograms.at("sim.stage.compute_s").count,
            static_cast<std::uint64_t>(2 * n));
  EXPECT_EQ(snap.histograms.at("sim.stage.send_s").count,
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(snap.histograms.at("sim.stage.receive_s").count,
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(snap.histograms.at("sim.dataset.latency_s").count,
            static_cast<std::uint64_t>(n));
  // Per-module service-time series: every phase of module m lands in its
  // stage_latency histogram (m0: compute+send, m1: receive+compute).
  EXPECT_EQ(snap.histograms.at("sim.module.0.stage_latency_s").count,
            static_cast<std::uint64_t>(2 * n));
  EXPECT_EQ(snap.histograms.at("sim.module.1.stage_latency_s").count,
            static_cast<std::uint64_t>(2 * n));
  // Queue depth: one push and one pop per transfer at module 1.
  EXPECT_EQ(snap.histograms.at("sim.queue.depth").count,
            static_cast<std::uint64_t>(2 * n));

  // Gauges mirror the result the caller got.
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.run.throughput"), result.throughput);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.run.makespan_s"), result.makespan);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.module.0.utilization"),
                   result.module_utilization[0]);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.module.1.utilization"),
                   result.module_utilization[1]);
  // Singleton modules: occupancy == utilization.
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.module.1.occupancy"),
                   result.module_utilization[1]);
  EXPECT_GE(snap.gauges.at("sim.module.1.queue_depth_peak"), 1.0);
}

TEST_F(TelemetryTest, EventSimPublishesTheSameSeries) {
  const TaskChain chain = TwoTaskChain();
  const int n = 6;
  MetricsRegistry::Global().Enable(true);
  EventDrivenSimulator(chain).Run(TwoSingletons(), Noiseless(n));
  MetricsRegistry::Global().Enable(false);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("sim.telemetry.runs"), 1u);
  EXPECT_EQ(snap.histograms.at("sim.stage.compute_s").count,
            static_cast<std::uint64_t>(2 * n));
  EXPECT_EQ(snap.histograms.at("sim.dataset.latency_s").count,
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(snap.histograms.at("sim.queue.depth").count,
            static_cast<std::uint64_t>(2 * n));
}

TEST_F(TelemetryTest, TraceShowsLanesSpansAndQueueCounters) {
  const TaskChain chain = TwoTaskChain();
  Tracer::Global().Enable(true);
  PipelineSimulator(chain).Run(TwoSingletons(), Noiseless(4));
  Tracer::Global().Enable(false);

  const std::string json = Tracer::Global().ToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  // Lane names: the per-data-set row plus one per module instance.
  EXPECT_NE(json.find("\"datasets\""), std::string::npos);
  EXPECT_NE(json.find("\"m0/i0\""), std::string::npos);
  EXPECT_NE(json.find("\"m1/i0\""), std::string::npos);
  // Simulated spans and queue-depth counter events.
  EXPECT_NE(json.find("\"sim.compute\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.send\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.receive\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.dataset\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  // Virtual lanes export under their own Chrome process.
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
}

TEST_F(TelemetryTest, QueueDepthPeakGrowsWhenDownstreamIsSlow) {
  // Downstream is 4x slower than upstream with one replica: data sets
  // pile up at module 1's input; the peak must exceed 1.
  const TaskChain chain = BuildChain(
      {TaskSpec{0.5, 0.0, 0.0, 1}, TaskSpec{2.0, 0.0, 0.0, 1}},
      {EdgeSpec{0, 0, 0, /*e_fixed=*/0.1, 0, 0, 0, 0}});
  MetricsRegistry::Global().Enable(true);
  PipelineSimulator(chain).Run(TwoSingletons(), Noiseless(12));
  MetricsRegistry::Global().Enable(false);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.gauges.at("sim.module.1.queue_depth_peak"), 1.0);
  EXPECT_EQ(snap.gauges.at("sim.module.0.queue_depth_peak"), 0.0);
}

}  // namespace
}  // namespace pipemap
