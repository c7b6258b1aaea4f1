#include "sim/telemetry.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/pipeline_sim.h"
#include "support/metrics.h"
#include "support/tracer.h"

namespace pipemap {
namespace {

/// Interns "sim.module.<m>.<metric>" once per run; the handles stay valid
/// for the registry's lifetime, so re-running a mapping reuses them.
MetricsRegistry::Histogram* ModuleHistogram(int module, const char* metric) {
  return MetricsRegistry::Global().GetHistogram(
      "sim.module." + std::to_string(module) + "." + metric);
}

MetricsRegistry::Gauge* ModuleGauge(int module, const char* metric) {
  return MetricsRegistry::Global().GetGauge(
      "sim.module." + std::to_string(module) + "." + metric);
}

const char* PhaseSpanName(TraceEvent::Phase phase) {
  switch (phase) {
    case TraceEvent::Phase::kReceive:
      return "sim.receive";
    case TraceEvent::Phase::kCompute:
      return "sim.compute";
    case TraceEvent::Phase::kSend:
      return "sim.send";
  }
  return "sim.phase";
}

}  // namespace

struct SimTelemetry::ModuleHandles {
  MetricsRegistry::Histogram* stage_latency = nullptr;
  MetricsRegistry::Gauge* utilization = nullptr;
  MetricsRegistry::Gauge* occupancy = nullptr;
  MetricsRegistry::Gauge* queue_depth_peak = nullptr;
};

SimTelemetry::SimTelemetry(const Mapping& mapping, int num_datasets)
    : metrics_(MetricsRegistry::Enabled()),
      tracing_(Tracer::Enabled()),
      num_datasets_(num_datasets) {
  if (!active()) return;
  const int l = mapping.num_modules();
  replicas_.resize(l);
  lane_base_.resize(l);
  int next_lane = 1;  // lane 0 is the per-data-set row
  for (int m = 0; m < l; ++m) {
    replicas_[m] = mapping.modules[m].replicas;
    lane_base_[m] = next_lane;
    next_lane += replicas_[m];
  }
  if (metrics_) {
    MetricsRegistry::Global().GetCounter("sim.telemetry.runs")->Add(1);
    handles_.resize(l);
    for (int m = 0; m < l; ++m) {
      handles_[m].stage_latency = ModuleHistogram(m, "stage_latency_s");
      handles_[m].utilization = ModuleGauge(m, "utilization");
      handles_[m].occupancy = ModuleGauge(m, "occupancy");
      handles_[m].queue_depth_peak = ModuleGauge(m, "queue_depth_peak");
    }
  }
  if (tracing_) {
    Tracer& tracer = Tracer::Global();
    tracer.NameLane(0, "datasets");
    for (int m = 0; m < l; ++m) {
      for (int i = 0; i < replicas_[m]; ++i) {
        tracer.NameLane(lane_base_[m] + i,
                        "m" + std::to_string(m) + "/i" + std::to_string(i));
      }
    }
  }
}

SimTelemetry::~SimTelemetry() = default;

int SimTelemetry::LaneOf(int module, int instance) const {
  return lane_base_[module] + instance;
}

std::uint64_t SimTelemetry::ToNs(double seconds) {
  return seconds <= 0.0 ? 0
                        : static_cast<std::uint64_t>(seconds * 1e9);
}

void SimTelemetry::RecordPhase(int module, int instance,
                               TraceEvent::Phase phase, int dataset,
                               double start_s, double end_s) {
  if (!active()) return;
  const double dur_s = end_s - start_s;
  if (metrics_) {
    switch (phase) {
      case TraceEvent::Phase::kReceive:
        PIPEMAP_HISTOGRAM_RECORD("sim.stage.receive_s", dur_s);
        break;
      case TraceEvent::Phase::kCompute:
        PIPEMAP_HISTOGRAM_RECORD("sim.stage.compute_s", dur_s);
        break;
      case TraceEvent::Phase::kSend:
        PIPEMAP_HISTOGRAM_RECORD("sim.stage.send_s", dur_s);
        break;
    }
    handles_[module].stage_latency->Record(dur_s);
  }
  if (tracing_) {
    Tracer::Global().RecordLaneSpan(PhaseSpanName(phase), "sim",
                                    LaneOf(module, instance), ToNs(start_s),
                                    ToNs(dur_s), dataset);
  }
}

void SimTelemetry::RecordQueuePush(int module, double t_s) {
  if (!active()) return;
  queue_events_.push_back(QueueEvent{module, t_s, +1});
}

void SimTelemetry::RecordQueuePop(int module, double t_s) {
  if (!active()) return;
  queue_events_.push_back(QueueEvent{module, t_s, -1});
}

void SimTelemetry::RecordDataset(int dataset, double enter_s, double done_s) {
  if (!active()) return;
  if (metrics_) {
    PIPEMAP_HISTOGRAM_RECORD("sim.dataset.latency_s", done_s - enter_s);
  }
  if (tracing_) {
    Tracer::Global().RecordLaneSpan("sim.dataset", "sim", /*lane=*/0,
                                    ToNs(enter_s), ToNs(done_s - enter_s),
                                    dataset);
  }
}

void SimTelemetry::Finish(const SimResult& result) {
  if (!active()) return;
  const int l = static_cast<int>(replicas_.size());

  // Order the buffered queue events — the pipeline engine emits them
  // data-set-major, not time-major — and walk out each module's depth
  // series. Pops at the same instant as pushes drain first so the depth
  // never dips below zero on rendezvous boundaries.
  std::stable_sort(queue_events_.begin(), queue_events_.end(),
                   [](const QueueEvent& a, const QueueEvent& b) {
                     if (a.t_s != b.t_s) return a.t_s < b.t_s;
                     return a.delta < b.delta;
                   });
  std::vector<int> depth(l, 0);
  std::vector<int> peak(l, 0);
  for (const QueueEvent& e : queue_events_) {
    depth[e.module] += e.delta;
    peak[e.module] = std::max(peak[e.module], depth[e.module]);
    if (metrics_) {
      PIPEMAP_HISTOGRAM_RECORD("sim.queue.depth", depth[e.module]);
    }
    if (tracing_) {
      Tracer::Global().RecordCounter("sim.queue.depth", "sim", e.module,
                                     ToNs(e.t_s),
                                     static_cast<double>(depth[e.module]));
    }
  }

  if (metrics_) {
    for (int m = 0; m < l; ++m) {
      const double util = m < static_cast<int>(
                                  result.module_utilization.size())
                              ? result.module_utilization[m]
                              : 0.0;
      handles_[m].utilization->Set(util);
      handles_[m].occupancy->Set(util * replicas_[m]);
      handles_[m].queue_depth_peak->Set(peak[m]);
    }
    PIPEMAP_GAUGE_SET("sim.run.throughput", result.throughput);
    PIPEMAP_GAUGE_SET("sim.run.mean_latency_s", result.mean_latency);
    PIPEMAP_GAUGE_SET("sim.run.makespan_s", result.makespan);
    PIPEMAP_COUNTER_ADD("sim.telemetry.datasets",
                        static_cast<std::uint64_t>(num_datasets_));
  }
  queue_events_.clear();
}

}  // namespace pipemap
