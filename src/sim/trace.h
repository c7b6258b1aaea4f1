// Execution traces: what every module instance did, when.
//
// The paper's Figure 2 is a timeline of tasks alternating between
// computation and (rendezvous) communication. The simulator can record
// that timeline exactly; RenderGantt draws it as text, one row per module
// instance.
#pragma once

#include <string>
#include <vector>

#include "core/task.h"

namespace pipemap {

/// One busy interval of one module instance.
struct TraceEvent {
  enum class Phase {
    kReceive,  // rendezvous, receiving side
    kCompute,  // module body (task executions + internal redistributions)
    kSend,     // rendezvous, sending side
  };

  int module = 0;
  int instance = 0;
  int dataset = 0;
  Phase phase = Phase::kCompute;
  double start = 0.0;
  double end = 0.0;
};

struct ExecutionTrace {
  std::vector<TraceEvent> events;
  double makespan = 0.0;

  /// Renders a text Gantt chart: one row per module instance, `width`
  /// character columns spanning [t0, t1) (defaults to the whole run).
  /// Legend: '<' receive, '#' compute, '>' send, '.' idle. When multiple
  /// phases fall into one column, the busiest wins.
  std::string RenderGantt(int width = 72, double t0 = 0.0,
                          double t1 = -1.0) const;

  /// Events of one instance, in time order.
  std::vector<TraceEvent> InstanceTimeline(int module, int instance) const;
};

}  // namespace pipemap
