#include "sim/trace.h"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>

#include "support/error.h"

namespace pipemap {
namespace {

char PhaseChar(TraceEvent::Phase phase) {
  switch (phase) {
    case TraceEvent::Phase::kReceive:
      return '<';
    case TraceEvent::Phase::kCompute:
      return '#';
    case TraceEvent::Phase::kSend:
      return '>';
  }
  return '?';
}

}  // namespace

std::string ExecutionTrace::RenderGantt(int width, double t0,
                                        double t1) const {
  PIPEMAP_CHECK(width >= 8, "RenderGantt: width too small");
  if (t1 < 0.0) t1 = makespan;
  PIPEMAP_CHECK(t1 > t0, "RenderGantt: empty time window");

  // Collect rows in (module, instance) order.
  std::map<std::pair<int, int>, std::vector<std::array<double, 3>>> rows;
  for (const TraceEvent& e : events) {
    rows[{e.module, e.instance}].push_back(
        {e.start, e.end, static_cast<double>(PhaseChar(e.phase))});
  }

  const double dt = (t1 - t0) / width;
  std::ostringstream os;
  os << "time " << t0 << " .. " << t1 << " s  ('<' recv, '#' compute, '>' "
     << "send, '.' idle)\n";
  for (const auto& [key, intervals] : rows) {
    std::string line(width, '.');
    // For each column pick the phase covering the largest share of it.
    for (int c = 0; c < width; ++c) {
      const double lo = t0 + c * dt;
      const double hi = lo + dt;
      double best_cover = 0.0;
      char best_char = '.';
      for (const auto& iv : intervals) {
        const double cover =
            std::min(hi, iv[1]) - std::max(lo, iv[0]);
        if (cover > best_cover) {
          best_cover = cover;
          best_char = static_cast<char>(iv[2]);
        }
      }
      line[c] = best_char;
    }
    os << "m" << key.first << "/i" << key.second << " |" << line << "|\n";
  }
  return os.str();
}

std::vector<TraceEvent> ExecutionTrace::InstanceTimeline(
    int module, int instance) const {
  std::vector<TraceEvent> timeline;
  for (const TraceEvent& e : events) {
    if (e.module == module && e.instance == instance) {
      timeline.push_back(e);
    }
  }
  std::sort(timeline.begin(), timeline.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start < b.start;
            });
  return timeline;
}

}  // namespace pipemap
