// The traced replay: the socket run's seeded requests, replayed
// in-process through each layer's public functions in the order
// PipemapServer::HandleMap calls them, with a span around every call.
//
// Per request there are two span trees sharing the request id:
//   replay.request  the served path: frame read (over a socketpair),
//                   request parse, chain and machine parse, engine map,
//                   the second Evaluator, MakeFeasible, response encode;
//   replay.shadow   calls the served path makes inside MappingEngine and
//                   that are not visible from outside it, timed
//                   standalone on the same inputs: the fingerprint, and
//                   on a miss the engine's Evaluator, greedy, and the DP
//                   seeded with greedy's incumbent as the engine seeds it.
//
// After the window a probe replays a few of the workload's problems
// through a fresh engine with a cache directory: once solved, once read
// back from disk, once from memory. It supplies a layer's numbers on a
// workload whose window never reaches that layer (the DP on table2_hot,
// the disk tier on table2_hot and cold_dp), so every layer is reported
// on every workload; the base counts tell which source was used.
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "answer.h"
#include "commands.h"
#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "core/greedy_mapper.h"
#include "core/warm_start.h"
#include "engine/mapping_engine.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "server/protocol.h"
#include "spans.h"
#include "support/error.h"
#include "support/json_writer.h"
#include "support/metrics.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

enum class ReplayPhase { kWindow, kProbe };

/// Problems the probe replays, per workload.
int ProbeSize(WorkloadKind kind) {
  return kind == WorkloadKind::kColdDp ? 3 : 6;
}

/// Observe on/off pairs per probe problem, alternating which runs first.
constexpr int kObservePairs = 4;

/// DP time each probe problem accumulates for the resource means, and
/// the cap on repeats that gets there.
constexpr double kProbeDpMillis = 40.0;
constexpr int kMaxDpRuns = 32;

double Millis(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

/// Resources of one standalone DP solve.
struct DpRecord {
  ReplayPhase phase = ReplayPhase::kWindow;
  /// The first solve of its problem (probe repeats are not).
  bool first = true;
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double minor_faults = 0.0;
  double table_mib = 0.0;
  std::uint64_t work = 0;
  std::uint64_t pruned = 0;
};

/// Options the engine's solvers run with for `request`: the machine's
/// processor-count predicate installed and a fresh warm-start state.
pipemap::MapperOptions SolverOptions(const pipemap::MapRequest& request) {
  pipemap::MapperOptions options = request.options;
  options.proc_feasible =
      pipemap::FeasibilityChecker(request.machine).ProcCountPredicate();
  options.warm = std::make_shared<pipemap::WarmStartState>();
  return options;
}

class Replayer {
 public:
  Replayer() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, frame_fds_) != 0) {
      throw pipemap::Error("socketpair failed");
    }
    // Room for the largest request, so writing a frame never blocks.
    const int bytes = 1 << 20;
    ::setsockopt(frame_fds_[0], SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    ::setsockopt(frame_fds_[1], SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    log_.Reserve(1 << 18);
  }
  ~Replayer() {
    ::close(frame_fds_[0]);
    ::close(frame_fds_[1]);
  }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// One traced request: the served path, then its shadow calls.
  void Request(pipemap::MappingEngine& engine, const Problem& problem,
               std::uint64_t trace_id, ReplayPhase phase) {
    std::string frame = problem.payload;
    StampTraceId(&frame, problem.trace_offset, trace_id);
    pipemap::server::WriteFrame(frame_fds_[0], frame);
    const auto id = static_cast<std::int64_t>(phases_.size());
    phases_.push_back(phase);
    std::string payload;
    pipemap::server::ServerRequest request;
    Served served;

    const int root = log_.Open("replay.request", -1, id);
    {
      ScopedSpan span(&log_, "server.frame_read", root);
      pipemap::server::ReadFrame(frame_fds_[1], 4u << 20, &payload);
    }
    {
      ScopedSpan span(&log_, "server.parse_request", root);
      request = pipemap::server::ParseServerRequest(payload);
    }
    ServeMap(engine, request, /*use_cache=*/true, &served, &log_, root);
    log_.Close(root);

    const int shadow = log_.Open("replay.shadow", -1, id);
    {
      ScopedSpan span(&log_, "engine.fingerprint", shadow);
      engine.Fingerprint(served.request);
    }
    if (!served.response.cache_hit && !served.response.shared_solve) {
      ShadowSolve(served, shadow, phase);
    }
    log_.Close(shadow);
    if (!CheckReply(served.json, trace_id).empty()) ++bad_replies_;
  }

  /// DP on and off MapperOptions::observe with metrics collection off
  /// process-wide; returns the on/off wall-time ratio of each pair.
  std::vector<double> ObservePairs(const Problem& problem) {
    const pipemap::server::ServerRequest request =
        pipemap::server::ParseServerRequest(problem.payload);
    const pipemap::TaskChain chain = pipemap::ParseChain(request.chain_text);
    const pipemap::MachineConfig machine =
        pipemap::ParseMachine(request.machine_text);
    pipemap::MapRequest mr;
    mr.chain = &chain;
    mr.machine = machine;
    mr.total_procs =
        request.procs > 0 ? request.procs : machine.total_procs();
    mr.options.num_threads = request.threads;
    const pipemap::Evaluator eval(chain, mr.total_procs,
                                  machine.node_memory_bytes, request.threads);
    pipemap::GreedyOptions greedy;
    greedy.base = SolverOptions(mr);
    const pipemap::Mapping incumbent =
        pipemap::GreedyMapper(greedy).Map(eval, mr.total_procs).mapping;
    const auto time_dp = [&](bool observe) {
      pipemap::MapperOptions options = SolverOptions(mr);
      options.warm->incumbent = incumbent;
      options.observe = observe;
      const Clock::time_point start = Clock::now();
      pipemap::DpMapper(options).Map(eval, mr.total_procs);
      return std::chrono::duration<double>(Clock::now() - start).count();
    };
    std::vector<double> ratios;
    pipemap::MetricsRegistry::Global().Enable(false);
    for (int pair = 0; pair < kObservePairs; ++pair) {
      double on = 0.0;
      double off = 0.0;
      if (pair % 2 == 0) {
        on = time_dp(true);
        off = time_dp(false);
      } else {
        off = time_dp(false);
        on = time_dp(true);
      }
      ratios.push_back(on / off);
    }
    pipemap::MetricsRegistry::Global().Enable(true);
    return ratios;
  }

  const SpanLog& log() const { return log_; }
  ReplayPhase phase(std::int64_t request) const {
    return phases_[static_cast<std::size_t>(request)];
  }
  const std::vector<DpRecord>& dp() const { return dp_; }
  std::int64_t shadow_mismatches() const { return shadow_mismatches_; }
  std::int64_t bad_replies() const { return bad_replies_; }

 private:
  /// The engine's solve of a miss, as standalone calls: its Evaluator,
  /// greedy, and the DP seeded with greedy's incumbent. In the probe the
  /// DP is repeated (a fresh warm-start state each time) until it has
  /// run kProbeDpMillis: getrusage's thread times tick in 4 ms steps, so
  /// sub-millisecond solves need many samples for a usable mean.
  void ShadowSolve(const Served& served, int parent, ReplayPhase phase) {
    const pipemap::MapRequest& mr = served.request;
    pipemap::MapperOptions options = SolverOptions(mr);
    std::optional<pipemap::Evaluator> eval;
    {
      ScopedSpan span(&log_, "core.evaluator", parent);
      eval.emplace(*mr.chain, mr.total_procs, mr.machine.node_memory_bytes,
                   options.num_threads);
    }
    pipemap::MapResult greedy;
    {
      pipemap::GreedyOptions greedy_options;
      greedy_options.base = options;
      ScopedSpan span(&log_, "core.greedy", parent);
      greedy = pipemap::GreedyMapper(greedy_options).Map(*eval, mr.total_procs);
    }
    static pipemap::MetricsRegistry::Gauge* const table_bytes =
        pipemap::MetricsRegistry::Global().GetGauge("dp.table_bytes");
    double dp_ms = 0.0;
    for (int run = 0; run < kMaxDpRuns; ++run) {
      if (run > 0 && (phase == ReplayPhase::kWindow || dp_ms >= kProbeDpMillis)) {
        break;
      }
      options.warm = std::make_shared<pipemap::WarmStartState>();
      options.warm->incumbent = greedy.mapping;
      table_bytes->Set(0.0);
      rusage before{};
      rusage after{};
      ::getrusage(RUSAGE_THREAD, &before);
      pipemap::MapResult dp;
      int span_id = -1;
      {
        ScopedSpan span(&log_, "core.dp", parent);
        span_id = span.id();
        dp = pipemap::DpMapper(options).Map(*eval, mr.total_procs);
      }
      ::getrusage(RUSAGE_THREAD, &after);
      dp_ms += log_.spans()[static_cast<std::size_t>(span_id)].micros() / 1e3;
      DpRecord record;
      record.phase = phase;
      record.first = run == 0;
      record.user_ms = Millis(after.ru_utime) - Millis(before.ru_utime);
      record.sys_ms = Millis(after.ru_stime) - Millis(before.ru_stime);
      record.minor_faults =
          static_cast<double>(after.ru_minflt - before.ru_minflt);
      record.table_mib = table_bytes->Value() / (1024.0 * 1024.0);
      record.work = dp.work;
      record.pruned = dp.pruned_cells;
      dp_.push_back(record);
      // The engine keeps the DP's answer (exact wins ties with greedy),
      // so the standalone DP must reproduce it; otherwise these timings
      // do not describe the engine's solve.
      if (pipemap::SerializeMapping(dp.mapping) !=
          pipemap::SerializeMapping(served.response.mapping)) {
        ++shadow_mismatches_;
      }
    }
  }

  int frame_fds_[2] = {-1, -1};
  SpanLog log_;
  std::vector<ReplayPhase> phases_;
  std::vector<DpRecord> dp_;
  std::int64_t shadow_mismatches_ = 0;
  std::int64_t bad_replies_ = 0;
};

/// Serves `problem` without tracing, to bring an engine to the state the
/// socket run's window starts from.
void ServeUntraced(pipemap::MappingEngine& engine, const Problem& problem) {
  const pipemap::server::ServerRequest request =
      pipemap::server::ParseServerRequest(problem.payload);
  Served served;
  ServeMap(engine, request, /*use_cache=*/true, &served);
}

pipemap::EngineConfig WithCacheDir(const std::string& dir) {
  pipemap::EngineConfig config;
  config.cache_dir = dir;
  return config;
}

/// Replays the set-up the socket run performs before its window.
std::unique_ptr<pipemap::MappingEngine> SetUp(const Plan& plan) {
  auto engine = std::make_unique<pipemap::MappingEngine>();
  for (const Problem& p : plan.fill()) ServeUntraced(*engine, p);
  for (int c = 0; c < kCallers; ++c) {
    Stream warmup(plan, Phase::kWarmup, c);
    for (int i = 0; i < plan.warmup_requests(); ++i) {
      ServeUntraced(*engine, warmup.Get(i));
    }
  }
  return engine;
}

/// The q-quantile of `v`, interpolating linearly between ranks; 0 when
/// empty.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double P50(std::vector<double> v) { return Percentile(std::move(v), 0.5); }
double P99(std::vector<double> v) { return Percentile(std::move(v), 0.99); }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

int Replay(const ReplayOptions& o) {
  const Plan plan(o.kind, o.seed);
  // The daemon runs with metrics collection on; so does the replay.
  const pipemap::ScopedMetricsEnable metrics_on(true);
  Replayer replayer;

  std::unique_ptr<pipemap::MappingEngine> engine = SetUp(plan);
  std::vector<Stream> window;
  for (int c = 0; c < kCallers; ++c) window.emplace_back(plan, Phase::kWindow, c);
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  std::int64_t replayed = 0;
  for (std::int64_t i = 0; Clock::now() < give_up; ++i) {
    bool any = false;
    for (int c = 0; c < kCallers; ++c) {
      if (i >= o.requests[c]) continue;
      any = true;
      Stream& stream = window[static_cast<std::size_t>(c)];
      replayer.Request(*engine, stream.Get(i), stream.TraceId(i),
                       ReplayPhase::kWindow);
      ++replayed;
    }
    if (!any) break;
  }
  engine.reset();

  // The probe: the first distinct problems of caller 0's window.
  std::vector<const Problem*> sample;
  {
    std::set<const Problem*> seen;
    for (std::int64_t i = 0;
         static_cast<int>(sample.size()) < ProbeSize(o.kind); ++i) {
      const Problem* p = &window[0].Get(i);
      if (seen.insert(p).second) sample.push_back(p);
    }
  }
  const std::string probe_dir = o.work_dir + "/probe-cache";
  std::filesystem::remove_all(probe_dir);
  std::uint64_t probe_id = 0;
  {
    pipemap::MappingEngine solver(WithCacheDir(probe_dir));
    for (const Problem* p : sample) {
      replayer.Request(solver, *p, ++probe_id, ReplayPhase::kProbe);
    }
  }  // the destructor drains the write-behind spills
  {
    pipemap::MappingEngine reader(WithCacheDir(probe_dir));
    for (int pass = 0; pass < 2; ++pass) {  // disk hits, then memory hits
      for (const Problem* p : sample) {
        replayer.Request(reader, *p, ++probe_id, ReplayPhase::kProbe);
      }
    }
  }
  std::vector<double> observe_ratios;
  for (const Problem* p : sample) {
    for (const double r : replayer.ObservePairs(*p)) observe_ratios.push_back(r);
  }

  // Durations by layer, window and probe apart; engine.map also by tier.
  std::map<std::string, std::vector<double>> window_us, probe_us;
  double root_us = 0.0;
  double child_us = 0.0;
  std::int64_t roots = 0;
  const std::vector<SpanLog::Span>& spans = replayer.log().spans();
  for (const SpanLog::Span& span : spans) {
    const bool in_window =
        replayer.phase(span.request) == ReplayPhase::kWindow;
    if (span.parent < 0) {
      if (in_window && std::string_view(span.name) == "replay.request") {
        root_us += span.micros();
        ++roots;
      }
      continue;
    }
    auto& by_name = in_window ? window_us : probe_us;
    by_name[span.name].push_back(span.micros());
    if (std::string_view(span.name) == "engine.map" && !span.tag.empty()) {
      by_name["engine.map." + span.tag].push_back(span.micros());
    }
    if (in_window &&
        std::string_view(spans[static_cast<std::size_t>(span.parent)].name) ==
            "replay.request") {
      child_us += span.micros();
    }
  }
  // A layer's samples: the window's when it reached the layer, else the
  // probe's.
  const auto samples = [&](const std::string& name) {
    const auto w = window_us.find(name);
    if (w != window_us.end() && !w->second.empty()) return w->second;
    const auto p = probe_us.find(name);
    return p != probe_us.end() ? p->second : std::vector<double>{};
  };
  const auto count = [&](const std::string& name) {
    const auto w = window_us.find(name);
    return w == window_us.end() ? 0.0 : static_cast<double>(w->second.size());
  };

  // DP resources: the window's solves when it had any, else the probe's.
  // Work and pruned cells always come from the first solve of each probe
  // problem, a fixed set, so for a given seed they repeat exactly.
  const bool window_dp = count("core.dp") > 0;
  std::vector<double> user_ms, sys_ms, faults, table_mib;
  std::uint64_t probe_work = 0;
  std::uint64_t probe_pruned = 0;
  for (const DpRecord& r : replayer.dp()) {
    if (r.phase == ReplayPhase::kProbe && r.first) {
      probe_work += r.work;
      probe_pruned += r.pruned;
    }
    if ((r.phase == ReplayPhase::kWindow) != window_dp) continue;
    user_ms.push_back(r.user_ms);
    sys_ms.push_back(r.sys_ms);
    faults.push_back(r.minor_faults);
    table_mib.push_back(r.table_mib);
  }

  const std::string spans_written =
      replayer.log().WriteJsonl(o.spans_path) ? o.spans_path : "";

  pipemap::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(WorkloadName(o.kind));
  w.Key("seed").UInt(o.seed);
  w.Key("window_requests").Int(replayed);
  w.Key("probe_requests").UInt(probe_id);
  w.Key("shadow_mismatches").Int(replayer.shadow_mismatches());
  w.Key("bad_replies").Int(replayer.bad_replies());
  w.Key("spans").String(spans_written);
  w.Key("metrics").BeginObject();
  const auto metric = [&w](const char* name, double value) {
    w.Key(name).Double(value);
  };
  metric("server.frame_read_us", P50(samples("server.frame_read")));
  metric("server.parse_request_us", P50(samples("server.parse_request")));
  metric("server.encode_us", P50(samples("server.encode")));
  metric("io.parse_chain_us", P50(samples("io.parse_chain")));
  metric("io.parse_machine_us", P50(samples("io.parse_machine")));
  metric("engine.fingerprint_us", P50(samples("engine.fingerprint")));
  metric("engine.map_us", P50(samples("engine.map")));
  metric("engine.map_p99_us", P99(samples("engine.map")));
  metric("engine.memory_hit_us", P50(samples("engine.map.memory")));
  metric("engine.disk_hit_us", P50(samples("engine.map.disk")));
  metric("core.evaluator_us", P50(samples("core.evaluator")));
  metric("core.greedy_us", P50(samples("core.greedy")));
  metric("core.dp_us", P50(samples("core.dp")));
  metric("core.dp_p99_us", P99(samples("core.dp")));
  metric("core.dp_calls", count("core.dp"));
  metric("core.dp_user_ms", Mean(user_ms));
  metric("core.dp_sys_ms", Mean(sys_ms));
  metric("core.dp_minor_faults", P50(faults));
  metric("core.dp_table_mb", P50(table_mib));
  metric("core.dp_work", static_cast<double>(probe_work));
  metric("core.dp_pruned_share",
         probe_work + probe_pruned == 0
             ? 0.0
             : static_cast<double>(probe_pruned) /
                   static_cast<double>(probe_work + probe_pruned));
  metric("machine.make_feasible_us", P50(samples("machine.make_feasible")));
  metric("support.observe_overhead", P50(observe_ratios));
  metric("replay.requests", static_cast<double>(roots));
  metric("replay.request_ms", roots == 0 ? 0.0 : root_us / 1e3 / roots);
  metric("replay.unattributed_share",
         root_us == 0.0 ? 0.0 : 1.0 - child_us / root_us);
  w.EndObject();
  w.EndObject();
  std::fputs(w.str().c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace perfbench
