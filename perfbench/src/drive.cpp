// The socket run: the daemon as an operator starts it, driven by
// kCallers closed-loop callers that each wait for their answer before
// sending the next request.
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "answer.h"
#include "commands.h"
#include "daemon.h"
#include "server/client.h"
#include "support/error.h"
#include "support/json_writer.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// The daemon's CPU time and the host's steal are sampled at slice
/// boundaries this far apart.
constexpr double kSliceSeconds = 2.0;
/// cold_dp window requests per caller and second to generate ahead of
/// the loop: comfortably above what the host completes.
constexpr double kColdReservePerSecond = 60.0;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Request `i` of one caller: its problem and trace id, or nullptr when
/// the caller is done.
using NextRequest =
    std::function<const Problem*(std::int64_t i, std::uint64_t* trace_id)>;

struct CallerLog {
  std::vector<const Problem*> problems;
  std::vector<std::uint64_t> trace_ids;
  std::vector<std::string> replies;
  std::vector<double> latency_s;
  std::vector<Clock::time_point> done;
  std::int64_t bytes_sent = 0;
  /// Set when the connection failed; that request counts as failed.
  std::string transport_error;
};

/// One closed-loop caller: sends the next request only after the reply
/// to the previous one has arrived, until `next` runs out or `deadline`
/// passes. Replies are kept and checked after the loop, so checking
/// never delays the next send.
void RunCaller(pipemap::server::ServerClient* client, const NextRequest& next,
               Clock::time_point begin, Clock::time_point deadline,
               CallerLog* log) {
  std::string frame;
  std::this_thread::sleep_until(begin);
  try {
    for (std::int64_t i = 0; Clock::now() < deadline; ++i) {
      std::uint64_t trace_id = 0;
      const Problem* problem = next(i, &trace_id);
      if (problem == nullptr) break;
      frame.assign(problem->payload);
      StampTraceId(&frame, problem->trace_offset, trace_id);
      const Clock::time_point sent = Clock::now();
      std::string reply = client->CallRaw(frame);
      const Clock::time_point done = Clock::now();
      log->latency_s.push_back(Seconds(done - sent));
      log->done.push_back(done);
      log->problems.push_back(problem);
      log->trace_ids.push_back(trace_id);
      log->replies.push_back(std::move(reply));
      log->bytes_sent += static_cast<std::int64_t>(frame.size());
    }
  } catch (const std::exception& e) {
    log->transport_error = e.what();
  }
}

/// Runs one caller thread per entry of `next` on its own connection,
/// from `begin` until `deadline`; `monitor` runs on this thread meanwhile.
/// The callers are joined on every path, a throwing monitor included.
std::vector<CallerLog> RunCallers(
    int port, const std::vector<NextRequest>& next,
    Clock::time_point begin = Clock::time_point::min(),
    Clock::time_point deadline = Clock::time_point::max(),
    const std::function<void()>& monitor = nullptr) {
  std::vector<std::unique_ptr<pipemap::server::ServerClient>> clients;
  for (std::size_t c = 0; c < next.size(); ++c) {
    clients.push_back(
        std::make_unique<pipemap::server::ServerClient>("127.0.0.1", port));
  }
  std::vector<CallerLog> logs(next.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < next.size(); ++c) {
      threads.emplace_back(RunCaller, clients[c].get(), std::cref(next[c]),
                           begin, deadline, &logs[c]);
    }
    if (monitor) monitor();
  }
  return logs;
}

/// Counts set-up replies that are not ok or lost their trace id.
std::int64_t SetupFailures(const std::vector<CallerLog>& logs) {
  std::int64_t failures = 0;
  for (const CallerLog& log : logs) {
    if (!log.transport_error.empty()) ++failures;
    for (std::size_t i = 0; i < log.replies.size(); ++i) {
      if (!CheckReply(log.replies[i], log.trace_ids[i]).empty()) ++failures;
    }
  }
  return failures;
}

/// Solves every fill problem once, one at a time on one connection.
std::int64_t Fill(const Plan& plan, int port) {
  const std::vector<Problem>& fill = plan.fill();
  const NextRequest next = [&plan, &fill](std::int64_t i,
                                          std::uint64_t* trace_id)
      -> const Problem* {
    if (i >= static_cast<std::int64_t>(fill.size())) return nullptr;
    *trace_id = plan.TraceId(Phase::kFill, 0, i);
    return &fill[static_cast<std::size_t>(i)];
  };
  return SetupFailures(RunCallers(port, {next}));
}

NextRequest FromStream(Stream* stream, std::int64_t count) {
  return [stream, count](std::int64_t i,
                         std::uint64_t* trace_id) -> const Problem* {
    if (i >= count) return nullptr;
    *trace_id = stream->TraceId(i);
    return &stream->Get(i);
  };
}

std::string Op(int port, const char* op) {
  pipemap::server::ServerClient client("127.0.0.1", port);
  pipemap::server::ServerRequest request;
  request.op = op;
  return client.Call(request);
}

/// Launches the daemon (default workers and queue, access log on) and
/// brings it to the state the timed window starts from: the fill
/// problems solved, then each caller's warm-up sent. `failures` counts
/// set-up replies that went wrong.
std::unique_ptr<Daemon> SetUp(const Plan& plan, const DriveOptions& o, int k,
                              std::vector<Stream>* warmup,
                              std::int64_t* failures) {
  const std::string tag = std::to_string(k);
  auto daemon = std::make_unique<Daemon>(
      o.server,
      std::vector<std::string>{"--access-log",
                               o.work_dir + "/access-" + tag + ".log"},
      o.work_dir + "/server-" + tag + ".stderr");
  if (!plan.fill().empty()) *failures += Fill(plan, daemon->port());
  std::vector<NextRequest> next;
  for (Stream& stream : *warmup) {
    next.push_back(FromStream(&stream, plan.warmup_requests()));
  }
  *failures += SetupFailures(RunCallers(daemon->port(), next));
  return daemon;
}

/// The daemon's CPU seconds and this machine's CPU ticks, `at_s` seconds
/// into the window.
struct WindowSample {
  double at_s = 0.0;
  double server_cpu_s = 0.0;
  HostCpuTicks host;
};

WindowSample Sample(pid_t pid, Clock::time_point start) {
  WindowSample sample;
  sample.at_s = Seconds(Clock::now() - start);
  sample.server_cpu_s = ProcessCpuSeconds(pid);
  sample.host = ReadHostCpuTicks();
  return sample;
}

/// Solves a reference for every key of `references` on `threads` threads
/// (the daemon is stopped by then).
void SolveReferences(std::unordered_map<const Problem*, std::string>* references,
                     int threads_count) {
  std::vector<std::pair<const Problem*, std::string*>> work;
  for (auto& [problem, mapping] : *references) work.emplace_back(problem, &mapping);
  const auto stride = static_cast<std::size_t>(threads_count);
  std::vector<std::thread> threads;
  std::vector<std::string> errors(stride);
  for (std::size_t t = 0; t < stride; ++t) {
    threads.emplace_back([&work, &errors, t, stride] {
      try {
        for (std::size_t i = t; i < work.size(); i += stride) {
          *work[i].second = ReferenceMapping(work[i].first->payload);
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw pipemap::Error("reference solve failed: " + e);
  }
}

}  // namespace

int Drive(const DriveOptions& o) {
  const Plan plan(o.kind, o.seed);
  std::vector<Stream> warmup, window;
  for (int c = 0; c < kCallers; ++c) {
    warmup.emplace_back(plan, Phase::kWarmup, c);
    warmup.back().Reserve(plan.warmup_requests());
    window.emplace_back(plan, Phase::kWindow, c);
    if (o.kind == WorkloadKind::kColdDp) {
      window.back().Reserve(
          static_cast<std::int64_t>(o.seconds * kColdReservePerSecond));
    }
  }

  // Set-up time runs from launching the daemon to the start of the timed
  // window. It is taken o.setups times on fresh daemons before the window
  // (the last one serves it) and o.setups times after it, so that it
  // samples the host at both ends of the run, each time with the host's
  // steal share over it.
  std::vector<double> setup_s, setup_steal;
  std::int64_t setup_failures = 0;
  const auto timed_setup = [&](int k) {
    const HostCpuTicks host = ReadHostCpuTicks();
    const Clock::time_point launch = Clock::now();
    std::unique_ptr<Daemon> daemon =
        SetUp(plan, o, k, &warmup, &setup_failures);
    setup_s.push_back(Seconds(Clock::now() - launch));
    setup_steal.push_back(StealShare(host, ReadHostCpuTicks()));
    return daemon;
  };
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < o.setups; ++k) {
    if (daemon && !daemon->Stop()) ++setup_failures;
    daemon = timed_setup(k);
  }

  const int port = daemon->port();
  const std::string stats_before = Op(port, "stats");
  const std::string metrics_before = Op(port, "metrics");
  std::vector<NextRequest> next;
  for (Stream& stream : window) {
    next.push_back(FromStream(&stream, std::numeric_limits<std::int64_t>::max()));
  }
  // The window runs from `start` until the last caller has its last
  // reply. The daemon's CPU time and this machine's CPU ticks are sampled
  // at every slice boundary and once more at the end.
  const pid_t pid = daemon->pid();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  std::vector<WindowSample> samples;
  std::vector<CallerLog> logs =
      RunCallers(port, next, start, at(o.seconds), [&] {
        for (double s = 0.0; s <= o.seconds + 1e-9; s += kSliceSeconds) {
          std::this_thread::sleep_until(at(s));
          samples.push_back(Sample(pid, start));
        }
      });
  samples.push_back(Sample(pid, start));
  const long peak_rss_kib = PeakRssKiB(daemon->pid());
  const std::string metrics_after = Op(port, "metrics");
  const std::string stats_after = Op(port, "stats");
  const bool daemon_exit_ok = daemon->Stop();
  daemon.reset();
  for (int k = o.setups; k < 2 * o.setups; ++k) {
    if (!timed_setup(k)->Stop()) ++setup_failures;
  }

  // The answer check, outside the timed window.
  std::unordered_map<const Problem*, std::string> references;
  for (int c = 0; c < kCallers; ++c) {
    const CallerLog& log = logs[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < log.problems.size(); ++i) {
      const bool fresh =
          plan.Draw(Phase::kWindow, c, static_cast<std::int64_t>(i)) < 0;
      if (!fresh || plan.ChecksFresh(static_cast<std::int64_t>(i))) {
        references.emplace(log.problems[i], std::string());
      }
    }
  }
  // A P=128 DP holds hundreds of MB, so cold_dp solves two at a time.
  SolveReferences(&references, o.kind == WorkloadKind::kColdDp ? 2 : 4);

  std::int64_t attempted = 0;
  std::map<std::string, std::int64_t> failures;
  std::vector<bool> passed;
  std::int64_t bytes_sent = 0;
  for (const CallerLog& log : logs) {
    bytes_sent += log.bytes_sent;
    if (!log.transport_error.empty()) {
      ++attempted;
      ++failures["transport: " + log.transport_error];
    }
    for (std::size_t i = 0; i < log.replies.size(); ++i) {
      ++attempted;
      const auto ref = references.find(log.problems[i]);
      const std::string failure =
          CheckAnswer(log.replies[i], log.trace_ids[i],
                      ref == references.end() ? nullptr : &ref->second);
      passed.push_back(failure.empty());
      if (!failure.empty()) ++failures[failure];
    }
  }
  std::int64_t failed = 0;
  for (const auto& [reason, count] : failures) failed += count;

  pipemap::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(WorkloadName(o.kind));
  w.Key("seed").UInt(o.seed);
  w.Key("setup_s").BeginArray();
  for (const double s : setup_s) w.Double(s);
  w.EndArray();
  w.Key("setup_steal_share").BeginArray();
  for (const double s : setup_steal) w.Double(s);
  w.EndArray();
  w.Key("setup_failures").Int(setup_failures);
  w.Key("requests_per_caller").BeginArray();
  for (const CallerLog& log : logs) {
    w.Int(static_cast<std::int64_t>(log.replies.size()));
  }
  w.EndArray();
  w.Key("attempted").Int(attempted);
  w.Key("failed").Int(failed);
  w.Key("failures").BeginObject();
  for (const auto& [reason, count] : failures) w.Key(reason).Int(count);
  w.EndObject();
  w.Key("references").UInt(references.size());
  w.Key("request_bytes").Int(bytes_sent);
  // Per window request, in caller order: completion time from the
  // window start, round trip, and whether it passed the answer check. Per
  // sample: seconds from the window start, the daemon's CPU seconds, and
  // this machine's busy and stolen CPU ticks.
  w.Key("window").BeginObject();
  w.Key("done_s").BeginArray();
  for (const CallerLog& log : logs) {
    for (const Clock::time_point t : log.done) w.Double(Seconds(t - start));
  }
  w.EndArray();
  w.Key("latency_ms").BeginArray();
  for (const CallerLog& log : logs) {
    for (const double s : log.latency_s) w.Double(s * 1e3);
  }
  w.EndArray();
  w.Key("passed").BeginArray();
  for (const bool p : passed) w.Int(p ? 1 : 0);
  w.EndArray();
  w.Key("samples").BeginArray();
  for (const WindowSample& sample : samples) {
    w.BeginArray()
        .Double(sample.at_s)
        .Double(sample.server_cpu_s)
        .Double(sample.host.busy)
        .Double(sample.host.steal)
        .EndArray();
  }
  w.EndArray();
  w.EndObject();
  w.Key("server").BeginObject();
  w.Key("peak_rss_kib").Int(peak_rss_kib);
  w.Key("exit_ok").Bool(daemon_exit_ok);
  w.EndObject();
  w.Key("stats_before").Raw(stats_before);
  w.Key("stats_after").Raw(stats_after);
  w.Key("metrics_before").Raw(metrics_before);
  w.Key("metrics_after").Raw(metrics_after);
  w.EndObject();
  std::fputs(w.str().c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace perfbench
