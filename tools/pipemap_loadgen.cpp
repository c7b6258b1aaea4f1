// pipemap_loadgen: concurrent load generator for pipemap_server.
//
// Opens N connections, each driven by its own thread issuing requests
// drawn from a small set of synthetic problems with a configurable
// hot-key skew (a high --skew exercises the shared solution cache the
// way a production mix would). Every response is checked against the
// strict JSON validator; the exit status is the contract the CI smoke
// test asserts: 0 only when every connection got a well-formed response
// for every request AND every response echoed the trace id it was sent.
//
// Trace propagation: every request carries a generated trace_id
// (support/trace_context.h); the worker verifies the response echoes it
// back, so the loadgen doubles as an end-to-end test of the server's
// trace-id plumbing. --trace-ids dumps every id sent (one hex id
// per line) for joining against the server's access log.
//
// Output: one JSON summary on stdout — requests/s, latency percentiles
// overall and per op, ok/error/malformed/trace-mismatch counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.h"
#include "server/client.h"
#include "server/protocol.h"
#include "support/json_verify.h"
#include "support/json_writer.h"
#include "support/parse.h"
#include "support/trace_context.h"
#include "workloads/synthetic.h"

namespace {

using Clock = std::chrono::steady_clock;

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 8;
  int requests = 20;  // per connection
  int variants = 4;   // distinct problems in the mix
  double skew = 0.0;  // probability of picking the hot variant
  double deadline_s = 0.0;
  int seed = 42;
  /// "map", "ping", or "mix" (map-dominated with ping and stats mixed in).
  std::string op = "map";
  /// When non-empty: write every trace id sent, one 16-hex-digit id per
  /// line, for joining against the server's access log.
  std::string trace_ids_path;
  /// When non-empty: issue one `metrics` op after the run and write the
  /// raw JSON response here (the exposition scrape CI validates).
  std::string scrape_metrics_path;
  /// When non-empty: issue one `stats` op after the run and write the raw
  /// JSON response here (the restart-warm smoke reads cache/persist/
  /// single-flight counters out of it).
  std::string scrape_stats_path;
  /// Per-connection budget of transport-level retries (failed connects,
  /// connections dying mid-call). Each retry reconnects after a jittered
  /// exponential backoff; only a request that exhausts the budget counts
  /// as a transport error. 0 restores fail-on-first-error.
  int retries = 3;
};

struct WorkerResult {
  std::vector<double> latencies_s;
  /// Parallel to latencies_s: which op each latency belongs to.
  std::vector<std::string> ops;
  std::vector<std::uint64_t> trace_ids_sent;
  std::uint64_t ok = 0;
  std::uint64_t server_errors = 0;  // well-formed {"ok": false, ...}
  std::uint64_t malformed = 0;      // invalid JSON or missing ok field
  std::uint64_t transport_errors = 0;
  /// Responses that did not echo the trace id they were sent.
  std::uint64_t trace_mismatches = 0;
  /// Transport-level retry attempts (reconnect + resend).
  std::uint64_t retries = 0;
  /// Well-formed `overloaded` shed responses (⊆ server_errors).
  std::uint64_t shed = 0;
  /// ok responses flagged degraded: true (brownout fidelity).
  std::uint64_t degraded = 0;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: pipemap_loadgen --port N [--host ADDR] [--connections N]\n"
      "                       [--requests N] [--variants N] [--skew X]\n"
      "                       [--deadline S] [--seed N]\n"
      "                       [--op map|ping|mix] [--retries N]\n"
      "                       [--trace-ids FILE] [--scrape-metrics FILE]\n"
      "                       [--scrape-stats FILE]\n"
      "\n"
      "Drives N concurrent connections, --requests requests each, and\n"
      "validates every response against a strict JSON parser. Every\n"
      "request carries a generated trace_id; the response must echo it.\n"
      "Exits 0 only when zero responses were malformed or mismatched and\n"
      "every connection completed; the summary JSON goes to stdout.\n"
      "--op mix sends a map-dominated mix with ping and stats requests.\n"
      "--trace-ids writes one hex trace id per line (for joining against\n"
      "the server's access log); --scrape-metrics issues one metrics op\n"
      "after the run and saves the raw JSON response; --scrape-stats does\n"
      "the same with a stats op (cache hit/persist/single-flight counters\n"
      "for the restart-warm smoke). --retries bounds per-connection\n"
      "transport retries (jittered exponential backoff + reconnect);\n"
      "retried-then-successful requests do not fail the run.\n");
  return 2;
}

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// The request mix: `variants` distinct problems, serialized once. The
/// hot variant (index 0) is picked with probability `skew`, the rest
/// uniformly — so skew 0.9 reproduces a cache-friendly production mix
/// and skew 0 a cache-hostile one.
struct ProblemMix {
  std::vector<std::string> chains;
  std::vector<std::string> machines;

  explicit ProblemMix(const LoadgenOptions& options) {
    for (int v = 0; v < options.variants; ++v) {
      pipemap::workloads::SyntheticSpec spec;
      spec.num_tasks = 4 + (v % 3);
      spec.machine_procs = 16;
      spec.mean_work_s = 0.05 * (1 + v);
      const pipemap::Workload workload =
          pipemap::workloads::MakeSynthetic(
              spec, static_cast<std::uint64_t>(options.seed + v));
      chains.push_back(pipemap::SerializeChain(
          workload.chain, workload.machine.total_procs()));
      machines.push_back(pipemap::SerializeMachine(workload.machine));
    }
  }

  int Pick(std::mt19937_64& rng, double skew) const {
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    if (chains.size() == 1 || uniform(rng) < skew) return 0;
    std::uniform_int_distribution<int> rest(
        1, static_cast<int>(chains.size()) - 1);
    return rest(rng);
  }
};

/// The op for one request. "mix" is map-dominated (80%) with ping (10%)
/// and stats (10%) riding along, so a single run exercises the solver
/// path, the cheap path, and the introspection path together.
std::string PickOp(const LoadgenOptions& options, std::mt19937_64& rng) {
  if (options.op != "mix") return options.op;
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double r = uniform(rng);
  if (r < 0.8) return "map";
  if (r < 0.9) return "ping";
  return "stats";
}

/// True when `response` echoes exactly `trace_id` (as the 16-hex-digit
/// string the server formats). Substring match is safe: the value is
/// quoted and the key appears once per response document.
bool EchoesTraceId(const std::string& response, std::uint64_t trace_id) {
  const std::string needle =
      "\"trace_id\": \"" + pipemap::FormatTraceId(trace_id) + "\"";
  return response.find(needle) != std::string::npos;
}

WorkerResult RunWorker(const LoadgenOptions& options, const ProblemMix& mix,
                       int worker_index) {
  WorkerResult result;
  std::mt19937_64 rng(static_cast<std::uint64_t>(options.seed) * 1000003u +
                      static_cast<std::uint64_t>(worker_index));
  // Jittered exponential backoff: 10ms * 2^attempt scaled by a uniform
  // [0.5, 1.5) draw from the worker's deterministic rng, capped at
  // 500ms so a retry burst cannot stall the run.
  const auto backoff = [&rng](int attempt) {
    std::uniform_real_distribution<double> jitter(0.5, 1.5);
    const double base_ms = 10.0 * static_cast<double>(1 << std::min(attempt, 6));
    const double delay_ms = std::min(base_ms * jitter(rng), 500.0);
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(delay_ms * 1e3)));
  };
  int budget = options.retries;  // per connection, across all its requests
  std::unique_ptr<pipemap::server::ServerClient> client;
  for (int i = 0; i < options.requests; ++i) {
    pipemap::server::ServerRequest request;
    request.op = PickOp(options, rng);
    request.deadline_s = options.deadline_s;
    request.trace_id = pipemap::GenerateTraceId();
    if (request.op == "map") {
      const int variant = mix.Pick(rng, options.skew);
      request.chain_text = mix.chains[variant];
      request.machine_text = mix.machines[variant];
      request.has_chain = true;
      request.has_machine = true;
      request.algorithm = "auto";
    }
    // Transport retry loop: a failed connect or a connection dying
    // mid-call reconnects and resends the same request (same trace_id)
    // until the per-connection budget runs out. Only budget exhaustion
    // counts as a transport error.
    std::string response;
    bool sent = false;
    int attempt = 0;
    double latency_s = 0.0;
    while (!sent) {
      try {
        if (!client) {
          client = std::make_unique<pipemap::server::ServerClient>(
              options.host, options.port);
        }
        const Clock::time_point start = Clock::now();
        response = client->Call(request);
        latency_s =
            std::chrono::duration<double>(Clock::now() - start).count();
        sent = true;
      } catch (const std::exception&) {
        client.reset();  // dead either way; a retry gets a fresh socket
        if (budget <= 0) break;
        --budget;
        ++result.retries;
        backoff(attempt++);
      }
    }
    if (!sent) {
      ++result.transport_errors;
      break;  // budget exhausted; other workers keep going
    }
    result.latencies_s.push_back(latency_s);
    result.ops.push_back(request.op);
    result.trace_ids_sent.push_back(request.trace_id);
    if (!pipemap::IsValidJson(response)) {
      ++result.malformed;
    } else if (response.find("\"ok\": true") != std::string::npos) {
      ++result.ok;
      if (response.find("\"degraded\": true") != std::string::npos) {
        ++result.degraded;
      }
    } else if (response.find("\"ok\": false") != std::string::npos) {
      ++result.server_errors;
      if (response.find("\"code\": \"overloaded\"") != std::string::npos) {
        ++result.shed;
      }
    } else {
      ++result.malformed;  // valid JSON but not a protocol response
    }
    if (!EchoesTraceId(response, request.trace_id)) {
      ++result.trace_mismatches;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  const std::vector<std::string> args(argv + 1, argv + argc);
  bool saw_port = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "pipemap_loadgen: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return args[++i];
    };
    const auto checked_int = [&](const std::string& text) {
      const std::optional<int> v = pipemap::TryParseInt(text);
      if (!v) {
        std::fprintf(stderr, "pipemap_loadgen: %s needs an integer, got"
                     " '%s'\n", arg.c_str(), text.c_str());
        std::exit(2);
      }
      return *v;
    };
    const auto checked_double = [&](const std::string& text) {
      const std::optional<double> v = pipemap::TryParseDouble(text);
      if (!v) {
        std::fprintf(stderr, "pipemap_loadgen: %s needs a number, got"
                     " '%s'\n", arg.c_str(), text.c_str());
        std::exit(2);
      }
      return *v;
    };
    if (arg == "--host") {
      options.host = value();
    } else if (arg == "--port") {
      options.port = checked_int(value());
      saw_port = true;
    } else if (arg == "--connections") {
      options.connections = checked_int(value());
    } else if (arg == "--requests") {
      options.requests = checked_int(value());
    } else if (arg == "--variants") {
      options.variants = std::max(1, checked_int(value()));
    } else if (arg == "--skew") {
      options.skew = checked_double(value());
    } else if (arg == "--deadline") {
      options.deadline_s = checked_double(value());
    } else if (arg == "--seed") {
      options.seed = checked_int(value());
    } else if (arg == "--op") {
      options.op = value();
    } else if (arg == "--retries") {
      options.retries = std::max(0, checked_int(value()));
    } else if (arg == "--trace-ids") {
      options.trace_ids_path = value();
    } else if (arg == "--scrape-metrics") {
      options.scrape_metrics_path = value();
    } else if (arg == "--scrape-stats") {
      options.scrape_stats_path = value();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "pipemap_loadgen: unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }
  if (!saw_port || options.port <= 0) {
    std::fprintf(stderr, "pipemap_loadgen: --port is required\n");
    return Usage();
  }
  if (options.op != "map" && options.op != "ping" && options.op != "mix") {
    std::fprintf(stderr, "pipemap_loadgen: --op must be map, ping, or mix\n");
    return Usage();
  }

  const ProblemMix mix(options);
  std::vector<WorkerResult> results(
      static_cast<std::size_t>(options.connections));
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] { results[c] = RunWorker(options, mix, c); });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start)
                             .count();

  WorkerResult total;
  std::map<std::string, std::vector<double>> per_op;
  for (const WorkerResult& r : results) {
    total.ok += r.ok;
    total.server_errors += r.server_errors;
    total.malformed += r.malformed;
    total.transport_errors += r.transport_errors;
    total.trace_mismatches += r.trace_mismatches;
    total.retries += r.retries;
    total.shed += r.shed;
    total.degraded += r.degraded;
    total.latencies_s.insert(total.latencies_s.end(), r.latencies_s.begin(),
                             r.latencies_s.end());
    total.trace_ids_sent.insert(total.trace_ids_sent.end(),
                                r.trace_ids_sent.begin(),
                                r.trace_ids_sent.end());
    for (std::size_t i = 0; i < r.latencies_s.size(); ++i) {
      per_op[r.ops[i]].push_back(r.latencies_s[i]);
    }
  }
  std::sort(total.latencies_s.begin(), total.latencies_s.end());
  const std::uint64_t completed =
      static_cast<std::uint64_t>(total.latencies_s.size());

  if (!options.trace_ids_path.empty()) {
    if (std::FILE* f = std::fopen(options.trace_ids_path.c_str(), "w")) {
      for (const std::uint64_t id : total.trace_ids_sent) {
        const std::string line = pipemap::FormatTraceId(id) + "\n";
        std::fwrite(line.data(), 1, line.size(), f);
      }
      std::fclose(f);
    } else {
      std::fprintf(stderr, "pipemap_loadgen: cannot write %s\n",
                   options.trace_ids_path.c_str());
      return 1;
    }
  }

  // Scrapes run on a fresh connection, after the load is done, so the
  // snapshot covers the whole run.
  bool scrape_failed = false;
  const auto scrape = [&](const char* op, const std::string& path) {
    if (path.empty()) return;
    bool failed = false;
    try {
      pipemap::server::ServerClient client(options.host, options.port);
      pipemap::server::ServerRequest request;
      request.op = op;
      request.trace_id = pipemap::GenerateTraceId();
      const std::string response = client.Call(request);
      if (!pipemap::IsValidJson(response) ||
          response.find("\"ok\": true") == std::string::npos) {
        failed = true;
      }
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fwrite(response.data(), 1, response.size(), f);
        std::fclose(f);
      } else {
        failed = true;
      }
    } catch (const std::exception&) {
      failed = true;
    }
    if (failed) {
      std::fprintf(stderr, "pipemap_loadgen: %s scrape failed\n", op);
      scrape_failed = true;
    }
  };
  scrape("metrics", options.scrape_metrics_path);
  scrape("stats", options.scrape_stats_path);

  pipemap::JsonWriter w;
  w.BeginObject();
  w.Key("connections").Int(options.connections);
  w.Key("requests_per_connection").Int(options.requests);
  w.Key("op").String(options.op);
  w.Key("skew").Double(options.skew);
  w.Key("completed").UInt(completed);
  w.Key("ok").UInt(total.ok);
  w.Key("server_errors").UInt(total.server_errors);
  w.Key("malformed").UInt(total.malformed);
  w.Key("transport_errors").UInt(total.transport_errors);
  w.Key("trace_mismatches").UInt(total.trace_mismatches);
  w.Key("retries").UInt(total.retries);
  w.Key("shed").UInt(total.shed);
  w.Key("degraded").UInt(total.degraded);
  w.Key("elapsed_s").Double(elapsed);
  w.Key("requests_per_s")
      .Double(elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0);
  w.Key("latency_ms").BeginObject();
  w.Key("p50").Double(Percentile(total.latencies_s, 0.50) * 1e3);
  w.Key("p95").Double(Percentile(total.latencies_s, 0.95) * 1e3);
  w.Key("p99").Double(Percentile(total.latencies_s, 0.99) * 1e3);
  w.EndObject();
  w.Key("per_op").BeginObject();
  for (auto& [op_name, latencies] : per_op) {
    std::sort(latencies.begin(), latencies.end());
    w.Key(op_name).BeginObject();
    w.Key("count").UInt(static_cast<std::uint64_t>(latencies.size()));
    w.Key("p50_ms").Double(Percentile(latencies, 0.50) * 1e3);
    w.Key("p95_ms").Double(Percentile(latencies, 0.95) * 1e3);
    w.Key("p99_ms").Double(Percentile(latencies, 0.99) * 1e3);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::fputs(w.str().c_str(), stdout);

  const std::uint64_t expected = static_cast<std::uint64_t>(
      options.connections) * static_cast<std::uint64_t>(options.requests);
  if (total.malformed > 0 || total.transport_errors > 0 ||
      total.trace_mismatches > 0 || completed != expected || scrape_failed) {
    return 1;
  }
  return 0;
}
