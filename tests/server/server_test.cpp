// End-to-end server tests: a real PipemapServer on an ephemeral loopback
// port, driven over real sockets. These pin the acceptance criteria of
// the server layer — concurrent connections all get well-formed JSON,
// hostile frames get error responses without killing the connection,
// per-request deadlines are honored (late solves return flagged
// incumbents, they never hang), a full admission queue rejects cleanly,
// and Drain stops the world without stranding a client.
#include "server/server.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>

#include "core/evaluator.h"
#include "engine/mapping_engine.h"
#include "gtest/gtest.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "server/client.h"
#include "support/chaos.h"
#include "support/error.h"
#include "support/json_verify.h"
#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/prometheus.h"
#include "support/trace_context.h"
#include "support/tracer.h"
#include "workloads/synthetic.h"

namespace pipemap::server {
namespace {

struct Problem {
  std::string chain_text;
  std::string machine_text;
};

/// A small solvable problem (fast) or a larger one (slow enough for a
/// deadline to bite mid-solve).
Problem MakeProblem(int num_tasks, int procs, std::uint64_t seed = 1) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = num_tasks;
  spec.machine_procs = procs;
  const Workload workload = workloads::MakeSynthetic(spec, seed);
  return Problem{
      SerializeChain(workload.chain, workload.machine.total_procs()),
      SerializeMachine(workload.machine)};
}

ServerRequest MapRequestFor(const Problem& problem) {
  ServerRequest request;
  request.op = "map";
  request.algorithm = "auto";
  request.chain_text = problem.chain_text;
  request.machine_text = problem.machine_text;
  request.has_chain = true;
  request.has_machine = true;
  return request;
}

/// Every response must be a valid JSON document; returns it for content
/// checks.
std::string CheckedCall(ServerClient& client, const ServerRequest& request) {
  const std::string response = client.Call(request);
  std::string error;
  EXPECT_TRUE(IsValidJson(response, &error)) << error << "\n" << response;
  return response;
}

bool IsOk(const std::string& response) {
  return response.find("\"ok\": true") != std::string::npos;
}

/// A server with its own engine (no cross-test cache pollution).
struct TestServer {
  explicit TestServer(ServerConfig config = {}) {
    config.engine = &engine;
    server = std::make_unique<PipemapServer>(std::move(config));
    server->Start();
  }
  ServerClient Connect() { return ServerClient("127.0.0.1", server->port()); }

  MappingEngine engine;
  std::unique_ptr<PipemapServer> server;
};

TEST(ServerTest, PingAndStats) {
  TestServer ts;
  ServerClient client = ts.Connect();
  ServerRequest ping;
  ping.op = "ping";
  EXPECT_TRUE(IsOk(CheckedCall(client, ping)));

  ServerRequest stats;
  stats.op = "stats";
  const std::string response = CheckedCall(client, stats);
  EXPECT_TRUE(IsOk(response));
  EXPECT_NE(response.find("\"queue_capacity\""), std::string::npos);
  EXPECT_NE(response.find("\"cache\""), std::string::npos);
}

TEST(ServerTest, MapSolvesAndSharesTheCacheAcrossConnections) {
  TestServer ts;
  const Problem problem = MakeProblem(4, 8);
  const ServerRequest request = MapRequestFor(problem);

  ServerClient first = ts.Connect();
  const std::string cold = CheckedCall(first, request);
  EXPECT_TRUE(IsOk(cold));
  EXPECT_NE(cold.find("\"mapping\""), std::string::npos);
  EXPECT_NE(cold.find("\"cache_hit\": false"), std::string::npos);

  // A different connection hits the same process-wide cache.
  ServerClient second = ts.Connect();
  const std::string warm = CheckedCall(second, request);
  EXPECT_TRUE(IsOk(warm));
  EXPECT_NE(warm.find("\"cache_hit\": true"), std::string::npos);
}

TEST(ServerTest, SolveIsByteIdenticalToADirectEngineSolve) {
  const Problem problem = MakeProblem(4, 8);
  TestServer ts;
  ServerClient client = ts.Connect();
  ServerRequest request = MapRequestFor(problem);
  request.trace_id = GenerateTraceId();
  const std::string response = CheckedCall(client, request);
  ASSERT_TRUE(IsOk(response));

  // Replicate the handler's solve on a fresh engine with no server in the
  // path. The deterministic solver must produce the same mapping, and the
  // response the served mapping's objective, rendered byte-for-byte the
  // way the response renders them.
  const TaskChain chain = ParseChain(problem.chain_text);
  const MachineConfig machine = ParseMachine(problem.machine_text);
  MapRequest mr;
  mr.chain = &chain;
  mr.machine = machine;
  mr.total_procs = machine.total_procs();
  mr.options.num_threads = request.threads;
  mr.use_cache = request.use_cache;
  mr.solver = SolverPolicy::kAuto;
  mr.objective = MapObjective::kThroughput;

  MappingEngine direct_engine;
  const MapResponse direct = direct_engine.Map(mr);
  const Evaluator eval(chain, mr.total_procs, machine.node_memory_bytes,
                       request.threads);
  const Mapping mapping =
      FeasibilityChecker(machine).MakeFeasible(direct.mapping, eval);

  std::string mapping_fragment = "\"mapping\": ";
  JsonWriter::AppendEscaped(mapping_fragment, SerializeMapping(mapping));
  EXPECT_NE(response.find(mapping_fragment), std::string::npos) << response;

  std::string objective_fragment = "\"objective_value\": ";
  JsonWriter::AppendDouble(objective_fragment, eval.BottleneckResponse(mapping));
  EXPECT_NE(response.find(objective_fragment), std::string::npos) << response;

  std::string solver_fragment = "\"solver\": ";
  JsonWriter::AppendEscaped(solver_fragment, direct.solver);
  EXPECT_NE(response.find(solver_fragment), std::string::npos) << response;
}

TEST(ServerTest, MapResponseNumbersDescribeTheServedMapping) {
  // A cold_dp-shaped request (k=10, P=128) whose engine mapping does not
  // pack on the machine's grid: MakeFeasible sheds replicas, and the
  // served mapping is slower than the engine's (39.15 against 47.45 data
  // sets/s).
  constexpr int kProcs = 128;
  workloads::SyntheticSpec spec;
  spec.num_tasks = 10;
  spec.machine_procs = kProcs;
  const Workload workload = workloads::MakeSynthetic(spec, 20261119);
  TestServer ts;
  ServerClient client = ts.Connect();
  ServerRequest request = MapRequestFor(
      Problem{SerializeChain(workload.chain, kProcs),
              SerializeMachine(workload.machine)});
  request.procs = kProcs;
  request.use_cache = false;
  const std::string response = CheckedCall(client, request);
  ASSERT_TRUE(IsOk(response));

  const TaskChain chain = ParseChain(request.chain_text);
  const MachineConfig machine = ParseMachine(request.machine_text);
  const Evaluator eval(chain, kProcs, machine.node_memory_bytes,
                       request.threads);
  MapRequest mr;
  mr.chain = &chain;
  mr.machine = machine;
  mr.total_procs = kProcs;
  mr.options.num_threads = request.threads;
  mr.use_cache = false;
  mr.eval = &eval;
  const MapResponse direct = MappingEngine().Map(mr);
  const Mapping served =
      FeasibilityChecker(machine).MakeFeasible(direct.mapping, eval);
  ASSERT_NE(SerializeMapping(served), SerializeMapping(direct.mapping));

  std::string mapping_fragment = "\"mapping\": ";
  JsonWriter::AppendEscaped(mapping_fragment, SerializeMapping(served));
  EXPECT_NE(response.find(mapping_fragment), std::string::npos) << response;

  std::string throughput_fragment = "\"throughput\": ";
  JsonWriter::AppendDouble(throughput_fragment, eval.Throughput(served));
  EXPECT_NE(response.find(throughput_fragment), std::string::npos) << response;
  std::string objective_fragment = "\"objective_value\": ";
  JsonWriter::AppendDouble(objective_fragment, eval.BottleneckResponse(served));
  EXPECT_NE(response.find(objective_fragment), std::string::npos) << response;
  std::string latency_fragment = "\"latency\": ";
  JsonWriter::AppendDouble(latency_fragment, eval.Latency(served));
  EXPECT_NE(response.find(latency_fragment), std::string::npos) << response;
}

TEST(ServerTest, SimulateAndReportAreUnknownOps) {
  TestServer ts;
  ServerClient client = ts.Connect();
  for (const char* op : {"simulate", "report"}) {
    ServerRequest request = MapRequestFor(MakeProblem(4, 8));
    request.op = op;
    const std::string response = CheckedCall(client, request);
    EXPECT_NE(response.find("\"code\": \"invalid_argument\""),
              std::string::npos)
        << response;
    EXPECT_NE(response.find(std::string("unknown op: ") + op),
              std::string::npos)
        << response;
  }
  // The connection survives and still solves.
  EXPECT_TRUE(IsOk(CheckedCall(client, MapRequestFor(MakeProblem(4, 8)))));
}

TEST(ServerTest, HugeGridsAreAnsweredAtTheMappingsCost) {
  // Wire grids with areas near INT_MAX: the feasibility check after the
  // solve sizes nothing by the grid, so a tall grid wraps no int loop
  // into a division by zero and a wide one asks for no 8 GiB skyline or
  // link array.
  TestServer ts;
  ServerClient client = ts.Connect();
  const Problem problem = MakeProblem(4, 64);
  const auto request_on = [&](int rows, int cols, CommMode mode) {
    MachineConfig machine = ParseMachine(problem.machine_text);
    machine.grid_rows = rows;
    machine.grid_cols = cols;
    machine.comm_mode = mode;
    ServerRequest request = MapRequestFor(problem);
    request.machine_text = SerializeMachine(machine);
    request.procs = 64;
    request.use_cache = false;
    return request;
  };
  const int kIntMax = std::numeric_limits<int>::max();
  const struct {
    int rows, cols;
    CommMode mode;
  } hostile[] = {{kIntMax, 1, CommMode::kMessage},
                 {kIntMax, 1, CommMode::kSystolic},
                 {1, kIntMax, CommMode::kMessage},
                 {40000, 50000, CommMode::kSystolic}};
  for (const auto& grid : hostile) {
    const std::string response =
        CheckedCall(client, request_on(grid.rows, grid.cols, grid.mode));
    EXPECT_TRUE(IsOk(response)) << grid.rows << "x" << grid.cols << " "
                                << ToString(grid.mode) << ": " << response;
  }
  // An area past INT_MAX does not fit total_procs(): refused at parse.
  const std::string overflow =
      CheckedCall(client, request_on(65536, 65537, CommMode::kMessage));
  EXPECT_NE(overflow.find("\"code\": \"invalid_argument\""),
            std::string::npos)
      << overflow;
  EXPECT_NE(overflow.find("grid area must fit an int"), std::string::npos)
      << overflow;

  EXPECT_TRUE(IsOk(CheckedCall(client, request_on(8, 8, CommMode::kMessage))));
}

TEST(ServerTest, HostileFramesGetErrorsAndTheConnectionSurvives) {
  ServerConfig config;
  config.max_frame_bytes = 4096;
  TestServer ts(std::move(config));
  ServerClient client = ts.Connect();

  // Garbage payload: error response, connection stays usable.
  std::string response = client.CallRaw("not a request at all");
  EXPECT_TRUE(IsValidJson(response));
  EXPECT_NE(response.find("\"code\": \"invalid_argument\""),
            std::string::npos);

  // Hostile bytes inside a section: the error detail must still be valid
  // JSON (the escaper sanitizes whatever the parser echoes back).
  std::string hostile = "pipemap-server v1\nop \x01\xff\xc0\xaf\nend\n";
  response = client.CallRaw(hostile);
  EXPECT_TRUE(IsValidJson(response));

  // Oversized frame: refused, drained, connection still aligned.
  response = client.CallRaw(std::string(16 * 1024, 'x'));
  EXPECT_TRUE(IsValidJson(response));
  EXPECT_NE(response.find("\"code\": \"frame_too_large\""),
            std::string::npos);

  // After all that abuse, a normal request still works.
  ServerRequest ping;
  ping.op = "ping";
  EXPECT_TRUE(IsOk(CheckedCall(client, ping)));
}

TEST(ServerTest, NegativeFloorIsRejectedAndZeroMeansPlainLatency) {
  TestServer ts;
  ServerClient client = ts.Connect();
  ServerRequest request = MapRequestFor(MakeProblem(4, 8));
  request.objective = "latency";
  request.floor = -1.0;
  const std::string rejected = CheckedCall(client, request);
  EXPECT_NE(rejected.find("\"code\": \"invalid_argument\""),
            std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find("floor must be finite and >= 0"), std::string::npos)
      << rejected;

  request.floor = 0.0;
  EXPECT_TRUE(IsOk(CheckedCall(client, request)));
}

TEST(ServerTest, ManyConcurrentConnectionsAllGetValidResponses) {
  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = 256;  // admission must not be the bottleneck here
  TestServer ts(std::move(config));

  constexpr int kConnections = 64;
  constexpr int kRequestsPerConnection = 3;
  const Problem small = MakeProblem(4, 8);
  const Problem other = MakeProblem(5, 8, 2);

  std::atomic<int> ok_count{0};
  std::atomic<int> bad_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      try {
        ServerClient client = ts.Connect();
        for (int i = 0; i < kRequestsPerConnection; ++i) {
          ServerRequest request =
              MapRequestFor((c + i) % 2 == 0 ? small : other);
          const std::string response = client.Call(request);
          if (IsValidJson(response) && IsOk(response)) {
            ok_count.fetch_add(1);
          } else {
            bad_count.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        bad_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kConnections * kRequestsPerConnection);
  EXPECT_EQ(bad_count.load(), 0);
}

TEST(ServerTest, DeadlineExpiredSolveReturnsFlaggedIncumbentFast) {
  TestServer ts;
  // Big enough that the exact DP cannot finish in a microsecond; the
  // response must still arrive promptly with the greedy incumbent and the
  // deadline flags set — never a hang.
  const Problem big = MakeProblem(10, 48);
  ServerRequest request = MapRequestFor(big);
  request.deadline_s = 1e-6;

  ServerClient client = ts.Connect();
  const std::string response = CheckedCall(client, request);
  EXPECT_TRUE(IsOk(response));
  EXPECT_NE(response.find("\"deadline_expired\": true"), std::string::npos);
  EXPECT_NE(response.find("\"mapping\""), std::string::npos);
  EXPECT_NE(response.find("\"exact\": false"), std::string::npos);
}

/// Polls `pred` until it holds or ~10s pass. The server records a
/// request's observability (access log line, SLO sample) right after it
/// fulfills the response promise, so a client that just got a response
/// may be a few microseconds ahead of the bookkeeping.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(ServerTest, FullAdmissionQueueRejectsImmediately) {
  // The chaos injector's solver_slow seam holds the worker: every job it
  // picks up first sleeps 1 s. It is armed before this test's server
  // starts and disarmed (by the guard, declared first) after it stops.
  struct ChaosGuard {
    ~ChaosGuard() { ChaosInjector::Global().Reset(); }
  } guard;
  ChaosInjector::Global().Configure(ParseChaosSpec("solver_slow=1:1000ms"));
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  TestServer ts(std::move(config));

  // Occupy the single worker, then the one queue slot, then fire a burst
  // of concurrent pings. The second solve is sent only once the worker
  // has drawn the first one's delay, so both are admitted, and the burst
  // fires while the worker still sleeps: with at most two requests in the
  // system, most of the burst must be rejected — and rejection is
  // immediate (the connection thread answers without a worker).
  const ServerRequest solve = MapRequestFor(MakeProblem(4, 8));
  std::vector<std::thread> busy;
  const auto send_solve = [&] {
    busy.emplace_back([&] {
      ServerClient client = ts.Connect();
      const std::string response = client.Call(solve);
      EXPECT_TRUE(IsValidJson(response));
    });
  };
  send_solve();
  ASSERT_TRUE(WaitFor([] {
    return ChaosInjector::Global()
               .stats()
               .draws[static_cast<int>(ChaosSeam::kSolverSlow)] == 1;
  }));
  send_solve();
  ASSERT_TRUE(WaitFor([&] { return ts.server->counters().accepted == 2; }));

  std::atomic<int> rejected{0};
  std::vector<std::thread> burst;
  for (int i = 0; i < 16; ++i) {
    burst.emplace_back([&] {
      ServerClient client = ts.Connect();
      ServerRequest ping;
      ping.op = "ping";
      const std::string response = client.Call(ping);
      EXPECT_TRUE(IsValidJson(response));
      if (response.find("\"code\": \"rejected\"") != std::string::npos) {
        rejected.fetch_add(1);
      }
    });
  }
  for (std::thread& t : burst) t.join();
  EXPECT_GE(rejected.load(), 1);
  EXPECT_GE(ts.server->counters().rejected, 1u);
  for (std::thread& t : busy) t.join();
}

TEST(ServerTest, DrainFinishesAdmittedWorkAndStopsTheWorld) {
  TestServer ts;
  const Problem problem = MakeProblem(4, 8);

  // In-flight requests at drain time must complete with real responses.
  std::vector<std::thread> inflight;
  std::atomic<int> completed{0};
  for (int i = 0; i < 4; ++i) {
    inflight.emplace_back([&] {
      ServerClient client = ts.Connect();
      const std::string response = client.Call(MapRequestFor(problem));
      if (IsValidJson(response)) completed.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ts.server->Drain();
  for (std::thread& t : inflight) t.join();
  EXPECT_EQ(completed.load(), 4);

  // After Drain, new connections are refused (listener is gone).
  EXPECT_THROW(ts.Connect(), Error);
  // Drain is idempotent.
  ts.server->Drain();
}

TEST(ServerTest, ClientSuppliedTraceIdIsEchoedOnEveryOp) {
  TestServer ts;
  ServerClient client = ts.Connect();
  const std::uint64_t id = 0x00c0ffee12345678ull;
  const std::string echo = "\"trace_id\": \"" + FormatTraceId(id) + "\"";

  ServerRequest ping;
  ping.op = "ping";
  ping.trace_id = id;
  EXPECT_NE(CheckedCall(client, ping).find(echo), std::string::npos);

  ServerRequest map = MapRequestFor(MakeProblem(4, 8));
  map.trace_id = id;
  EXPECT_NE(CheckedCall(client, map).find(echo), std::string::npos);

  ServerRequest stats;
  stats.op = "stats";
  stats.trace_id = id;
  EXPECT_NE(CheckedCall(client, stats).find(echo), std::string::npos);

  // Errors are joinable too: a handler failure (map without sections) and
  // an unknown op both echo the id the client sent.
  ServerRequest bad;
  bad.op = "map";
  bad.trace_id = id;
  const std::string handler_error = CheckedCall(client, bad);
  EXPECT_FALSE(IsOk(handler_error));
  EXPECT_NE(handler_error.find(echo), std::string::npos);

  ServerRequest unknown;
  unknown.op = "no_such_op";
  unknown.trace_id = id;
  const std::string op_error = CheckedCall(client, unknown);
  EXPECT_FALSE(IsOk(op_error));
  EXPECT_NE(op_error.find(echo), std::string::npos);
}

TEST(ServerTest, ServerGeneratesAWellFormedTraceIdWhenAbsent) {
  TestServer ts;
  ServerClient client = ts.Connect();
  ServerRequest ping;
  ping.op = "ping";
  const std::string response = CheckedCall(client, ping);
  const std::string key = "\"trace_id\": \"";
  const std::size_t pos = response.find(key);
  ASSERT_NE(pos, std::string::npos) << response;
  // Canonical wire form: exactly 16 hex digits, then the closing quote,
  // and it parses back to a nonzero id.
  const std::string hex = response.substr(pos + key.size(), 16);
  EXPECT_TRUE(ParseTraceId(hex).has_value()) << hex;
  ASSERT_GT(response.size(), pos + key.size() + 16);
  EXPECT_EQ(response[pos + key.size() + 16], '"');

  // Even a frame that never parsed gets a generated id, so the error
  // response stays joinable with the access log.
  const std::string garbage = client.CallRaw("definitely not a request");
  EXPECT_TRUE(IsValidJson(garbage));
  EXPECT_NE(garbage.find(key), std::string::npos) << garbage;
}

TEST(ServerTest, MetricsOpServesPrometheusExposition) {
  MetricsRegistry::Global().Reset();
  const ScopedMetricsEnable enable(true);
  TestServer ts;
  ServerClient client = ts.Connect();
  ServerRequest ping;
  ping.op = "ping";
  CheckedCall(client, ping);

  ServerRequest metrics;
  metrics.op = "metrics";
  const std::string response = CheckedCall(client, metrics);
  EXPECT_TRUE(IsOk(response));
  EXPECT_NE(response.find("\"content_type\": \"text/plain; version=0.0.4\""),
            std::string::npos)
      << response;
  // The exposition (an escaped string inside the JSON response) carries
  // the server request counters and the SLO gauges published at scrape
  // time. server.accepted is bumped at admission, strictly before the
  // ping response is sent, so it is deterministically visible here.
  EXPECT_NE(response.find("pipemap_server_accepted"), std::string::npos)
      << response;
  EXPECT_NE(response.find("pipemap_slo_window_requests"), std::string::npos)
      << response;
  MetricsRegistry::Global().Reset();
}

TEST(ServerTest, MetricsOpWithCollectionOffServesTheRegistryUntouched) {
  const ScopedMetricsEnable disable(false);
  // Empty in a process that never turned collection on.
  const std::string before =
      PrometheusExposition(MetricsRegistry::Global().Snapshot());
  TestServer ts;
  ServerClient client = ts.Connect();
  ASSERT_TRUE(IsOk(CheckedCall(client, MapRequestFor(MakeProblem(4, 8)))));

  ServerRequest metrics;
  metrics.op = "metrics";
  const std::string response = CheckedCall(client, metrics);
  EXPECT_TRUE(IsOk(response));
  // Served traffic interned and changed nothing, SLO gauges included.
  std::string exposition = "\"exposition\": ";
  JsonWriter::AppendEscaped(exposition, before);
  EXPECT_NE(response.find(exposition), std::string::npos) << response;
}

TEST(ServerTest, AccessLogHasOneJoinableLinePerRequest) {
  const std::string path = "/tmp/pipemap_server_access_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  std::uint64_t ping_id = 0;
  {
    ServerConfig config;
    config.access_log_path = path;
    TestServer ts(std::move(config));
    ServerClient client = ts.Connect();

    ping_id = GenerateTraceId();
    ServerRequest ping;
    ping.op = "ping";
    ping.trace_id = ping_id;
    CheckedCall(client, ping);
    CheckedCall(client, MapRequestFor(MakeProblem(4, 8)));
    client.CallRaw("definitely not a request");  // parse errors logged too

    ServerRequest stats;
    stats.op = "stats";
    const std::string response = CheckedCall(client, stats);
    EXPECT_NE(response.find("\"access_log\""), std::string::npos);
    EXPECT_NE(response.find("\"enabled\": true"), std::string::npos);

    // Drain joins the workers (so every FinishRequest has run) and
    // flushes the log; afterwards the accounting is final.
    ts.server->Drain();
    const AccessLogger::Stats log_stats = ts.server->access_log_stats();
    EXPECT_EQ(log_stats.lines_written, 4u);
    EXPECT_EQ(log_stats.lines_dropped, 0u);
  }

  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);

  std::string all;
  for (const std::string& l : lines) {
    // JSONL: every line is its own complete, valid JSON object with the
    // joinable fields present.
    EXPECT_TRUE(IsValidJson(l)) << l;
    EXPECT_NE(l.find("\"trace_id\": \""), std::string::npos) << l;
    EXPECT_NE(l.find("\"total_us\": "), std::string::npos) << l;
    all += l;
    all += '\n';
  }
  // The client-supplied ping id is in the log verbatim; the map line
  // carries solver provenance; the hostile frame logged as a parse error.
  EXPECT_NE(all.find(FormatTraceId(ping_id)), std::string::npos);
  EXPECT_NE(all.find("\"op\": \"map\""), std::string::npos);
  EXPECT_NE(all.find("\"status\": \"invalid_argument\""), std::string::npos);

  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(ServerTest, SloWindowTracksRequestsAndBurnsOnBreach) {
  ServerConfig config;
  config.slo_p99_ms = 0.0001;  // far below any served request's latency
  config.slo_window_s = 60;
  TestServer ts(std::move(config));
  ServerClient client = ts.Connect();
  ServerRequest ping;
  ping.op = "ping";
  for (int i = 0; i < 3; ++i) CheckedCall(client, ping);
  client.CallRaw("garbage");  // errors count against the window

  ASSERT_TRUE(WaitFor([&] {
    const SloState s = ts.server->slo();
    return s.requests >= 4 && s.errors >= 1;
  }));
  const SloState state = ts.server->slo();
  EXPECT_GE(state.requests, 4u);
  EXPECT_GE(state.errors, 1u);
  EXPECT_DOUBLE_EQ(state.p99_objective_ms, 0.0001);
  EXPECT_GT(state.p99_ms, state.p99_objective_ms);
  EXPECT_TRUE(state.p99_breach);
  EXPECT_TRUE(state.burning);

  // The same burn state is protocol surface via `stats`.
  ServerRequest stats;
  stats.op = "stats";
  const std::string response = CheckedCall(client, stats);
  EXPECT_NE(response.find("\"slo\""), std::string::npos);
  EXPECT_NE(response.find("\"p99_breach\": true"), std::string::npos);
  EXPECT_NE(response.find("\"burning\": true"), std::string::npos);
}

TEST(ServerTest, TracerSpansCarryTheTraceIdAsTheirArg) {
  Tracer::Global().Clear();
  Tracer::Global().Enable(true);
  std::uint64_t id = 0;
  {
    TestServer ts;
    ServerClient client = ts.Connect();
    id = GenerateTraceId();
    ServerRequest ping;
    ping.op = "ping";
    ping.trace_id = id;
    CheckedCall(client, ping);
    ts.server->Drain();  // the worker's span records before it exits
  }
  Tracer::Global().Enable(false);

  bool saw_request = false, saw_queue_wait = false, saw_solve = false;
  for (const Tracer::Event& event : Tracer::Global().Events()) {
    if (event.arg != static_cast<std::int64_t>(id)) continue;
    const std::string name = event.name;
    if (name == "server.request") saw_request = true;
    if (name == "server.queue_wait") saw_queue_wait = true;
    if (name == "server.solve") saw_solve = true;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_solve);
  Tracer::Global().Clear();
}

TEST(ServerTest, CountersAddUp) {
  TestServer ts;
  ServerClient client = ts.Connect();
  ServerRequest ping;
  ping.op = "ping";
  CheckedCall(client, ping);
  CheckedCall(client, ping);
  client.CallRaw("garbage");
  const ServerCounters counters = ts.server->counters();
  EXPECT_EQ(counters.connections, 1u);
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_EQ(counters.parse_errors, 1u);
}

}  // namespace
}  // namespace pipemap::server
