// Overload resilience: the OverloadController state machine driven with
// an explicit clock (brownout entry, hysteresis recovery, shed
// decisions and retry hints), then end-to-end against a real server —
// shed responses carry `overloaded` + retry_after_ms and stay out of
// the SLO window, brownout solves are flagged `degraded: true`, stalled
// connections are reaped by the idle timer, and a chaos storm never
// produces a malformed response.
#include "server/overload.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "engine/mapping_engine.h"
#include "gtest/gtest.h"
#include "io/serialize.h"
#include "server/client.h"
#include "server/server.h"
#include "support/chaos.h"
#include "support/json_verify.h"
#include "workloads/synthetic.h"

namespace pipemap::server {
namespace {

using Clock = OverloadController::Clock;

Clock::time_point At(double seconds) {
  return Clock::time_point{} + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
}

OverloadConfig SmallConfig() {
  OverloadConfig config;
  config.shed_watermark = 0.75;
  config.brownout_after_s = 3.0;
  config.recover_after_s = 5.0;
  return config;
}

TEST(OverloadControllerTest, BrownoutEngagesOnlyAfterSustainedBurn) {
  OverloadController controller(SmallConfig());
  controller.ObserveBurnAt(At(0.0), true);
  EXPECT_FALSE(controller.degraded());
  controller.ObserveBurnAt(At(2.9), true);
  EXPECT_FALSE(controller.degraded());
  controller.ObserveBurnAt(At(3.0), true);
  EXPECT_TRUE(controller.degraded());
  EXPECT_EQ(controller.state().brownout_entries, 1u);
}

TEST(OverloadControllerTest, FlappingBurnNeverEngagesBrownout) {
  OverloadController controller(SmallConfig());
  // The signal clears at t=2, restarting the streak: 2.9s of burn after
  // the flap is not 3s sustained.
  controller.ObserveBurnAt(At(0.0), true);
  controller.ObserveBurnAt(At(2.0), false);
  controller.ObserveBurnAt(At(2.5), true);
  controller.ObserveBurnAt(At(5.4), true);
  EXPECT_FALSE(controller.degraded());
  controller.ObserveBurnAt(At(5.6), true);
  EXPECT_TRUE(controller.degraded());
}

TEST(OverloadControllerTest, RecoveryRequiresSustainedClear) {
  OverloadController controller(SmallConfig());
  controller.ObserveBurnAt(At(0.0), true);
  controller.ObserveBurnAt(At(3.0), true);
  ASSERT_TRUE(controller.degraded());
  // Clear at 4; a burn blip at 6 restarts the recovery streak.
  controller.ObserveBurnAt(At(4.0), false);
  controller.ObserveBurnAt(At(6.0), true);
  controller.ObserveBurnAt(At(7.0), false);
  controller.ObserveBurnAt(At(11.9), false);
  EXPECT_TRUE(controller.degraded());  // 4.9s clear < 5s
  controller.ObserveBurnAt(At(12.1), false);
  EXPECT_FALSE(controller.degraded());
  const OverloadState state = controller.state();
  EXPECT_EQ(state.brownout_entries, 1u);
  EXPECT_EQ(state.brownout_recoveries, 1u);
}

TEST(OverloadControllerTest, ShedsOnQueueDepthWatermark) {
  OverloadController controller(SmallConfig());
  double hint_ms = 0.0;
  EXPECT_FALSE(controller.ShouldShed(7, 10, &hint_ms));  // 7 < 7.5
  EXPECT_TRUE(controller.ShouldShed(8, 10, &hint_ms));
  // Hint scales with queue fill: 100ms * (1 + 4 * 0.8).
  EXPECT_NEAR(hint_ms, 420.0, 1e-9);
  EXPECT_TRUE(controller.ShouldShed(10, 10, &hint_ms));
  EXPECT_NEAR(hint_ms, 500.0, 1e-9);
  EXPECT_EQ(controller.state().shed_total, 2u);
}

TEST(OverloadControllerTest, WatermarkAtOneDisablesDepthShedding) {
  OverloadConfig config = SmallConfig();
  config.shed_watermark = 1.0;
  OverloadController controller(config);
  EXPECT_FALSE(controller.ShouldShed(10, 10, nullptr));
}

TEST(OverloadControllerTest, BurnShedsRegardlessOfDepthAndHintIsCapped) {
  OverloadController controller(SmallConfig());
  controller.ObserveBurnAt(At(0.0), true);
  double hint_ms = 0.0;
  EXPECT_TRUE(controller.ShouldShed(0, 10, &hint_ms));
  EXPECT_NEAR(hint_ms, 100.0, 1e-9);  // empty queue: base hint
  // Absurd depth: the hint saturates at 10s.
  EXPECT_TRUE(controller.ShouldShed(1000, 10, &hint_ms));
  EXPECT_NEAR(hint_ms, 10'000.0, 1e-9);
}

TEST(OverloadControllerTest, DegradedModeDoublesTheHint) {
  OverloadController controller(SmallConfig());
  controller.ObserveBurnAt(At(0.0), true);
  controller.ObserveBurnAt(At(3.0), true);
  ASSERT_TRUE(controller.degraded());
  double hint_ms = 0.0;
  EXPECT_TRUE(controller.ShouldShed(0, 10, &hint_ms));
  EXPECT_NEAR(hint_ms, 200.0, 1e-9);
}

TEST(OverloadControllerTest, DisabledControllerIsInert) {
  OverloadConfig config = SmallConfig();
  config.enabled = false;
  OverloadController controller(config);
  controller.ObserveBurnAt(At(0.0), true);
  controller.ObserveBurnAt(At(100.0), true);
  EXPECT_FALSE(controller.degraded());
  EXPECT_FALSE(controller.ShouldShed(1000, 10, nullptr));
  EXPECT_EQ(controller.state().shed_total, 0u);
}

// ---------------------------------------------------------------------
// End-to-end: a real server on loopback.

struct Problem {
  std::string chain_text;
  std::string machine_text;
};

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

struct ChaosGuard {
  ~ChaosGuard() { ChaosInjector::Global().Reset(); }
};

TEST(ServerOverloadTest, ShedsSolveOpsWithRetryHintAndSparesControlPlane) {
  ServerConfig config;
  config.shed_watermark = 0.0;  // depth signal always present: shed all
  TestServer ts(config);
  ServerClient client = ts.Connect();
  const ServerRequest map = MapRequestFor(MakeProblem(4, 8));

  for (int i = 0; i < 3; ++i) {
    const std::string response = client.Call(map);
    EXPECT_TRUE(IsValidJson(response)) << response;
    EXPECT_NE(response.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(response.find("\"code\": \"overloaded\""), std::string::npos);
    EXPECT_NE(response.find("\"retry_after_ms\""), std::string::npos);
  }
  EXPECT_EQ(ts.server->counters().shed, 3u);
  // Shed responses must stay out of the SLO window — error-rate breaches
  // driving more shedding would be a livelock.
  EXPECT_EQ(ts.server->slo().requests, 0u);

  // The control plane still answers while solve ops shed.
  ServerRequest ping;
  ping.op = "ping";
  EXPECT_NE(client.Call(ping).find("\"ok\": true"), std::string::npos);
  ServerRequest stats;
  stats.op = "stats";
  const std::string response = client.Call(stats);
  EXPECT_NE(response.find("\"overload\""), std::string::npos);
  EXPECT_NE(response.find("\"shed_total\": 3"), std::string::npos);
  EXPECT_NE(response.find("\"breakers\""), std::string::npos);
}

TEST(ServerOverloadTest, NoOverloadFlagRestoresAdmitUntilFull) {
  ServerConfig config;
  config.shed_watermark = 0.0;
  config.overload_enabled = false;
  TestServer ts(config);
  ServerClient client = ts.Connect();
  const std::string response = client.Call(MapRequestFor(MakeProblem(4, 8)));
  EXPECT_NE(response.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(ts.server->counters().shed, 0u);
}

TEST(ServerOverloadTest, BrownoutServesDegradedAfterSustainedBurn) {
  ServerConfig config;
  config.slo_p99_ms = 0.0001;  // every solve breaches
  config.slo_window_s = 1;     // the breach ages out after ~1s idle
  config.brownout_after_s = 0.0;
  config.recover_after_s = 3600.0;  // no recovery inside the test
  config.shed_watermark = 1.0;      // only the burn signal sheds
  TestServer ts(config);
  ServerClient client = ts.Connect();
  const ServerRequest map = MapRequestFor(MakeProblem(4, 8));

  // Full-fidelity solve; its latency breaches the (absurd) objective.
  const std::string first = client.Call(map);
  EXPECT_NE(first.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(first.find("\"degraded\": false"), std::string::npos);

  // Past the poll throttle: admission observes the burn, brownout (0s
  // threshold) engages, and the burning signal sheds this request.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::string shed = client.Call(map);
  EXPECT_NE(shed.find("\"code\": \"overloaded\""), std::string::npos);
  EXPECT_TRUE(ts.server->overload_state().degraded);

  // Idle past the SLO window: the burn clears, but brownout holds
  // (hysteresis) — the request is admitted and served degraded.
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  const std::string degraded = client.Call(map);
  EXPECT_NE(degraded.find("\"ok\": true"), std::string::npos) << degraded;
  EXPECT_NE(degraded.find("\"degraded\": true"), std::string::npos);
  EXPECT_GE(ts.server->counters().degraded, 1u);
  EXPECT_EQ(ts.server->overload_state().brownout_entries, 1u);
}

TEST(ServerOverloadTest, IdleTimeoutReapsStalledConnections) {
  ServerConfig config;
  config.idle_timeout_s = 0.2;
  TestServer ts(config);

  // A slowloris: open a raw socket, send half a frame header, stall.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ts.server->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char half_header[2] = {0, 0};
  ASSERT_EQ(::write(fd, half_header, sizeof(half_header)), 2);

  // The server must tear the connection down (we see EOF), not hang.
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // clean EOF from the reap
  ::close(fd);

  EXPECT_EQ(ts.server->counters().idle_timeouts, 1u);
  // The slot is free again: a well-behaved client is unaffected.
  ServerClient client = ts.Connect();
  ServerRequest ping;
  ping.op = "ping";
  EXPECT_NE(client.Call(ping).find("\"ok\": true"), std::string::npos);
}

TEST(ServerOverloadTest, ChaosStormNeverProducesMalformedResponses) {
  ChaosGuard guard;
  // Each storm is armed before its server starts (Configure must not race
  // a seam crossing); Reset is safe while the server runs.
  // Every frame is treated as truncated: clients see dead connections,
  // never garbage.
  ChaosInjector::Global().Configure(
      ParseChaosSpec("seed=11,read_trunc=1"));
  {
    TestServer ts;
    {
      ServerClient client = ts.Connect();
      ServerRequest ping;
      ping.op = "ping";
      EXPECT_THROW(client.Call(ping), std::exception);
    }
    // Disarm: the server is healthy, new connections serve normally.
    ChaosInjector::Global().Reset();
    ServerClient client = ts.Connect();
    const std::string response =
        client.Call(MapRequestFor(MakeProblem(4, 8)));
    EXPECT_TRUE(IsValidJson(response)) << response;
    EXPECT_NE(response.find("\"ok\": true"), std::string::npos);
  }

  // A probabilistic storm of response-drops: every response that does
  // arrive is valid JSON; the server survives the whole run.
  ChaosInjector::Global().Configure(
      ParseChaosSpec("seed=12,conn_drop=0.4"));
  TestServer ts;
  const ServerRequest map = MapRequestFor(MakeProblem(4, 8));
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    try {
      ServerClient c = ts.Connect();
      const std::string r = c.Call(map);
      EXPECT_TRUE(IsValidJson(r)) << r;
      ++delivered;
    } catch (const std::exception&) {
      // dropped by chaos — expected
    }
  }
  EXPECT_GT(delivered, 0);
  ChaosInjector::Global().Reset();
  ServerRequest stats;
  stats.op = "stats";
  ServerClient after = ts.Connect();
  EXPECT_NE(after.Call(stats).find("\"chaos\""), std::string::npos);
}

}  // namespace
}  // namespace pipemap::server
