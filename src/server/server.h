// pipemap_server: mapping-as-a-service on top of MappingEngine.
//
// The server turns the in-process engine into a long-running daemon: a
// TCP listener accepts concurrent connections speaking the framed
// protocol in server/protocol.h, a bounded admission queue decouples
// connection handling from solving, and a fixed pool of solver workers
// drains the queue into one shared MappingEngine — so every request in
// the process sees the same solution cache. `map` is the one solve op;
// `ping`, `stats` and `metrics` are the control plane. Simulating a
// mapping is the CLI's job (`pipemap_cli simulate` / `report`).
//
// Threading model:
//   * one accept thread; one lightweight thread per connection (reads
//     frames, parses, enqueues, writes responses). Connection threads
//     never solve, so the server holds >= 64 open connections with the
//     solver parallelism fixed by `num_workers`;
//   * `num_workers` solver threads pop jobs from the admission queue.
//     Requests default to threads=1 inside the solver (ThreadPool::
//     Shared() serializes parallel regions, so parallelism across
//     requests beats parallelism within one);
//   * admission is bounded: a full queue rejects immediately with a
//     clean `rejected` error response instead of building backlog.
//
// Deadlines: a request's `deadline_s` is anchored at admission, so time
// spent waiting in the queue counts against it. A job whose deadline has
// already expired when a worker picks it up is solved with a vanishing
// budget — the engine returns its greedy incumbent flagged timed_out
// rather than hanging or silently running long.
//
// Shutdown (Drain): stop accepting, reject new frames with a `draining`
// error, let workers finish every admitted job (each bounded by its own
// deadline), then wake blocked readers and join all threads. Drain is
// what the daemon runs on SIGTERM; it is also safe to call twice.
//
// Every response — success or failure — is one JSON object; hostile
// bytes in request sections pass through JsonWriter's sanitizing escaper,
// so the server never emits a malformed document.
//
// Observability (DESIGN.md §9): every request carries a trace id —
// client-supplied `trace_id` or one generated at admission — that is
// echoed in the response, stamped on correlated Tracer spans
// (server.request / server.queue_wait / server.solve, arg = trace id,
// joining the engine.map span of the same solve), written to the
// structured access log, and fed to the rolling-window SLO monitor. The
// `metrics` op serves the whole registry as Prometheus text exposition.
// Spans and metrics follow the run-time switches (Tracer::Enabled,
// MetricsRegistry::Enabled) and the access log its path; the SLO window,
// and with it shedding and brownout, runs in every build.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/overload.h"
#include "server/protocol.h"
#include "server/slo.h"
#include "support/access_log.h"
#include "support/circuit_breaker.h"

namespace pipemap {
class JsonWriter;
class MappingEngine;
struct MapRequest;
}  // namespace pipemap

namespace pipemap::server {

struct ServerConfig {
  /// Bind address. The default keeps the daemon loopback-only; the tests
  /// and the bench talk to it on localhost.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the result back via port().
  int port = 0;
  /// Solver worker threads draining the admission queue.
  int num_workers = 4;
  /// Admission queue bound; a full queue rejects, never blocks.
  std::size_t queue_capacity = 64;
  /// Frames above this are drained and refused (see ReadFrame).
  std::size_t max_frame_bytes = 4u << 20;
  /// Engine to solve on; nullptr uses MappingEngine::Shared(). Its cache's
  /// disk tier, when enabled (engine/cache_persist.h), lets a restarted
  /// daemon pointed at the same directory serve yesterday's traffic as
  /// cache hits; Drain flushes pending spills before reporting done.
  MappingEngine* engine = nullptr;

  /// Overload resilience (server/overload.h, DESIGN.md §12): adaptive
  /// admission shedding and brownout serving, driven by the SLO burn
  /// state (polled at a bounded cadence) and the admission queue depth.
  /// The defaults keep the layer armed but inert until the SLO monitor
  /// has objectives or the queue actually fills.
  bool overload_enabled = true;
  double shed_watermark = 0.75;
  double brownout_after_s = 3.0;
  double recover_after_s = 5.0;
  double degraded_deadline_s = 0.05;

  /// Per-connection read timeout in seconds; a peer that stalls mid-frame
  /// (slowloris) or goes silent longer than this has its connection torn
  /// down and the slot freed (counted in idle_timeouts). 0 disables.
  double idle_timeout_s = 0.0;

  /// Solver circuit breaker: this many consecutive *internal* failures of
  /// the `map` op open the breaker, and further `map` requests fail fast
  /// with a `circuit_open` error until a cooldown probe heals it. <= 0
  /// disables.
  int solver_breaker_failures = 8;
  double solver_breaker_cooldown_s = 1.0;

  /// Structured access log: one JSONL line per request (trace_id, op,
  /// bytes in/out, queue wait, solve time, cache/solver/deadline
  /// provenance, status), written asynchronously (support/access_log.h —
  /// a full log queue drops lines, never blocks requests). Empty path
  /// disables it.
  std::string access_log_path;
  std::size_t access_log_max_bytes = 64u << 20;

  /// SLO objectives tracked by the rolling-window monitor
  /// (server/slo.h): p99 served latency in ms and error rate in [0, 1];
  /// 0 leaves an objective unconfigured (the window is still tracked).
  double slo_p99_ms = 0.0;
  double slo_max_error_rate = 0.0;
  int slo_window_s = 60;
};

/// Monotone counters mirrored into MetricsRegistry ("server.*"). Kept as
/// plain atomics too so the `stats` op works with metrics collection off.
struct ServerCounters {
  std::uint64_t connections = 0;
  std::uint64_t accepted = 0;      ///< requests admitted to the queue
  std::uint64_t rejected = 0;      ///< queue-full rejections
  std::uint64_t completed = 0;     ///< responses produced by workers
  std::uint64_t timed_out = 0;     ///< responses flagged deadline-expired
  std::uint64_t parse_errors = 0;  ///< malformed frames answered with errors
  std::uint64_t drained = 0;       ///< frames refused because of Drain
  std::uint64_t shed = 0;          ///< requests refused by overload shedding
  std::uint64_t degraded = 0;      ///< solves served in brownout mode
  std::uint64_t idle_timeouts = 0; ///< connections reaped by the idle timer
  std::uint64_t breaker_fast_fails = 0;  ///< circuit_open fast-fail errors
};

class PipemapServer {
 public:
  explicit PipemapServer(ServerConfig config = {});
  ~PipemapServer();

  PipemapServer(const PipemapServer&) = delete;
  PipemapServer& operator=(const PipemapServer&) = delete;

  /// Binds, listens, and spawns the accept thread and worker pool.
  /// Throws pipemap::Error when the address cannot be bound.
  void Start();

  /// The bound port (resolves config.port == 0), valid after Start().
  int port() const { return port_; }

  /// Graceful shutdown: finish admitted work, refuse new work, join all
  /// threads. Blocks until the server is fully stopped. Idempotent.
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServerCounters counters() const;

  /// The rolling SLO window (burn state also surfaced by `stats` and the
  /// `metrics` op).
  SloState slo() const { return slo_.Snapshot(); }

  /// Overload layer state: shed/brownout counters and the current mode
  /// (also surfaced by the `stats` op).
  OverloadState overload_state() const { return overload_.state(); }

  /// Access-log activity; all-zero when no access log is configured.
  AccessLogger::Stats access_log_stats() const;

  /// Blocks until every access-log line enqueued so far is on disk.
  /// No-op without an access log. The drain path and the tests use it.
  void FlushAccessLog();

  /// Writes the daemon's state into the open JSON object `w` as the
  /// blocks server, cache, singleflight, slo, access_log, overload,
  /// breakers and chaos. The `stats` op and the daemon's drain document
  /// are these blocks under their own envelope.
  void WriteState(JsonWriter& w) const;

 private:
  struct Job;
  struct Connection;

  /// What one request did, for the access-log line, the SLO monitor, and
  /// the server.* metrics — filled by the handler that produced the
  /// response JSON.
  struct RequestOutcome {
    std::string status = "ok";  // "ok" or the error code of the response
    std::string solver;
    bool cache_hit = false;
    /// "memory" / "disk" on a cache hit, "" otherwise.
    std::string cache_tier;
    /// Served by a concurrent identical solve (single-flight dedup).
    bool shared_solve = false;
    bool timed_out = false;
    /// Served in brownout mode: greedy-only solver under the degraded
    /// deadline. Set by the worker before dispatch; echoed in the
    /// response JSON and the access-log line.
    bool degraded = false;
  };

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  void WorkerLoop();

  /// Runs one parsed request to a JSON response string. Never throws:
  /// every failure becomes an {"ok": false, ...} document (and
  /// `outcome->status` its code).
  std::string HandleRequest(const ServerRequest& request,
                            double remaining_budget_s,
                            RequestOutcome* outcome);
  /// HandleRequest's dispatch body; HandleRequest wraps `map` with the
  /// solver circuit breaker (fail fast with `circuit_open` while open,
  /// feed it internal-failure outcomes while closed).
  std::string DispatchRequest(const ServerRequest& request,
                              double remaining_budget_s,
                              RequestOutcome* outcome);
  /// The daemon's one solve: parse, map on one Evaluator (brownout
  /// applied), MakeFeasible, record `outcome` and the counters, and render
  /// the served mapping.
  std::string HandleMap(const ServerRequest& request, double budget_s,
                        RequestOutcome* outcome);
  std::string HandleStats(const ServerRequest& request);
  std::string HandleMetrics(const ServerRequest& request);

  /// Publishes the SLO window as slo.* gauges (snapshot-time, not
  /// per-request) so the `metrics` exposition carries burn state.
  void PublishSloGauges();

  /// One finished request: emits the access-log line, feeds the SLO
  /// monitor, and records the per-phase histograms/spans. `received_ns`
  /// is 0 for requests that never reached the tracer timebase.
  void FinishRequest(std::uint64_t trace_id, const std::string& op,
                     const RequestOutcome& outcome, std::size_t bytes_in,
                     std::size_t bytes_out, double queue_wait_s,
                     double solve_s, double total_s);

  /// Answers a request refused before any worker ran it: counts it in
  /// `counter`, finishes it with status `code` and returns `response`.
  std::string Refuse(std::uint64_t ServerCounters::*counter, const char* code,
                     std::string response, std::uint64_t trace_id,
                     const std::string& op, std::size_t bytes_in,
                     double total_s);

  void ReapFinishedConnections();

  /// Feeds the SLO burn signal into the overload controller, throttled to
  /// ~10 Hz so neither admission nor workers pay a window snapshot per
  /// request.
  void PollOverload();

  /// The solver breaker for `map`, or nullptr for ops that never touch
  /// the solver (ping / stats / metrics).
  CircuitBreaker* SolverBreaker(const std::string& op);

  /// Downgrades an engine request to brownout fidelity: greedy-only
  /// portfolio (throughput objective) and the degraded deadline. Counts
  /// the degraded solve.
  void ApplyBrownout(MapRequest* mr);

  ServerConfig config_;
  MappingEngine* engine_ = nullptr;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  /// Set under queue_mu_ by Drain: workers finish the queue, then exit.
  bool stop_workers_ = false;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;

  SloMonitor slo_;
  /// Null when no access log is configured.
  std::unique_ptr<AccessLogger> access_log_;

  OverloadController overload_;
  /// steady_clock nanos of the last burn-signal poll (0 = never).
  std::atomic<std::int64_t> last_burn_poll_ns_{0};
  /// The `map` op's solver breaker (consecutive internal failures fail
  /// fast).
  CircuitBreaker map_breaker_;
};

}  // namespace pipemap::server
