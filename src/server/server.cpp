#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <utility>

#include "core/evaluator.h"
#include "engine/mapping_engine.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "support/chaos.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/prometheus.h"
#include "support/trace_context.h"
#include "support/tracer.h"

namespace pipemap::server {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One error document. `code` is a machine-matchable token (rejected,
/// draining, timed_out, invalid_argument, infeasible, frame_too_large,
/// internal); `detail` is free text and may contain hostile bytes — the
/// writer sanitizes it. Every error carries the request's trace id so a
/// failing request is still joinable across log, trace, and response.
std::string ErrorJson(std::string_view code, std::string_view detail,
                      std::uint64_t trace_id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(false);
  w.Key("code").String(code);
  w.Key("error").String(detail);
  if (trace_id != 0) w.Key("trace_id").String(FormatTraceId(trace_id));
  w.EndObject();
  return w.str();
}

/// The `overloaded` error document: same shape as ErrorJson plus the
/// backpressure hint, so a well-behaved client backs off instead of
/// hammering a shedding server.
std::string OverloadedJson(double retry_after_ms, std::uint64_t trace_id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(false);
  w.Key("code").String("overloaded");
  w.Key("error").String("server is overloaded; retry after the hint");
  w.Key("retry_after_ms").Double(retry_after_ms);
  if (trace_id != 0) w.Key("trace_id").String(FormatTraceId(trace_id));
  w.EndObject();
  return w.str();
}

OverloadConfig BuildOverloadConfig(const ServerConfig& config) {
  OverloadConfig out;
  out.enabled = config.overload_enabled;
  out.shed_watermark = config.shed_watermark;
  out.brownout_after_s = config.brownout_after_s;
  out.recover_after_s = config.recover_after_s;
  out.degraded_deadline_s = config.degraded_deadline_s;
  return out;
}

CircuitBreaker::Config SolverBreakerConfig(const ServerConfig& config) {
  CircuitBreaker::Config out;
  out.failure_threshold = config.solver_breaker_failures;
  out.cooldown_s = config.solver_breaker_cooldown_s;
  return out;
}

}  // namespace

/// One admitted request. The connection thread owns the promise's future
/// and blocks on it; a worker fulfills it. `admitted` anchors the
/// request's deadline, so queue wait counts against the budget. The
/// request's trace_id is always set by the time a Job exists (parsed or
/// generated at frame decode), and bytes_in/admitted_ns carry the decode
/// context the worker needs for the access-log line and the spans.
struct PipemapServer::Job {
  ServerRequest request;
  Clock::time_point admitted;
  std::size_t bytes_in = 0;
  /// Tracer-timebase admission stamp (0 when tracing is disabled): lets
  /// the worker record the queue-wait span with its true begin time.
  std::uint64_t admitted_ns = 0;
  std::promise<std::string> response;
};

struct PipemapServer::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> finished{false};
};

PipemapServer::PipemapServer(ServerConfig config)
    : config_(std::move(config)),
      engine_(config_.engine != nullptr ? config_.engine
                                        : &MappingEngine::Shared()),
      slo_(SloConfig{config_.slo_p99_ms, config_.slo_max_error_rate,
                     config_.slo_window_s}),
      overload_(BuildOverloadConfig(config_)),
      map_breaker_(SolverBreakerConfig(config_)) {
  if (config_.num_workers < 1) {
    throw InvalidArgument("ServerConfig::num_workers must be >= 1");
  }
  if (config_.queue_capacity < 1) {
    throw InvalidArgument("ServerConfig::queue_capacity must be >= 1");
  }
  if (!config_.access_log_path.empty()) {
    AccessLogger::Options options;
    options.path = config_.access_log_path;
    options.max_bytes = config_.access_log_max_bytes;
    access_log_ = std::make_unique<AccessLogger>(options);
  }
}

PipemapServer::~PipemapServer() { Drain(); }

void PipemapServer::Start() {
  if (started_.exchange(true)) {
    throw Error("PipemapServer::Start called twice");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error(std::string("socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw InvalidArgument("invalid bind address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("bind " + config_.host + ":" + std::to_string(config_.port) +
                " failed: " + reason);
  }
  if (::listen(listen_fd_, 128) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("listen failed: " + reason);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void PipemapServer::Drain() {
  if (!started_.load() || stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting. shutdown() wakes the accept thread out of
  //    accept(); it sees draining_ and exits.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Let workers finish every admitted job, then exit. Connection
  //    threads are still alive and write those responses out. New frames
  //    arriving meanwhile are answered with a `draining` error at the
  //    connection layer (never enqueued).
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // Workers are gone, so no new spills can be enqueued: flushing here
  // guarantees every solve this process answered is on disk before the
  // drain report claims done — a restarted daemon on the same cache dir
  // starts fully warm.
  engine_->cache().FlushPersistence();

  // 3. Wake readers blocked on idle connections and join everything.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.back());
      conns_.pop_back();
    }
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }

  // 4. Every request's access-log line is enqueued by now (workers and
  //    connection threads are joined); put them on disk so the drain
  //    report and post-mortem tooling see the complete log.
  FlushAccessLog();
}

ServerCounters PipemapServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

void PipemapServer::PollOverload() {
  if (!config_.overload_enabled) return;
  const std::int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now().time_since_epoch())
                                  .count();
  std::int64_t last = last_burn_poll_ns_.load(std::memory_order_relaxed);
  // ~10 Hz cap: losing the CAS race means another thread just polled.
  if (last != 0 && now_ns - last < 100'000'000) return;
  if (!last_burn_poll_ns_.compare_exchange_strong(last, now_ns,
                                                  std::memory_order_relaxed)) {
    return;
  }
  overload_.ObserveBurn(slo_.Snapshot().burning);
}

CircuitBreaker* PipemapServer::SolverBreaker(const std::string& op) {
  return op == "map" ? &map_breaker_ : nullptr;
}

void PipemapServer::ApplyBrownout(MapRequest* mr) {
  // Greedy-only portfolio for the throughput objective; the latency
  // solver has no cheaper stage to fall back to, so latency-shaped
  // requests keep their solver and only lose budget.
  if (mr->objective == MapObjective::kThroughput) {
    mr->solver = SolverPolicy::kGreedy;
  }
  const double cap = config_.degraded_deadline_s;
  if (cap > 0.0 &&
      (!Deadline::HasBudget(mr->time_budget_s) || mr->time_budget_s > cap)) {
    mr->time_budget_s = cap;
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.degraded;
  }
  PIPEMAP_COUNTER_ADD("server.degraded", 1);
}

void PipemapServer::ReapFinishedConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void PipemapServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() from Drain lands here; any other error on a dying
      // listener also means we are done accepting.
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { ConnectionLoop(raw); });
    // Bound the registry on long-running daemons: closed connections are
    // joined here instead of accumulating until Drain.
    ReapFinishedConnections();
  }
}

std::string PipemapServer::Refuse(std::uint64_t ServerCounters::*counter,
                                  const char* code, std::string response,
                                  std::uint64_t trace_id,
                                  const std::string& op, std::size_t bytes_in,
                                  double total_s) {
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++(counters_.*counter);
  }
  RequestOutcome outcome;
  outcome.status = code;
  FinishRequest(trace_id, op, outcome, bytes_in, response.size(), 0.0, 0.0,
                total_s);
  return response;
}

void PipemapServer::ConnectionLoop(Connection* conn) {
  if (config_.idle_timeout_s > 0.0) {
    // Slowloris guard: a receive timeout turns "peer drips bytes or
    // stalls forever" into an IdleTimeout from ReadFrame, freeing the
    // slot. Per-read, so an active connection is never reaped.
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(config_.idle_timeout_s);
    tv.tv_usec = static_cast<suseconds_t>(
        (config_.idle_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(conn->fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  std::string payload;
  for (;;) {
    std::string response;
    ChaosInjector::Global().MaybeDelay(ChaosSeam::kReadDelay);
    try {
      if (!ReadFrame(conn->fd, config_.max_frame_bytes, &payload)) break;
    } catch (const IdleTimeout&) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.idle_timeouts;
      }
      PIPEMAP_COUNTER_ADD("server.idle_timeouts", 1);
      break;  // stalled peer: free the slot
    } catch (const FrameTooLarge& e) {
      // The frame never parsed, so the client's trace_id (if any) is
      // unreadable; a generated id still makes the failure joinable
      // between the response and the access log.
      const std::uint64_t tid = GenerateTraceId();
      response = Refuse(&ServerCounters::parse_errors, "frame_too_large",
                        ErrorJson("frame_too_large", e.what(), tid), tid,
                        "unknown", 0, 0.0);
    } catch (const std::exception&) {
      break;  // mid-frame EOF or socket error: the stream is gone
    }
    if (ChaosInjector::Global().ShouldInject(ChaosSeam::kReadTrunc)) {
      // Behave exactly as if the client died mid-frame: drop the frame
      // and tear the connection down without a response.
      break;
    }

    if (response.empty()) {
      const Clock::time_point received = Clock::now();
      std::shared_ptr<Job> job;
      try {
        auto parsed = ParseServerRequest(payload);
        job = std::make_shared<Job>();
        job->request = std::move(parsed);
        // Admission assigns the trace id: a client-supplied id is
        // kept, everything else gets a fresh one, so every request in
        // the process is joinable across response / spans / access log.
        if (job->request.trace_id == 0) {
          job->request.trace_id = GenerateTraceId();
        }
        job->admitted = received;
        job->bytes_in = payload.size();
        if (Tracer::Enabled()) job->admitted_ns = Tracer::NowNs();
      } catch (const std::exception& e) {
        const std::uint64_t tid = GenerateTraceId();
        response = Refuse(&ServerCounters::parse_errors, "invalid_argument",
                          ErrorJson("invalid_argument", e.what(), tid), tid,
                          "unknown", payload.size(),
                          SecondsBetween(received, Clock::now()));
      }

      if (job != nullptr) {
        std::future<std::string> future = job->response.get_future();
        bool admitted = false;
        bool drained = false;
        bool shed = false;
        double retry_after_ms = 0.0;
        // Only solves shed: ping/stats/metrics are cheap and are exactly
        // what an operator needs while the server is hot.
        const bool sheddable = job->request.op == "map";
        // Refresh the burn signal (throttled) before the admission
        // decision; shedding itself reads queue depth under queue_mu_.
        PollOverload();
        {
          std::lock_guard<std::mutex> lock(queue_mu_);
          if (stop_workers_ || draining_.load(std::memory_order_acquire)) {
            drained = true;
          } else if (sheddable &&
                     overload_.ShouldShed(queue_.size(),
                                          config_.queue_capacity,
                                          &retry_after_ms)) {
            shed = true;
          } else if (queue_.size() >= config_.queue_capacity) {
            // full: reject now, never block the connection
          } else {
            queue_.push_back(job);
            admitted = true;
            PIPEMAP_GAUGE_SET("server.queue_depth", queue_.size());
          }
        }
        if (admitted) {
          queue_cv_.notify_one();
          PIPEMAP_COUNTER_ADD("server.accepted", 1);
          {
            std::lock_guard<std::mutex> lock(counters_mu_);
            ++counters_.accepted;
          }
          response = future.get();
        } else {
          const std::uint64_t tid = job->request.trace_id;
          const std::string& op = job->request.op;
          const double total_s = SecondsBetween(received, Clock::now());
          if (shed) {
            response = Refuse(&ServerCounters::shed, "overloaded",
                              OverloadedJson(retry_after_ms, tid), tid, op,
                              job->bytes_in, total_s);
          } else if (drained) {
            response = Refuse(
                &ServerCounters::drained, "draining",
                ErrorJson("draining", "server is draining; request refused",
                          tid),
                tid, op, job->bytes_in, total_s);
          } else {
            PIPEMAP_COUNTER_ADD("server.rejected", 1);
            response = Refuse(
                &ServerCounters::rejected, "rejected",
                ErrorJson("rejected", "admission queue is full", tid), tid,
                op, job->bytes_in, total_s);
          }
        }
      }
    }

    if (ChaosInjector::Global().ShouldInject(ChaosSeam::kConnDrop)) {
      // The response was computed but the "network" eats it: drop the
      // connection without writing, as a dying peer or a mid-write RST
      // would look to the client.
      break;
    }
    try {
      WriteFrame(conn->fd, response);
    } catch (const std::exception&) {
      break;  // peer went away; nothing left to answer
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->finished.store(true, std::memory_order_release);
}

void PipemapServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || stop_workers_; });
      if (queue_.empty()) return;  // stop_workers_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      PIPEMAP_GAUGE_SET("server.queue_depth", queue_.size());
    }

    const Clock::time_point start = Clock::now();
    // Queue wait counts against the budget: the remaining budget is what
    // is left of deadline_s measured from admission. An already-expired
    // deadline still solves, with a vanishing budget — the engine's
    // portfolio returns the greedy incumbent flagged timed_out instead of
    // the request hanging or silently running unbounded.
    double remaining = 0.0;
    if (Deadline::HasBudget(job->request.deadline_s)) {
      remaining = job->request.deadline_s - SecondsBetween(job->admitted, start);
      if (remaining <= 0.0) remaining = 1e-9;
    }
    const double queue_wait_s = SecondsBetween(job->admitted, start);
    ChaosInjector::Global().MaybeDelay(ChaosSeam::kSolverSlow);
    RequestOutcome outcome;
    // Brownout decision is taken per job at dispatch (not at admission),
    // so a queue drained after recovery serves full-fidelity again.
    PollOverload();
    outcome.degraded = overload_.degraded();
    std::string response = HandleRequest(job->request, remaining, &outcome);
    const Clock::time_point done = Clock::now();
    const double solve_s = SecondsBetween(start, done);
    const double total_s = SecondsBetween(job->admitted, done);
    const std::size_t bytes_out = response.size();
    // Counted before the response is released, so a client that has its
    // answer never reads a stats snapshot that misses it.
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.completed;
    }
    job->response.set_value(std::move(response));

    // Correlated spans, all carrying the trace id as the arg: the whole
    // request from admission, the queue wait inside it, and the handler.
    // Explicit timestamps reconstruct the queue phase the worker never
    // saw live (admitted_ns was stamped by the connection thread).
    if (Tracer::Enabled() && job->admitted_ns != 0) {
      const auto span_arg =
          static_cast<std::int64_t>(job->request.trace_id) >= 0
              ? static_cast<std::int64_t>(job->request.trace_id)
              : std::int64_t{-1};
      const std::uint64_t start_ns =
          job->admitted_ns +
          static_cast<std::uint64_t>(queue_wait_s * 1e9);
      const std::uint64_t solve_ns =
          static_cast<std::uint64_t>(solve_s * 1e9);
      Tracer& tracer = Tracer::Global();
      tracer.Record("server.queue_wait", "server", job->admitted_ns,
                    start_ns - job->admitted_ns, span_arg);
      tracer.Record("server.solve", "server", start_ns, solve_ns, span_arg);
      tracer.Record("server.request", "server", job->admitted_ns,
                    start_ns - job->admitted_ns + solve_ns, span_arg);
    }

    PIPEMAP_HISTOGRAM_RECORD("server.request_us", total_s * 1e6);
    PIPEMAP_HISTOGRAM_RECORD("server.queue_wait_us", queue_wait_s * 1e6);
    PIPEMAP_HISTOGRAM_RECORD("server.solve_us", solve_s * 1e6);
    FinishRequest(job->request.trace_id, job->request.op, outcome,
                  job->bytes_in, bytes_out, queue_wait_s, solve_s, total_s);
  }
}

std::string PipemapServer::HandleRequest(const ServerRequest& request,
                                         double remaining_budget_s,
                                         RequestOutcome* outcome) {
  // Brownout only changes how the solver runs; ops that never solve are
  // served at full fidelity and must not be flagged degraded.
  if (request.op != "map") outcome->degraded = false;
  CircuitBreaker* breaker = SolverBreaker(request.op);
  if (breaker != nullptr && !breaker->Allow()) {
    // The op's recent history is a failure streak: fail fast instead of
    // burning a worker on a request that is overwhelmingly likely to die
    // the same way. Heals via the breaker's half-open probes.
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.breaker_fast_fails;
    }
    PIPEMAP_COUNTER_ADD("server.breaker_fast_fails", 1);
    outcome->status = "circuit_open";
    return ErrorJson("circuit_open",
                     "op '" + request.op +
                         "' is failing repeatedly; circuit breaker is open",
                     request.trace_id);
  }
  std::string response = DispatchRequest(request, remaining_budget_s, outcome);
  if (breaker != nullptr) {
    // Only internal failures count against the breaker: invalid input,
    // infeasibility, and resource limits are the request's fault, and a
    // storm of them must not lock healthy requests out.
    if (outcome->status == "internal") {
      breaker->RecordFailure();
    } else {
      breaker->RecordSuccess();
    }
  }
  return response;
}

std::string PipemapServer::DispatchRequest(const ServerRequest& request,
                                           double remaining_budget_s,
                                           RequestOutcome* outcome) {
  try {
    if (request.op == "ping") {
      JsonWriter w;
      w.BeginObject();
      w.Key("ok").Bool(true);
      w.Key("op").String("ping");
      w.Key("trace_id").String(FormatTraceId(request.trace_id));
      w.Key("draining").Bool(draining());
      w.EndObject();
      return w.str();
    }
    if (request.op == "stats") return HandleStats(request);
    if (request.op == "metrics") return HandleMetrics(request);
    if (request.op == "map") {
      return HandleMap(request, remaining_budget_s, outcome);
    }
    outcome->status = "invalid_argument";
    return ErrorJson("invalid_argument", "unknown op: " + request.op,
                     request.trace_id);
  } catch (const Infeasible& e) {
    outcome->status = "infeasible";
    return ErrorJson("infeasible", e.what(), request.trace_id);
  } catch (const ResourceLimit& e) {
    outcome->status = "resource_limit";
    return ErrorJson("resource_limit", e.what(), request.trace_id);
  } catch (const InvalidArgument& e) {
    outcome->status = "invalid_argument";
    return ErrorJson("invalid_argument", e.what(), request.trace_id);
  } catch (const std::exception& e) {
    outcome->status = "internal";
    return ErrorJson("internal", e.what(), request.trace_id);
  }
}

std::string PipemapServer::HandleMap(const ServerRequest& request,
                                     double budget_s,
                                     RequestOutcome* outcome) {
  if (!request.has_chain || !request.has_machine) {
    throw InvalidArgument("op map needs chain and machine sections");
  }
  const TaskChain chain = ParseChain(request.chain_text);
  const MachineConfig machine = ParseMachine(request.machine_text);

  MapRequest mr;
  mr.chain = &chain;
  mr.machine = machine;
  mr.total_procs = request.procs > 0 ? request.procs : machine.total_procs();
  mr.options.num_threads = request.threads;
  mr.use_cache = request.use_cache;
  mr.time_budget_s = budget_s;  // 0 = no deadline (Deadline::HasBudget)
  mr.trace_id = request.trace_id;
  ApplySolverPolicy(request.objective, request.algorithm, request.floor, &mr);
  if (outcome->degraded) ApplyBrownout(&mr);

  // One Evaluator per request: the engine keys and solves with it, and
  // MakeFeasible and the response's numbers reuse it.
  const Evaluator eval(chain, mr.total_procs, machine.node_memory_bytes,
                       request.threads);
  mr.eval = &eval;
  const MapResponse response = engine_->Map(mr);
  const Mapping mapping =
      FeasibilityChecker(machine).MakeFeasible(response.mapping, eval);

  outcome->timed_out = response.timed_out || response.budget_exhausted;
  if (outcome->timed_out) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.timed_out;
  }
  outcome->solver = response.solver;
  outcome->cache_hit = response.cache_hit;
  outcome->cache_tier = response.cache_tier;
  outcome->shared_solve = response.shared_solve;

  // The numbers describe the served mapping, which MakeFeasible may have
  // changed from the engine's; `solver` and `exact` describe the solve.
  const double latency = eval.Latency(mapping);
  const double objective_value = mr.objective == MapObjective::kThroughput
                                     ? eval.BottleneckResponse(mapping)
                                     : latency;

  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(true);
  w.Key("op").String("map");
  w.Key("degraded").Bool(outcome->degraded);
  w.Key("trace_id").String(FormatTraceId(request.trace_id));
  w.Key("mapping").String(SerializeMapping(mapping));
  w.Key("objective_value").Double(objective_value);
  w.Key("throughput").Double(eval.Throughput(mapping));
  w.Key("latency").Double(latency);
  w.Key("solver").String(response.solver);
  w.Key("exact").Bool(response.exact);
  w.Key("cache_hit").Bool(response.cache_hit);
  w.Key("cache_tier").String(response.cache_tier);
  w.Key("shared_solve").Bool(response.shared_solve);
  w.Key("timed_out").Bool(response.timed_out);
  w.Key("budget_exhausted").Bool(response.budget_exhausted);
  w.Key("deadline_expired").Bool(outcome->timed_out);
  w.Key("solve_seconds").Double(response.solve_seconds);
  w.EndObject();
  return w.str();
}

std::string PipemapServer::HandleStats(const ServerRequest& request) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(true);
  w.Key("op").String("stats");
  w.Key("trace_id").String(FormatTraceId(request.trace_id));
  WriteState(w);
  w.EndObject();
  return w.str();
}

void PipemapServer::WriteState(JsonWriter& w) const {
  const ServerCounters snapshot = counters();
  const SolutionCacheStats cache = engine_->cache().stats();
  const SingleFlightStats flights = engine_->single_flight_stats();
  const SloState slo = slo_.Snapshot();
  const AccessLogger::Stats log_stats = access_log_stats();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
  }
  w.Key("server").BeginObject();
  w.Key("connections").UInt(snapshot.connections);
  w.Key("accepted").UInt(snapshot.accepted);
  w.Key("rejected").UInt(snapshot.rejected);
  w.Key("completed").UInt(snapshot.completed);
  w.Key("timed_out").UInt(snapshot.timed_out);
  w.Key("parse_errors").UInt(snapshot.parse_errors);
  w.Key("drained").UInt(snapshot.drained);
  w.Key("shed").UInt(snapshot.shed);
  w.Key("degraded").UInt(snapshot.degraded);
  w.Key("idle_timeouts").UInt(snapshot.idle_timeouts);
  w.Key("breaker_fast_fails").UInt(snapshot.breaker_fast_fails);
  w.Key("queue_depth").UInt(depth);
  w.Key("queue_capacity").UInt(config_.queue_capacity);
  w.Key("workers").Int(config_.num_workers);
  w.EndObject();
  w.Key("cache").BeginObject();
  w.Key("hits").UInt(cache.hits);
  w.Key("misses").UInt(cache.misses);
  w.Key("evictions").UInt(cache.evictions);
  w.Key("inserts").UInt(cache.inserts);
  w.Key("entries").UInt(cache.entries);
  w.Key("capacity").UInt(cache.capacity);
  w.Key("persist").BeginObject();
  w.Key("enabled").Bool(cache.persist.enabled);
  w.Key("hits").UInt(cache.persist.hits);
  w.Key("misses").UInt(cache.persist.misses);
  w.Key("writes").UInt(cache.persist.writes);
  w.Key("write_drops").UInt(cache.persist.write_drops);
  w.Key("corrupt").UInt(cache.persist.corrupt);
  w.Key("errors").UInt(cache.persist.errors);
  w.Key("evicted").UInt(cache.persist.evicted);
  w.Key("read_only").Bool(cache.persist.read_only);
  w.Key("breaker_state").String(cache.persist.breaker_state);
  w.Key("breaker_opens").UInt(cache.persist.breaker_opens);
  w.Key("breaker_skips").UInt(cache.persist.breaker_skips);
  w.EndObject();
  w.EndObject();
  w.Key("singleflight").BeginObject();
  w.Key("leaders").UInt(flights.leaders);
  w.Key("shared").UInt(flights.shared);
  w.Key("wait_timeouts").UInt(flights.wait_timeouts);
  w.Key("failed_leaders").UInt(flights.failed_leaders);
  w.EndObject();
  w.Key("slo").BeginObject();
  w.Key("window_s").Int(slo.window_s);
  w.Key("requests").UInt(slo.requests);
  w.Key("errors").UInt(slo.errors);
  w.Key("error_rate").Double(slo.error_rate);
  w.Key("p50_ms").Double(slo.p50_ms);
  w.Key("p99_ms").Double(slo.p99_ms);
  w.Key("p99_objective_ms").Double(slo.p99_objective_ms);
  w.Key("error_rate_objective").Double(slo.error_rate_objective);
  w.Key("p99_burn_ratio").Double(slo.p99_burn_ratio);
  w.Key("error_burn_ratio").Double(slo.error_burn_ratio);
  w.Key("p99_breach").Bool(slo.p99_breach);
  w.Key("error_breach").Bool(slo.error_breach);
  w.Key("burning").Bool(slo.burning);
  w.EndObject();
  w.Key("access_log").BeginObject();
  w.Key("enabled").Bool(access_log_ != nullptr);
  w.Key("lines_written").UInt(log_stats.lines_written);
  w.Key("lines_dropped").UInt(log_stats.lines_dropped);
  w.Key("rotations").UInt(log_stats.rotations);
  w.Key("bytes_written").UInt(log_stats.bytes_written);
  w.EndObject();
  const OverloadState overload = overload_.state();
  w.Key("overload").BeginObject();
  w.Key("enabled").Bool(config_.overload_enabled);
  w.Key("burning").Bool(overload.burning);
  w.Key("shedding").Bool(overload.shedding);
  w.Key("degraded").Bool(overload.degraded);
  w.Key("shed_total").UInt(overload.shed_total);
  w.Key("brownout_entries").UInt(overload.brownout_entries);
  w.Key("brownout_recoveries").UInt(overload.brownout_recoveries);
  w.EndObject();
  w.Key("breakers").BeginObject();
  const CircuitBreaker::Stats breaker = map_breaker_.stats();
  w.Key("map").BeginObject();
  w.Key("state").String(ToString(map_breaker_.state()));
  w.Key("opens").UInt(breaker.opens);
  w.Key("rejected").UInt(breaker.rejected);
  w.EndObject();
  w.EndObject();
  ChaosInjector& chaos = ChaosInjector::Global();
  w.Key("chaos").BeginObject();
  w.Key("enabled").Bool(chaos.enabled());
  const ChaosStats chaos_stats = chaos.stats();
  for (int s = 0; s < kChaosSeamCount; ++s) {
    w.Key(ChaosSeamName(static_cast<ChaosSeam>(s)))
        .UInt(chaos_stats.injected[s]);
  }
  w.EndObject();
}

std::string PipemapServer::HandleMetrics(const ServerRequest& request) {
  // Publish the rolling SLO window as gauges first, so one scrape sees a
  // consistent picture: request histograms and burn state side by side.
  PublishSloGauges();
  const std::string exposition =
      PrometheusExposition(MetricsRegistry::Global().Snapshot());
  // Wrapped in the protocol's one-JSON-object response contract; the
  // scraper unwraps `exposition` (tools/check_prometheus.py does). An
  // empty registry (collection off at run time) yields an empty string,
  // which is a valid (empty-series) exposition.
  JsonWriter w;
  w.BeginObject();
  w.Key("ok").Bool(true);
  w.Key("op").String("metrics");
  w.Key("trace_id").String(FormatTraceId(request.trace_id));
  w.Key("content_type").String("text/plain; version=0.0.4");
  w.Key("exposition").String(exposition);
  w.EndObject();
  return w.str();
}

void PipemapServer::PublishSloGauges() {
  const SloState slo = slo_.Snapshot();
  PIPEMAP_GAUGE_SET("slo.window_requests", static_cast<double>(slo.requests));
  PIPEMAP_GAUGE_SET("slo.window_errors", static_cast<double>(slo.errors));
  PIPEMAP_GAUGE_SET("slo.error_rate", slo.error_rate);
  PIPEMAP_GAUGE_SET("slo.p50_ms", slo.p50_ms);
  PIPEMAP_GAUGE_SET("slo.p99_ms", slo.p99_ms);
  PIPEMAP_GAUGE_SET("slo.p99_burn_ratio", slo.p99_burn_ratio);
  PIPEMAP_GAUGE_SET("slo.error_burn_ratio", slo.error_burn_ratio);
  PIPEMAP_GAUGE_SET("slo.burning", slo.burning ? 1.0 : 0.0);
}

void PipemapServer::FinishRequest(std::uint64_t trace_id,
                                  const std::string& op,
                                  const RequestOutcome& outcome,
                                  std::size_t bytes_in, std::size_t bytes_out,
                                  double queue_wait_s, double solve_s,
                                  double total_s) {
  // Shed requests never enter the SLO window: they are backpressure, not
  // served work, and counting them as errors (or as microsecond
  // latencies) would wedge the burn signal on — shedding would cause the
  // error breach that causes shedding.
  if (outcome.status != "overloaded") {
    slo_.Record(total_s * 1e3, outcome.status != "ok");
  }
  if (access_log_ != nullptr) {
    // Hand-rolled compact object: the access log is JSONL, one line per
    // request (JsonWriter pretty-prints across lines). Strings that can
    // carry hostile bytes (op echoes request text) go through the shared
    // escaper, so a line is always one valid JSON document.
    std::string line;
    line.reserve(256);
    line += "{\"trace_id\": \"";
    line += FormatTraceId(trace_id);
    line += "\", \"op\": ";
    JsonWriter::AppendEscaped(line, op);
    line += ", \"status\": ";
    JsonWriter::AppendEscaped(line, outcome.status);
    line += ", \"bytes_in\": " + std::to_string(bytes_in);
    line += ", \"bytes_out\": " + std::to_string(bytes_out);
    line += ", \"queue_wait_us\": " +
            std::to_string(static_cast<std::uint64_t>(queue_wait_s * 1e6));
    line += ", \"solve_us\": " +
            std::to_string(static_cast<std::uint64_t>(solve_s * 1e6));
    line += ", \"total_us\": " +
            std::to_string(static_cast<std::uint64_t>(total_s * 1e6));
    line += std::string(", \"cache_hit\": ") +
            (outcome.cache_hit ? "true" : "false");
    line += ", \"cache_tier\": ";
    JsonWriter::AppendEscaped(line, outcome.cache_tier);
    line += std::string(", \"shared_solve\": ") +
            (outcome.shared_solve ? "true" : "false");
    line += ", \"solver\": ";
    JsonWriter::AppendEscaped(line, outcome.solver);
    line += std::string(", \"timed_out\": ") +
            (outcome.timed_out ? "true" : "false");
    line += std::string(", \"degraded\": ") +
            (outcome.degraded ? "true" : "false");
    line += "}";
    access_log_->Append(line);
  }
}

AccessLogger::Stats PipemapServer::access_log_stats() const {
  if (access_log_ == nullptr) return AccessLogger::Stats{};
  return access_log_->stats();
}

void PipemapServer::FlushAccessLog() {
  if (access_log_ != nullptr) access_log_->Flush();
}

}  // namespace pipemap::server
