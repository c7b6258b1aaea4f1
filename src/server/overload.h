// Overload control for pipemap_server: adaptive load shedding and
// brownout (degraded-mode) serving, driven by the SLO monitor's burn
// state and the admission queue depth.
//
// The problem: under sustained overload a bounded queue can only fill
// up and reject, and every admitted request rots behind a queue of
// doomed work — p99 grows with queue depth while goodput stays flat.
// The graceful middle ground is to *shed early* and *serve cheaper*:
//
//   * shedding — while the SLO window is burning OR the queue depth is
//     at/above a watermark (a fraction of capacity), new requests are
//     refused immediately with an `overloaded` error carrying a
//     `retry_after_ms` hint, instead of being admitted to rot. Shedding
//     is instantaneous: it starts the moment the signal is present and
//     stops the moment it clears.
//   * brownout — when the burn signal has been continuously present for
//     `brownout_after_s`, the worker pool downgrades solve-shaped ops to
//     the greedy-only solver under a short deadline
//     (`degraded_deadline_s`), flagging responses `degraded: true`.
//     Brownout recovers via hysteresis: only after the burn signal has
//     been continuously absent for `recover_after_s` does serving return
//     to the full portfolio — a flapping signal cannot flap the mode.
//
// State machine (DESIGN.md §12):
//
//        burn sustained >= brownout_after_s
//   normal ───────────────────────────────► brownout
//      ▲                                       │
//      └───────────────────────────────────────┘
//        burn clear sustained >= recover_after_s
//
// The controller is pure bookkeeping — it never samples a clock or the
// SLO monitor itself. The server feeds it (ObserveBurn at a bounded
// poll cadence, ShouldShed per admission), and every method has an
// explicit-time variant so tests drive the whole machine
// deterministically.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

namespace pipemap::server {

struct OverloadConfig {
  /// Queue-depth shed watermark as a fraction of queue capacity; a depth
  /// at/above `watermark * capacity` sheds. >= 1.0 disables depth-based
  /// shedding (the queue-full rejection still applies).
  double shed_watermark = 0.75;
  /// Continuous burn before brownout engages. < 0 disables brownout.
  double brownout_after_s = 3.0;
  /// Continuous non-burn before brownout disengages.
  double recover_after_s = 5.0;
  /// Solver deadline for degraded solves.
  double degraded_deadline_s = 0.05;
  /// Master switch: false restores the pre-overload-layer behavior
  /// (admit until full, never degrade).
  bool enabled = true;
};

struct OverloadState {
  bool burning = false;    ///< last observed burn signal
  bool shedding = false;   ///< last shed decision's signal state
  bool degraded = false;   ///< brownout active
  std::uint64_t shed_total = 0;          ///< requests refused by shedding
  std::uint64_t brownout_entries = 0;    ///< normal → brownout transitions
  std::uint64_t brownout_recoveries = 0; ///< brownout → normal transitions
};

class OverloadController {
 public:
  using Clock = std::chrono::steady_clock;

  explicit OverloadController(OverloadConfig config = {});

  /// Feeds the burn signal (typically SloState::burning). The server
  /// polls the SLO monitor at a bounded cadence and forwards it here;
  /// the controller advances the brownout state machine on every call.
  void ObserveBurn(bool burning) { ObserveBurnAt(Clock::now(), burning); }
  void ObserveBurnAt(Clock::time_point now, bool burning);

  /// One admission decision. Returns true when the request must be shed;
  /// `retry_after_ms`, when non-null, receives the backpressure hint for
  /// the error response. Counts each shed.
  bool ShouldShed(std::size_t queue_depth, std::size_t queue_capacity,
                  double* retry_after_ms = nullptr);

  /// Brownout active: solve-shaped ops downgrade to greedy-only under
  /// degraded_deadline_s.
  bool degraded() const;

  OverloadState state() const;
  const OverloadConfig& config() const { return config_; }

 private:
  OverloadConfig config_;
  mutable std::mutex mu_;
  bool burning_ = false;
  bool degraded_ = false;
  bool saw_signal_ = false;  ///< ObserveBurn has been called at least once
  /// When the current burn (or clear) streak started.
  Clock::time_point streak_start_{};
  OverloadState counters_;
};

}  // namespace pipemap::server
