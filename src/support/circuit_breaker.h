// Circuit breaker: fail fast when a dependency keeps failing, probe it
// back to health instead of hammering it.
//
// Classic three-state machine:
//
//   * closed    — everything flows; consecutive failures are counted and
//                 a streak of `failure_threshold` trips the breaker open;
//   * open      — Allow() refuses instantly (the caller serves a fallback
//                 or an error) until `cooldown_s` has elapsed;
//   * half-open — after the cooldown, one call is let through as a
//                 probe. Its success closes the breaker and resets the
//                 streak; its failure slams it open again for another
//                 cooldown.
//
// Used by the persistent cache tier (consecutive disk errors bypass the
// disk tier, DESIGN.md §12) and by the server's per-op solver breakers
// (repeated internal solver failures fail fast instead of burning a
// worker on every doomed request). Thread-safe; the *At variants take an
// explicit time point so tests drive the clock deterministically.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

namespace pipemap {

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  enum class State { kClosed, kOpen, kHalfOpen };

  struct Config {
    /// Consecutive failures that trip the breaker. <= 0 disables it
    /// entirely (Allow always true, state pinned closed).
    int failure_threshold = 5;
    /// Seconds the breaker stays open before half-open probing.
    double cooldown_s = 2.0;
  };

  struct Stats {
    std::uint64_t opens = 0;     ///< closed/half-open → open transitions
    std::uint64_t rejected = 0;  ///< Allow() == false fast-fails
  };

  // Two ctors instead of one defaulted-argument ctor: GCC cannot build a
  // default argument from Config's member initializers inside the
  // enclosing class.
  CircuitBreaker() = default;
  explicit CircuitBreaker(Config config) : config_(config) {}

  /// May this call proceed? Open breakers refuse (counted) until the
  /// cooldown expires; half-open admits one probe.
  bool Allow() { return AllowAt(Clock::now()); }
  bool AllowAt(Clock::time_point now) {
    if (config_.failure_threshold <= 0) return true;
    std::lock_guard<std::mutex> lock(mu_);
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen: {
        const double waited =
            std::chrono::duration<double>(now - opened_at_).count();
        if (waited < config_.cooldown_s) {
          ++stats_.rejected;
          return false;
        }
        state_ = State::kHalfOpen;
        probe_in_flight_ = false;
        [[fallthrough]];
      }
      case State::kHalfOpen:
        if (probe_in_flight_) {
          ++stats_.rejected;
          return false;
        }
        probe_in_flight_ = true;
        return true;
    }
    return true;
  }

  /// Reports the outcome of an allowed call.
  void RecordSuccess() { RecordSuccessAt(Clock::now()); }
  void RecordSuccessAt(Clock::time_point) {
    if (config_.failure_threshold <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    consecutive_failures_ = 0;
    if (state_ == State::kHalfOpen) {
      state_ = State::kClosed;
      probe_in_flight_ = false;
    }
  }
  void RecordFailure() { RecordFailureAt(Clock::now()); }
  void RecordFailureAt(Clock::time_point now) {
    if (config_.failure_threshold <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kHalfOpen) {
      // A failed probe: straight back to open for another cooldown.
      state_ = State::kOpen;
      opened_at_ = now;
      probe_in_flight_ = false;
      ++stats_.opens;
      return;
    }
    if (state_ == State::kClosed &&
        ++consecutive_failures_ >= config_.failure_threshold) {
      state_ = State::kOpen;
      opened_at_ = now;
      consecutive_failures_ = 0;
      ++stats_.opens;
    }
  }

  State state() const { return StateAt(Clock::now()); }
  /// The state as a caller at `now` would observe it (an open breaker
  /// whose cooldown has elapsed reports half-open).
  State StateAt(Clock::time_point now) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kOpen &&
        std::chrono::duration<double>(now - opened_at_).count() >=
            config_.cooldown_s) {
      return State::kHalfOpen;
    }
    return state_;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  const Config& config() const { return config_; }

 private:
  Config config_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  Clock::time_point opened_at_{};
  Stats stats_;
};

/// Human-readable state token for stats/JSON surfaces.
inline const char* ToString(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

}  // namespace pipemap
