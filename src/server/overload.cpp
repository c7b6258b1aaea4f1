#include "server/overload.h"

#include <algorithm>

#include "support/metrics.h"

namespace pipemap::server {

namespace {

// Base of the retry_after_ms hint on shed responses.
constexpr double kRetryAfterBaseMs = 100.0;

}  // namespace

OverloadController::OverloadController(OverloadConfig config)
    : config_(config) {}

void OverloadController::ObserveBurnAt(Clock::time_point now, bool burning) {
  if (!config_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!saw_signal_ || burning != burning_) {
    // Signal flipped (or first observation): a new streak starts now.
    burning_ = burning;
    streak_start_ = now;
    saw_signal_ = true;
  }
  const double streak_s =
      std::chrono::duration<double>(now - streak_start_).count();
  if (!degraded_) {
    if (burning_ && config_.brownout_after_s >= 0.0 &&
        streak_s >= config_.brownout_after_s) {
      degraded_ = true;
      ++counters_.brownout_entries;
      PIPEMAP_COUNTER_ADD("server.overload.brownout_entries", 1);
    }
  } else {
    if (!burning_ && streak_s >= config_.recover_after_s) {
      degraded_ = false;
      ++counters_.brownout_recoveries;
      PIPEMAP_COUNTER_ADD("server.overload.brownout_recoveries", 1);
    }
  }
  PIPEMAP_GAUGE_SET("server.overload.degraded", degraded_ ? 1.0 : 0.0);
}

bool OverloadController::ShouldShed(std::size_t queue_depth,
                                    std::size_t queue_capacity,
                                    double* retry_after_ms) {
  if (!config_.enabled) return false;
  bool shed = false;
  double hint_ms = kRetryAfterBaseMs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool depth_signal =
        config_.shed_watermark < 1.0 &&
        static_cast<double>(queue_depth) >=
            config_.shed_watermark * static_cast<double>(queue_capacity);
    shed = burning_ || depth_signal;
    counters_.shedding = shed;
    if (shed) {
      ++counters_.shed_total;
      // Scale the hint with how deep past the watermark the queue is: a
      // client told "come back in 100ms" when the queue is twice the
      // watermark would just shed again on arrival.
      if (queue_capacity > 0) {
        const double fill = static_cast<double>(queue_depth) /
                            static_cast<double>(queue_capacity);
        hint_ms *= std::max(1.0, 1.0 + 4.0 * fill);
      }
      if (degraded_) hint_ms *= 2.0;
    }
  }
  if (shed) {
    PIPEMAP_COUNTER_ADD("server.shed", 1);
    if (retry_after_ms != nullptr) {
      *retry_after_ms = std::min(hint_ms, 10'000.0);
    }
  }
  return shed;
}

bool OverloadController::degraded() const {
  if (!config_.enabled) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

OverloadState OverloadController::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  OverloadState out = counters_;
  out.burning = burning_;
  out.degraded = degraded_;
  return out;
}

}  // namespace pipemap::server
