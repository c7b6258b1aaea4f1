#ifndef PIPEMAP_SUPPORT_DEADLINE_H_
#define PIPEMAP_SUPPORT_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

namespace pipemap {

/// Cooperative deadline token threaded through solver inner loops.
///
/// Solvers poll `expired()` at loop boundaries (per DP stage, per sweep row,
/// per enumeration leaf) and, when it fires, stop refining and return the best
/// incumbent found so far with a `timed_out` provenance flag. The token never
/// interrupts anything preemptively — a solver that ignores it simply runs to
/// completion, which keeps correctness independent of where checks are placed.
///
/// `expired()` is safe to call concurrently from pool workers. Clock reads are
/// throttled: only one in `kCheckStride` calls touches `steady_clock`, the
/// rest are two relaxed atomic ops. Expiry is sticky — once observed, every
/// subsequent call returns true without consulting the clock, so workers that
/// race past the stride boundary all converge on the same answer.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Deadline(Clock::time_point at) : at_(at) {}

  /// A deadline `seconds` from now. Non-finite or huge values yield a token
  /// that never expires (time_point::max()). A zero or negative value is an
  /// ALREADY-EXPIRED deadline — check HasBudget first when the caller's
  /// convention is "0/unset means no time limit".
  static std::shared_ptr<const Deadline> After(double seconds) {
    return std::make_shared<const Deadline>(TimePointAfter(seconds));
  }

  /// The pinned budget contract at the engine/server boundary: a
  /// `time_budget_s`-style field constrains the solve only when it is a
  /// positive finite number of seconds. Zero, negative, NaN, and infinity
  /// all mean "no budget" — callers historically used 0/unset
  /// interchangeably for "unlimited", and After(0)'s expire-immediately
  /// reading turned that into solves that gave up at the starting line.
  static bool HasBudget(double seconds) {
    return std::isfinite(seconds) && seconds > 0.0;
  }

  /// A deadline `seconds` after an externally chosen anchor, so callers that
  /// measured their own start time (e.g. the mapping engine) can make the
  /// in-solver deadline agree with their between-stage budget accounting.
  static std::shared_ptr<const Deadline> AfterAnchor(Clock::time_point anchor,
                                                     double seconds) {
    return std::make_shared<const Deadline>(TimePointFrom(anchor, seconds));
  }

  /// True once the deadline has passed. Sticky; throttled; thread-safe.
  bool expired() const {
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (check_countdown_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      return false;
    }
    check_countdown_.store(kCheckStride, std::memory_order_relaxed);
    if (Clock::now() >= at_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Like expired() but always consults the clock — for infrequent
  /// call sites (stage boundaries) where staleness would be costly.
  bool ExpiredNow() const {
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (Clock::now() >= at_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  // How many throttled expired() calls pass between clock reads. Small enough
  // that a deadline is noticed within microseconds of work, large enough that
  // the clock read disappears from hot-loop profiles.
  static constexpr std::int64_t kCheckStride = 64;

  static Clock::time_point TimePointAfter(double seconds) {
    return TimePointFrom(Clock::now(), seconds);
  }

  static Clock::time_point TimePointFrom(Clock::time_point anchor,
                                         double seconds) {
    if (!std::isfinite(seconds) || seconds > 1e12) {
      return Clock::time_point::max();
    }
    if (seconds <= 0) return anchor;
    return anchor + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  }

  Clock::time_point at_;
  // `expired()` is conceptually const; the bookkeeping below is not.
  mutable std::atomic<bool> expired_{false};
  // Starts at 0 so the very first call reads the clock (catches
  // already-expired deadlines immediately).
  mutable std::atomic<std::int64_t> check_countdown_{0};
};

}  // namespace pipemap

#endif  // PIPEMAP_SUPPORT_DEADLINE_H_
