// CircuitBreaker: the three-state machine driven through the explicit
// *At entry points so every transition is pinned against a synthetic
// clock — trip on a failure streak, refuse while open, probe half-open
// after the cooldown, close on probe success, slam back open on probe
// failure.
#include "support/circuit_breaker.h"

#include <string>

#include "gtest/gtest.h"

namespace pipemap {
namespace {

using Clock = CircuitBreaker::Clock;
using State = CircuitBreaker::State;

Clock::time_point At(double seconds) {
  return Clock::time_point{} + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
}

CircuitBreaker::Config SmallConfig() {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  config.cooldown_s = 2.0;
  return config;
}

TEST(CircuitBreakerTest, StaysClosedBelowTheFailureStreak) {
  CircuitBreaker breaker(SmallConfig());
  for (int i = 0; i < 2; ++i) breaker.RecordFailureAt(At(0.1 * i));
  EXPECT_EQ(breaker.StateAt(At(1.0)), State::kClosed);
  EXPECT_TRUE(breaker.AllowAt(At(1.0)));
  // A success resets the streak: two more failures still don't trip it.
  breaker.RecordSuccessAt(At(1.0));
  breaker.RecordFailureAt(At(1.1));
  breaker.RecordFailureAt(At(1.2));
  EXPECT_EQ(breaker.StateAt(At(1.3)), State::kClosed);
  EXPECT_EQ(breaker.stats().opens, 0u);
}

TEST(CircuitBreakerTest, TripsOpenAndRefusesUntilTheCooldown) {
  CircuitBreaker breaker(SmallConfig());
  for (int i = 0; i < 3; ++i) breaker.RecordFailureAt(At(0.0));
  EXPECT_EQ(breaker.StateAt(At(0.5)), State::kOpen);
  EXPECT_FALSE(breaker.AllowAt(At(0.5)));
  EXPECT_FALSE(breaker.AllowAt(At(1.9)));
  EXPECT_EQ(breaker.stats().opens, 1u);
  EXPECT_EQ(breaker.stats().rejected, 2u);
}

TEST(CircuitBreakerTest, HalfOpenProbeSuccessCloses) {
  CircuitBreaker breaker(SmallConfig());
  for (int i = 0; i < 3; ++i) breaker.RecordFailureAt(At(0.0));
  // Cooldown elapsed: exactly one probe is admitted, extra calls are
  // refused while it is in flight.
  EXPECT_EQ(breaker.StateAt(At(2.5)), State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowAt(At(2.5)));
  EXPECT_FALSE(breaker.AllowAt(At(2.6)));
  breaker.RecordSuccessAt(At(2.7));
  EXPECT_EQ(breaker.StateAt(At(2.8)), State::kClosed);
  EXPECT_TRUE(breaker.AllowAt(At(2.8)));
  EXPECT_EQ(breaker.stats().opens, 1u);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  CircuitBreaker breaker(SmallConfig());
  for (int i = 0; i < 3; ++i) breaker.RecordFailureAt(At(0.0));
  EXPECT_TRUE(breaker.AllowAt(At(2.5)));  // the probe
  breaker.RecordFailureAt(At(2.6));
  // Slammed open again: the new cooldown is anchored at the probe
  // failure, not the original trip.
  EXPECT_EQ(breaker.StateAt(At(3.0)), State::kOpen);
  EXPECT_FALSE(breaker.AllowAt(At(4.5)));
  EXPECT_TRUE(breaker.AllowAt(At(4.7)));  // 2.6 + 2.0 elapsed
  EXPECT_EQ(breaker.stats().opens, 2u);
}

TEST(CircuitBreakerTest, NonPositiveThresholdDisablesEntirely) {
  CircuitBreaker::Config config;
  config.failure_threshold = 0;
  CircuitBreaker breaker(config);
  for (int i = 0; i < 100; ++i) breaker.RecordFailureAt(At(0.0));
  EXPECT_EQ(breaker.StateAt(At(0.0)), State::kClosed);
  EXPECT_TRUE(breaker.AllowAt(At(0.0)));
  EXPECT_EQ(breaker.stats().opens, 0u);
  EXPECT_EQ(breaker.stats().rejected, 0u);
}

TEST(CircuitBreakerTest, DefaultConstructedUsesDefaultConfig) {
  CircuitBreaker breaker;
  EXPECT_EQ(breaker.config().failure_threshold, 5);
  for (int i = 0; i < 5; ++i) breaker.RecordFailureAt(At(0.0));
  EXPECT_EQ(breaker.StateAt(At(0.0)), State::kOpen);
}

TEST(CircuitBreakerTest, StateTokensForJsonSurfaces) {
  EXPECT_EQ(std::string(ToString(State::kClosed)), "closed");
  EXPECT_EQ(std::string(ToString(State::kOpen)), "open");
  EXPECT_EQ(std::string(ToString(State::kHalfOpen)), "half_open");
}

}  // namespace
}  // namespace pipemap
