// Deterministic, seeded chaos injection for fault-storm testing.
//
// Production code declares *named seams* — places where the real world
// can fail: a socket read that stalls, a connection that dies
// mid-response, a solver that suddenly runs slow, a cache file that
// cannot be written. A chaos spec arms some subset of those seams with
// an injection probability (and, where it matters, a magnitude); CI then
// drives the server through a fault storm and asserts the invariants
// that must survive one — zero malformed responses, no hangs, clean
// drain (tools/chaos_smoke.py, DESIGN.md §12).
//
// Spec grammar (--chaos on pipemap_server):
//
//   spec    := entry (',' entry)*
//   entry   := 'seed=' uint64
//            | seam '=' prob                  probability in [0, 1]
//            | seam '=' prob ':' millis 'ms'  probability + magnitude
//   seam    := read_delay | read_trunc | conn_drop | solver_slow
//            | persist_write_fail | persist_read_fail
//
// e.g.  --chaos "seed=7,read_delay=0.05:20ms,conn_drop=0.02,
//                solver_slow=0.1:50ms,persist_write_fail=0.25"
//
// Seams:
//   read_delay          sleep before reading a request frame (slow client)
//   read_trunc          treat a received frame as truncated: the
//                       connection is torn down as if the client died
//                       mid-frame
//   conn_drop           drop the connection after computing a response,
//                       before writing it (client sees a dead socket)
//   solver_slow         sleep before running a request's handler
//   persist_write_fail  fail publishing a cache entry to disk
//   persist_read_fail   fail opening a cache entry for read
//
// Determinism: every seam keeps its own atomic draw counter, and the
// decision for draw N is a pure hash of (seed, seam, N) compared against
// the armed probability — so a given seam's Nth crossing always decides
// the same way for the same seed, independent of wall clock or other
// seams. (Thread interleaving can still reorder which *request* gets
// draw N; the per-seam decision sequence itself is fixed.)
//
// The injector is process-global and dormant by default: an unarmed
// process pays one relaxed atomic load per seam crossing. Injections are
// counted per seam (stats() and chaos.<seam>.injected metrics).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace pipemap {

/// The named seams. Keep kSeamCount in sync; ChaosSeamName maps to the
/// spec-grammar token.
enum class ChaosSeam : int {
  kReadDelay = 0,
  kReadTrunc,
  kConnDrop,
  kSolverSlow,
  kPersistWriteFail,
  kPersistReadFail,
};
inline constexpr int kChaosSeamCount = 6;

std::string_view ChaosSeamName(ChaosSeam seam);

/// A parsed chaos spec: per-seam probability and magnitude.
struct ChaosSpec {
  std::uint64_t seed = 1;
  std::array<double, kChaosSeamCount> probability{};  // 0 = unarmed
  std::array<double, kChaosSeamCount> delay_ms{};     // magnitude seams
};

/// Parses the grammar above. Throws pipemap::InvalidArgument with a
/// one-line reason on unknown seams, probabilities outside [0, 1],
/// malformed numbers, or garbage magnitudes.
ChaosSpec ParseChaosSpec(std::string_view text);

/// Per-seam injection counts since Configure (or Reset).
struct ChaosStats {
  std::array<std::uint64_t, kChaosSeamCount> injected{};
  std::array<std::uint64_t, kChaosSeamCount> draws{};
};

/// The process-global injector. All methods are thread-safe.
class ChaosInjector {
 public:
  static ChaosInjector& Global();

  /// Arms the injector with `spec`. Call only while no thread crosses a
  /// seam: before traffic starts (the daemon does it during flag parsing,
  /// a test before its server starts).
  void Configure(const ChaosSpec& spec);
  /// Disarms every seam and zeroes counters — the test-suite seam. Touches
  /// only atomics, so it is safe while seams are being crossed.
  void Reset();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Draws seam's next decision: true = inject. Unarmed seams (or a
  /// disarmed injector) never inject and never consume a draw.
  bool ShouldInject(ChaosSeam seam);

  /// The seam's configured magnitude in milliseconds (0 when unset).
  double DelayMs(ChaosSeam seam) const;

  /// ShouldInject and, when it fires, sleep the seam's configured
  /// magnitude. Convenience for the two sleep-shaped seams.
  bool MaybeDelay(ChaosSeam seam);

  ChaosStats stats() const;

 private:
  ChaosInjector() = default;

  std::atomic<bool> enabled_{false};
  ChaosSpec spec_;
  std::array<std::atomic<std::uint64_t>, kChaosSeamCount> draw_counters_{};
  std::array<std::atomic<std::uint64_t>, kChaosSeamCount> injected_{};
};

}  // namespace pipemap
