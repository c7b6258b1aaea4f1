#include "support/chaos.h"

#include <chrono>
#include <thread>

#include "support/error.h"
#include "support/hash.h"
#include "support/metrics.h"
#include "support/parse.h"

namespace pipemap {

namespace {

/// The decision for (seed, seam, draw): a splitmix64 hash mapped onto
/// [0, 1).
double UnitDraw(std::uint64_t seed, int seam, std::uint64_t draw) {
  const std::uint64_t h = SplitMix64(
      seed ^ SplitMix64(static_cast<std::uint64_t>(seam) * 0x100000001b3ull +
                        draw));
  // Top 53 bits → [0, 1) with full double precision.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

ChaosSeam SeamFromName(std::string_view name, bool* ok) {
  *ok = true;
  for (int s = 0; s < kChaosSeamCount; ++s) {
    if (ChaosSeamName(static_cast<ChaosSeam>(s)) == name) {
      return static_cast<ChaosSeam>(s);
    }
  }
  *ok = false;
  return ChaosSeam::kReadDelay;
}

}  // namespace

std::string_view ChaosSeamName(ChaosSeam seam) {
  switch (seam) {
    case ChaosSeam::kReadDelay:
      return "read_delay";
    case ChaosSeam::kReadTrunc:
      return "read_trunc";
    case ChaosSeam::kConnDrop:
      return "conn_drop";
    case ChaosSeam::kSolverSlow:
      return "solver_slow";
    case ChaosSeam::kPersistWriteFail:
      return "persist_write_fail";
    case ChaosSeam::kPersistReadFail:
      return "persist_read_fail";
  }
  return "unknown";
}

ChaosSpec ParseChaosSpec(std::string_view text) {
  ChaosSpec spec;
  std::size_t pos = 0;
  bool armed_any = false;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    // Tolerate surrounding whitespace so multi-line shell quoting works.
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\n' ||
                              entry.front() == '\t')) {
      entry.remove_prefix(1);
    }
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\n' ||
                              entry.back() == '\t')) {
      entry.remove_suffix(1);
    }
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      throw InvalidArgument("chaos spec: entry '" + std::string(entry) +
                            "' is not name=value");
    }
    const std::string_view name = entry.substr(0, eq);
    const std::string_view value = entry.substr(eq + 1);
    if (name == "seed") {
      const std::optional<int> v = TryParseInt(value);
      if (!v || *v < 0) {
        throw InvalidArgument("chaos spec: seed must be a non-negative "
                              "integer, got '" + std::string(value) + "'");
      }
      spec.seed = static_cast<std::uint64_t>(*v);
      continue;
    }
    bool known = false;
    const ChaosSeam seam = SeamFromName(name, &known);
    if (!known) {
      throw InvalidArgument("chaos spec: unknown seam '" + std::string(name) +
                            "'");
    }
    std::string_view prob_text = value;
    std::string_view delay_text;
    const std::size_t colon = value.find(':');
    if (colon != std::string_view::npos) {
      prob_text = value.substr(0, colon);
      delay_text = value.substr(colon + 1);
    }
    const std::optional<double> prob = TryParseDouble(prob_text);
    if (!prob || *prob < 0.0 || *prob > 1.0) {
      throw InvalidArgument("chaos spec: '" + std::string(name) +
                            "' needs a probability in [0, 1], got '" +
                            std::string(prob_text) + "'");
    }
    spec.probability[static_cast<int>(seam)] = *prob;
    if (!delay_text.empty()) {
      if (delay_text.size() < 3 ||
          delay_text.substr(delay_text.size() - 2) != "ms") {
        throw InvalidArgument("chaos spec: '" + std::string(name) +
                              "' magnitude must end in 'ms', got '" +
                              std::string(delay_text) + "'");
      }
      const std::optional<double> ms =
          TryParseDouble(delay_text.substr(0, delay_text.size() - 2));
      if (!ms || *ms < 0.0) {
        throw InvalidArgument("chaos spec: '" + std::string(name) +
                              "' magnitude must be a non-negative number "
                              "of ms, got '" + std::string(delay_text) + "'");
      }
      spec.delay_ms[static_cast<int>(seam)] = *ms;
    }
    armed_any = armed_any || *prob > 0.0;
  }
  if (!armed_any) {
    throw InvalidArgument("chaos spec: no seam armed (all probabilities 0)");
  }
  return spec;
}

ChaosInjector& ChaosInjector::Global() {
  static ChaosInjector injector;
  return injector;
}

void ChaosInjector::Configure(const ChaosSpec& spec) {
  // Disarm while swapping so concurrent ShouldInject calls never observe
  // a half-written spec, then zero the counters for the new storm.
  enabled_.store(false, std::memory_order_release);
  spec_ = spec;
  for (int s = 0; s < kChaosSeamCount; ++s) {
    draw_counters_[s].store(0, std::memory_order_relaxed);
    injected_[s].store(0, std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_release);
}

void ChaosInjector::Reset() {
  // Atomics only: the spec stays behind unread (every reader checks
  // enabled_ first), so a reset never races a seam crossing.
  enabled_.store(false, std::memory_order_release);
  for (int s = 0; s < kChaosSeamCount; ++s) {
    draw_counters_[s].store(0, std::memory_order_relaxed);
    injected_[s].store(0, std::memory_order_relaxed);
  }
}

bool ChaosInjector::ShouldInject(ChaosSeam seam) {
  if (!enabled_.load(std::memory_order_acquire)) return false;
  const int s = static_cast<int>(seam);
  const double probability = spec_.probability[s];
  if (probability <= 0.0) return false;
  const std::uint64_t draw =
      draw_counters_[s].fetch_add(1, std::memory_order_relaxed);
  const bool inject = UnitDraw(spec_.seed, s, draw) < probability;
  if (inject) {
    injected_[s].fetch_add(1, std::memory_order_relaxed);
    PIPEMAP_COUNTER_ADD("chaos." + std::string(ChaosSeamName(seam)) +
                            ".injected",
                        1);
  }
  return inject;
}

double ChaosInjector::DelayMs(ChaosSeam seam) const {
  if (!enabled_.load(std::memory_order_acquire)) return 0.0;
  return spec_.delay_ms[static_cast<int>(seam)];
}

bool ChaosInjector::MaybeDelay(ChaosSeam seam) {
  if (!ShouldInject(seam)) return false;
  const double ms = DelayMs(seam);
  if (ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(ms * 1e3)));
  }
  return true;
}

ChaosStats ChaosInjector::stats() const {
  ChaosStats out;
  for (int s = 0; s < kChaosSeamCount; ++s) {
    out.injected[s] = injected_[s].load(std::memory_order_relaxed);
    out.draws[s] = draw_counters_[s].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace pipemap
