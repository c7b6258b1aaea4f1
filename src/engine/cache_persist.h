// Persistent tier for the solution cache: one compact file per entry.
//
// A solved mapping is pure function-of-fingerprint, which makes it an
// ideal unit of durable reuse: a restarted pipemap_server or a repeated
// CLI sweep can answer yesterday's fingerprints without re-running the
// DP. The tier is deliberately simple — no index, no compaction:
//
//   * one file per entry, named "<16-hex fingerprint>.pmc" inside the
//     configured cache directory;
//   * a versioned text header (format grammar in DESIGN.md §10) carrying
//     the fingerprint, solve provenance, and an FNV-1a checksum of the
//     byte-counted mapping payload;
//   * writes go to a temp file in the same directory and are published
//     with an atomic rename(2), so readers never observe a torn entry;
//   * reads are lazy (only on an in-memory miss) and any malformation —
//     truncation, bad checksum, wrong version, fingerprint mismatch —
//     is skipped loudly: a stderr line plus the persist.corrupt counter,
//     never a wrong answer. A corrupt entry heals itself when the re-solve
//     overwrites it. Entries of older formats (`pipemap-cache v1`, keyed
//     by a text fingerprint, and v2, whose key did not fold the
//     feasibility table) are never migrated: their names do not match v3
//     keys, and one that did would be skipped as a wrong version.
//
// Writes are write-behind: Store enqueues a copy into a bounded queue
// drained by a dedicated writer thread (same discipline as
// support/access_log.h), so persistence never adds filesystem latency to
// a solve. A full queue drops the write and counts the drop — the entry
// stays correct in memory and simply is not durable this round. Flush()
// drains the queue for tests and orderly shutdown; durability is
// rename-atomic but not fsync-durable (a host crash may lose the tail,
// which only ever costs a re-solve).
//
// Robustness (DESIGN.md §12):
//
//   * ownership — Enable takes an advisory flock(2) on "pipemap.lock"
//     inside the directory. A second process (or instance) opening the
//     same directory does NOT get write access: it falls back loudly to
//     read-only probing (loads work, stores are dropped and counted), so
//     two daemons can never interleave writer threads on one directory.
//     The lock dies with the process, so a crashed owner never wedges
//     the directory.
//   * bounded size — a non-zero max_bytes arms an eviction sweep: usage
//     is scanned at Enable and tracked per write, and crossing the bound
//     deletes the oldest entries (by mtime) until usage is back under
//     ~90% of it. Evictions are counted (persist.evicted).
//   * circuit breaker — consecutive disk *errors* (failed writes/renames,
//     failed reads other than absence) open a breaker that bypasses the
//     tier: loads fast-miss and stores drop without touching the disk,
//     until a cooldown elapses and a half-open probe heals it
//     (support/circuit_breaker.h). A sick disk costs solves, never
//     stalls or error-storms them.
//   * chaos — the persist_write_fail / persist_read_fail seams
//     (support/chaos.h) inject exactly those errors under a seeded spec,
//     which is how the breaker path stays tested.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "engine/cached_solution.h"
#include "support/circuit_breaker.h"

namespace pipemap {

/// Counters of one persistence tier. All zero when disabled.
struct PersistTierStats {
  bool enabled = false;
  /// Another process holds the directory's advisory lock: loads still
  /// probe, stores are dropped (counted in write_drops).
  bool read_only = false;
  std::uint64_t hits = 0;         ///< lookups answered from disk
  std::uint64_t misses = 0;       ///< disk probed, no usable entry
  std::uint64_t writes = 0;       ///< entries published to disk
  std::uint64_t write_drops = 0;  ///< queue full, read-only, or breaker open
  std::uint64_t corrupt = 0;      ///< malformed entries skipped (⊆ misses)
  std::uint64_t errors = 0;       ///< write/rename/read I/O failures
  std::uint64_t evicted = 0;      ///< entries deleted by the size sweep
  /// Disk-error circuit breaker (support/circuit_breaker.h).
  std::string breaker_state = "closed";
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_skips = 0;  ///< loads/stores bypassed while open
};

/// File name of `key`'s entry within a cache directory: "<16hex>.pmc".
std::string CacheEntryFileName(std::uint64_t key);

/// Serializes one entry in the on-disk format (header + checksummed
/// payload + terminator). Exact inverse of DecodeCacheEntry.
std::string EncodeCacheEntry(std::uint64_t key, const CachedSolution& value);

/// Parses an entry's bytes, validating version, fingerprint (must equal
/// `key`), payload checksum, and terminator. Returns nullopt on any
/// malformation, with a one-line reason in *error when non-null.
std::optional<CachedSolution> DecodeCacheEntry(std::uint64_t key,
                                               std::string_view bytes,
                                               std::string* error = nullptr);

/// How a DiskPersistence tier is armed. `dir` is required; the rest tune
/// the robustness machinery.
struct DiskPersistOptions {
  std::string dir;
  /// Disk budget for the tier's entries; 0 = unbounded (the pre-bound
  /// behavior). Crossing it evicts oldest entries by mtime.
  std::uint64_t max_bytes = 0;
  /// Disk-error breaker: consecutive errors that open it (<= 0 disables)
  /// and the open cooldown before a half-open probe.
  int breaker_failures = 3;
  double breaker_cooldown_s = 5.0;
};

/// The solution cache's disk tier: disabled (and free) until Enable(dir)
/// points it at a directory.
class DiskPersistence {
 public:
  DiskPersistence() = default;
  /// Drains pending writes, then stops the writer.
  ~DiskPersistence();

  DiskPersistence(const DiskPersistence&) = delete;
  DiskPersistence& operator=(const DiskPersistence&) = delete;

  /// Creates the directory (and parents) if needed, takes the advisory
  /// lock (falling back to read-only on contention), runs the startup
  /// size sweep when bounded, and starts the write-behind thread.
  /// Idempotent for the same directory; throws InvalidArgument when
  /// already enabled on a different one, or when the directory cannot be
  /// created.
  void Enable(const DiskPersistOptions& options);
  void Enable(const std::string& dir) {
    DiskPersistOptions options;
    options.dir = dir;
    Enable(options);
  }

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  /// The configured directory; empty until Enable.
  std::string dir() const;
  /// This instance lost the advisory-lock race and only probes.
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Synchronously reads and validates `key`'s entry. Counts a tier hit,
  /// miss, or corrupt-skip. Returns nullopt when disabled, or instantly
  /// when the disk breaker is open.
  std::optional<CachedSolution> Load(std::uint64_t key);

  /// Enqueues `value` for write-behind publication. Never blocks on I/O;
  /// drops (and counts) when the queue is full, the tier is read-only,
  /// or the disk breaker is open. No-op when disabled.
  void Store(std::uint64_t key, CachedSolution value);

  /// Blocks until every Store accepted before the call is published (or
  /// failed and was counted). Test/shutdown seam, not a hot-path call.
  void Flush();

  PersistTierStats stats() const;

 private:
  void WriterLoop();
  /// Temp-write + atomic rename of one entry. Writer thread only.
  void PublishEntry(std::uint64_t key, const CachedSolution& value);
  /// Rescans the directory and deletes oldest entries until usage is
  /// under ~90% of max_bytes. Writer thread (or Enable) only.
  void SweepDisk();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> read_only_{false};

  mutable std::mutex mu_;
  std::string dir_;  // set under mu_ before enabled_; immutable after
  std::condition_variable cv_;        // wakes the writer
  std::condition_variable flush_cv_;  // wakes Flush waiters
  std::deque<std::pair<std::uint64_t, CachedSolution>> queue_;
  std::size_t queue_capacity_ = 1024;
  std::uint64_t accepted_seq_ = 0;   // stores accepted into the queue
  std::uint64_t published_seq_ = 0;  // stores written (or failed+counted)
  std::uint64_t temp_seq_ = 0;       // temp-name uniquifier; writer only
  bool stop_ = false;

  /// Advisory-lock fd on <dir>/pipemap.lock; held for the instance's
  /// lifetime (the OS releases it if the process dies). -1 = none.
  int lock_fd_ = -1;

  /// Size bound. usage is an estimate maintained by the writer (exact
  /// rescan happens inside each sweep); both only touched by Enable and
  /// the writer thread once enabled.
  std::uint64_t max_bytes_ = 0;
  std::uint64_t usage_bytes_ = 0;

  /// Disk-error breaker: consecutive write/rename/read errors open it.
  /// Emplaced by Enable (its config arrives then); always set once the
  /// tier is enabled, which every caller checks first.
  std::optional<CircuitBreaker> breaker_;
  std::atomic<std::uint64_t> breaker_skips_{0};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> write_drops_{0};
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> evicted_{0};

  std::thread writer_;
};

}  // namespace pipemap
