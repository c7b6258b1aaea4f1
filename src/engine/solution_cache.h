// Sharded LRU cache of mapping solutions, keyed by request fingerprint,
// with an optional disk tier.
//
// The engine sees the same problem repeatedly: a frontier sweep rerun with
// one flag changed, a simulator mapping the workload it just mapped, a
// benchmark iterating, a server fleet re-solving yesterday's traffic.
// Solves cost seconds; a lookup costs a hash and a mutex. Values store the
// *serialized* mapping text (io/serialize.h) rather than the Mapping
// struct, so the cache-correctness contract — a cached solution is
// byte-identical to a recomputed one — is directly testable by string
// comparison, and a hit replays exactly the bytes a cold solve would have
// produced.
//
// The key's low bits pick one of `shards` independently locked LRU
// shards, so concurrent engine users do not serialize on one lock. The
// disk tier (one checksummed file per fingerprint, engine/cache_persist.h)
// stays disabled until EnablePersistence(dir); when enabled, a memory miss
// lazily probes disk and a hit there rehydrates the memory LRU, while
// inserts spill write-behind so restarts start warm. With the disk tier
// off the cache behaves byte-for-byte like the original hand-written
// sharded LRU, pinned by tests/engine/cache_policies_test.cpp, which
// drives this class and a verbatim copy of the old implementation with
// identical operation sequences.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/cache_persist.h"
#include "engine/cached_solution.h"
#include "support/metrics.h"

namespace pipemap {

struct SolutionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
  /// Persistent tier (all zero when no cache dir is configured). A disk
  /// hit counts as a regular hit above AND a persist.hits here; the
  /// rehydrating memory insert it triggers is NOT counted in inserts, so
  /// the hits+misses+inserts accounting identity survives restarts.
  PersistTierStats persist;
};

class SolutionCache {
 public:
  /// `capacity` entries total, split evenly over `shards` shards (each
  /// shard rounded up to hold at least one entry).
  explicit SolutionCache(std::size_t capacity = 256, std::size_t shards = 8) {
    shards = std::max<std::size_t>(1, shards);
    capacity = std::max<std::size_t>(shards, capacity);
    per_shard_capacity_ = (capacity + shards - 1) / shards;
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
    stats_.capacity = per_shard_capacity_ * shards;
  }

  SolutionCache(const SolutionCache&) = delete;
  SolutionCache& operator=(const SolutionCache&) = delete;

  /// Returns the cached solution and refreshes its LRU position, or
  /// nullopt. A memory miss probes the persistent tier when one is
  /// enabled; a disk hit (CachedSolution::from_disk set) also rehydrates
  /// the memory tier. Counts a hit or miss either way.
  std::optional<CachedSolution> Lookup(std::uint64_t key) {
    Shard& shard = ShardFor(key);
    std::optional<CachedSolution> result;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        result = it->second->second;
      }
    }
    bool evicted = false;
    if (!result && persist_.enabled()) {
      if (std::optional<CachedSolution> loaded = persist_.Load(key)) {
        // Rehydrate the memory tier so repeats are pure memory hits. The
        // load is not a caller insert — only its eviction is counted.
        CachedSolution resident = *loaded;
        resident.from_disk = false;
        evicted = InsertEntry(key, std::move(resident));
        result = std::move(loaded);
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++(result ? stats_.hits : stats_.misses);
      if (evicted) ++stats_.evictions;
    }
    if (result) {
      PIPEMAP_COUNTER_ADD("engine.cache.hits", 1);
    } else {
      PIPEMAP_COUNTER_ADD("engine.cache.misses", 1);
    }
    if (evicted) PIPEMAP_COUNTER_ADD("engine.cache.evictions", 1);
    return result;
  }

  /// Inserts (or refreshes) `value` under `key`, evicting the shard's
  /// least recently used entry when full, and spills the entry
  /// write-behind to the persistent tier when one is enabled.
  void Insert(std::uint64_t key, CachedSolution value) {
    value.from_disk = false;
    if (persist_.enabled()) persist_.Store(key, value);
    const bool evicted = InsertEntry(key, std::move(value));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.inserts;
      if (evicted) ++stats_.evictions;
    }
    PIPEMAP_COUNTER_ADD("engine.cache.inserts", 1);
    if (evicted) PIPEMAP_COUNTER_ADD("engine.cache.evictions", 1);
  }

  SolutionCacheStats stats() const {
    SolutionCacheStats out;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      out = stats_;
    }
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out.entries += shard->lru.size();
    }
    out.persist = persist_.stats();
    return out;
  }

  /// Drops every resident entry. The persistent tier, when enabled, is
  /// untouched: Clear is a memory reset, not a forget.
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.clear();
      shard->index.clear();
    }
  }

  /// Points the disk tier at `dir` (see DiskPersistence::Enable).
  void EnablePersistence(const std::string& dir) { persist_.Enable(dir); }
  /// Same, with the full robustness knobs (size bound, disk breaker).
  void EnablePersistence(const DiskPersistOptions& options) {
    persist_.Enable(options);
  }

  /// Blocks until every accepted write-behind spill is on disk. No-op
  /// when persistence is disabled.
  void FlushPersistence() { persist_.Flush(); }

  bool persistence_enabled() const { return persist_.enabled(); }
  std::string persistence_dir() const { return persist_.dir(); }

 private:
  struct Shard {
    std::mutex mu;
    /// Most recently used first.
    std::list<std::pair<std::uint64_t, CachedSolution>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
  };

  Shard& ShardFor(std::uint64_t key) {
    return *shards_[static_cast<std::size_t>(key) % shards_.size()];
  }

  /// Refresh-or-insert under the shard lock; returns whether a resident
  /// entry was evicted. Stats are the caller's job (a caller insert and a
  /// disk rehydrate count differently).
  bool InsertEntry(std::uint64_t key, CachedSolution value) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return false;
    }
    bool evicted = false;
    if (shard.lru.size() >= per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      evicted = true;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.lru.begin());
    return evicted;
  }

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  DiskPersistence persist_;
  /// hits, misses, evictions and inserts, plus the fixed capacity; the
  /// other fields are filled in by stats().
  mutable std::mutex stats_mu_;
  SolutionCacheStats stats_;
};

}  // namespace pipemap
