// Pins SolutionCache to the behavior of the original hand-written sharded
// LRU. `legacy` below is that implementation, kept verbatim (minus the
// metrics macros, which are instrumentation, not behavior): both caches
// are driven with identical randomized op sequences and must agree on
// every lookup result and on the final stats.
#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/solution_cache.h"

namespace pipemap {
namespace legacy {

// The pre-refactor SolutionCache, verbatim from before the policy split.
class SolutionCache {
 public:
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
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (result) {
        ++stats_.hits;
      } else {
        ++stats_.misses;
      }
    }
    return result;
  }

  void Insert(std::uint64_t key, CachedSolution value) {
    Shard& shard = ShardFor(key);
    bool evicted = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        it->second->second = std::move(value);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      } else {
        if (shard.lru.size() >= per_shard_capacity_) {
          shard.index.erase(shard.lru.back().first);
          shard.lru.pop_back();
          evicted = true;
        }
        shard.lru.emplace_front(key, std::move(value));
        shard.index.emplace(key, shard.lru.begin());
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.inserts;
    if (evicted) ++stats_.evictions;
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
    return out;
  }

 private:
  struct Shard {
    std::mutex mu;
    std::list<std::pair<std::uint64_t, CachedSolution>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
  };

  Shard& ShardFor(std::uint64_t key) {
    return *shards_[static_cast<std::size_t>(key) % shards_.size()];
  }

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex stats_mu_;
  SolutionCacheStats stats_;
};

}  // namespace legacy

namespace {

CachedSolution MakeSolution(std::uint64_t key, int serial) {
  CachedSolution value;
  value.mapping_text = "mapping-" + std::to_string(key) + "-" +
                       std::to_string(serial);
  value.objective_value = 0.25 * static_cast<double>(key) + serial;
  value.throughput = 1.0 + static_cast<double>(serial);
  value.latency = 2.0 + static_cast<double>(key);
  value.solver = serial % 2 == 0 ? "dp" : "greedy+dp";
  value.exact = key % 3 == 0;
  return value;
}

bool SameSolution(const CachedSolution& a, const CachedSolution& b) {
  return a.mapping_text == b.mapping_text &&
         a.objective_value == b.objective_value &&
         a.throughput == b.throughput && a.latency == b.latency &&
         a.solver == b.solver && a.exact == b.exact;
}

/// Drives `reference` and `subject` with the same randomized mixed
/// lookup/insert sequence and asserts they agree op for op.
template <typename Reference, typename Subject>
void DriveIdentically(Reference& reference, Subject& subject,
                      std::uint64_t seed, int ops, std::uint64_t key_space) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> keys(0, key_space - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t key = keys(rng);
    if (coin(rng) < 0.5) {
      const auto expected = reference.Lookup(key);
      const auto actual = subject.Lookup(key);
      ASSERT_EQ(expected.has_value(), actual.has_value())
          << "op " << op << " key " << key;
      if (expected) {
        ASSERT_TRUE(SameSolution(*expected, *actual))
            << "op " << op << " key " << key;
      }
    } else {
      reference.Insert(key, MakeSolution(key, op));
      subject.Insert(key, MakeSolution(key, op));
    }
  }
  const SolutionCacheStats expected = reference.stats();
  const SolutionCacheStats actual = subject.stats();
  EXPECT_EQ(expected.hits, actual.hits);
  EXPECT_EQ(expected.misses, actual.misses);
  EXPECT_EQ(expected.evictions, actual.evictions);
  EXPECT_EQ(expected.inserts, actual.inserts);
  EXPECT_EQ(expected.entries, actual.entries);
  EXPECT_EQ(expected.capacity, actual.capacity);
}

TEST(CachePoliciesTest, DefaultInstantiationMatchesLegacyByteForByte) {
  // Capacity/shard shapes that exercise rounding (capacity < shards,
  // capacity not divisible by shards) and heavy eviction (key space much
  // larger than capacity).
  const struct {
    std::size_t capacity;
    std::size_t shards;
  } shapes[] = {{8, 4}, {1, 1}, {3, 8}, {16, 3}, {64, 8}};
  for (const auto& shape : shapes) {
    legacy::SolutionCache reference(shape.capacity, shape.shards);
    SolutionCache subject(shape.capacity, shape.shards);
    DriveIdentically(reference, subject, 1000 * shape.capacity + shape.shards,
                     4000, 48);
  }
}

TEST(CachePoliciesTest, StatsIdentityHoldsUnderMixedLoad) {
  // hits + misses == lookups and inserts == Insert calls, the invariant
  // the stress test asserts; pinned here single-threaded too.
  SolutionCache cache(8, 4);
  std::uint64_t lookups = 0, inserts = 0;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint64_t> keys(0, 31);
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t key = keys(rng);
    if (op % 3 == 0) {
      cache.Insert(key, MakeSolution(key, op));
      ++inserts;
    } else {
      (void)cache.Lookup(key);
      ++lookups;
    }
  }
  const SolutionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  EXPECT_EQ(stats.inserts, inserts);
  EXPECT_LE(stats.entries, stats.capacity);
}

}  // namespace
}  // namespace pipemap
