// Concurrent mixed-load stress on SolutionCache: many workers hammering
// Lookup/Insert over a keyspace larger than a small capacity, so every
// shard evicts constantly while other threads read — with and without
// the persistent tier spilling and re-serving entries underneath, and
// with a corrupt-file corpus mixed into the lookups. Values are
// self-identifying (solver == the key), so a hit returning the wrong
// entry — torn eviction, or a mis-keyed disk rehydrate — is caught
// directly. SingleFlightGroup gets the same treatment: a small hot key
// space so leaders and followers constantly collide.
// Compiled twice: into engine_tests, and as cache_stress_tsan with
// ThreadSanitizer instrumenting the cache sources.
#include "engine/solution_cache.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "engine/cache_persist.h"
#include "engine/single_flight.h"
#include "support/thread_pool.h"

namespace pipemap {
namespace {

CachedSolution SolutionFor(std::uint64_t key) {
  CachedSolution s;
  s.solver = std::to_string(key);
  s.mapping_text = "mapping-" + std::to_string(key);
  s.objective_value = static_cast<double>(key);
  return s;
}

TEST(SolutionCacheStressTest, ConcurrentMixedLoadUnderEviction) {
  constexpr std::size_t kCapacity = 32;
  constexpr std::uint64_t kKeyspace = 512;  // 16x capacity: constant churn
  constexpr std::int64_t kOps = 20000;
  SolutionCache cache(kCapacity, /*shards=*/4);

  std::atomic<std::int64_t> wrong_value{0};
  std::atomic<std::int64_t> hits{0};
  ParallelFor(8, kOps, ParallelSchedule::kDynamic, /*grain=*/64,
              [&](int worker, std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) {
                  // A cheap deterministic scramble spreads workers across
                  // the keyspace; groups of four consecutive ops share a
                  // key, so lookups land shortly after an insert often
                  // enough to exercise the hit/splice path even while the
                  // shards evict constantly.
                  const std::uint64_t key =
                      (static_cast<std::uint64_t>(i / 4) * 2654435761u +
                       static_cast<std::uint64_t>(worker)) %
                      kKeyspace;
                  if (i % 3 == 0) {
                    cache.Insert(key, SolutionFor(key));
                  } else if (auto got = cache.Lookup(key)) {
                    hits.fetch_add(1, std::memory_order_relaxed);
                    if (got->solver != std::to_string(key) ||
                        got->objective_value != static_cast<double>(key)) {
                      wrong_value.fetch_add(1, std::memory_order_relaxed);
                    }
                  }
                }
              });

  EXPECT_EQ(wrong_value.load(), 0);
  EXPECT_GT(hits.load(), 0);

  const SolutionCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_GT(stats.evictions, 0u);
  // Every op was counted exactly once as a hit/miss or an insert.
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts,
            static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(hits.load()));
}

TEST(SolutionCacheStressTest, PersistentTierUnderConcurrentSpillAndLoad) {
  // Per process: the TSan build runs this test alongside the plain one.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("pipemap_persist_stress_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  constexpr std::size_t kCapacity = 16;
  constexpr std::uint64_t kKeyspace = 128;  // 8x capacity: constant spill
  constexpr std::int64_t kOps = 12000;
  SolutionCache cache(kCapacity, /*shards=*/4);
  cache.EnablePersistence(dir.string());

  // A corrupt corpus outside the working keyspace, probed occasionally by
  // the workers: decodes must fail loudly, never produce a value.
  constexpr std::uint64_t kCorruptBase = 100000;
  for (std::uint64_t k = kCorruptBase; k < kCorruptBase + 4; ++k) {
    std::ofstream out(dir / CacheEntryFileName(k), std::ios::binary);
    out << "pipemap-cache v1\ntruncated garbage";
  }

  std::atomic<std::int64_t> wrong_value{0};
  std::atomic<std::int64_t> corrupt_served{0};
  ParallelFor(8, kOps, ParallelSchedule::kDynamic, /*grain=*/64,
              [&](int worker, std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) {
                  if (i % 499 == 0) {
                    // A corrupt entry must never decode into an answer.
                    const std::uint64_t bad =
                        kCorruptBase + static_cast<std::uint64_t>(i % 4);
                    if (cache.Lookup(bad)) {
                      corrupt_served.fetch_add(1, std::memory_order_relaxed);
                    }
                    continue;
                  }
                  const std::uint64_t key =
                      (static_cast<std::uint64_t>(i / 4) * 2654435761u +
                       static_cast<std::uint64_t>(worker)) %
                      kKeyspace;
                  if (i % 3 == 0) {
                    cache.Insert(key, SolutionFor(key));
                  } else if (auto got = cache.Lookup(key)) {
                    // Hits come from memory or from a concurrent disk
                    // rehydrate; both must carry this key's bytes.
                    if (got->solver != std::to_string(key) ||
                        got->mapping_text != "mapping-" + std::to_string(key)) {
                      wrong_value.fetch_add(1, std::memory_order_relaxed);
                    }
                  }
                }
              });
  cache.FlushPersistence();

  EXPECT_EQ(wrong_value.load(), 0);
  EXPECT_EQ(corrupt_served.load(), 0);
  const SolutionCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_GT(stats.evictions, 0u);
  // The counting identity survives the persistent tier: a disk hit is a
  // hit, a rehydrate is not an insert.
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts,
            static_cast<std::uint64_t>(kOps));
  EXPECT_TRUE(stats.persist.enabled);
  EXPECT_GT(stats.persist.writes, 0u);
  EXPECT_GT(stats.persist.corrupt, 0u);
  EXPECT_EQ(stats.persist.errors, 0u);

  // Deterministic disk-hit pass: with every accepted spill flushed and
  // only `capacity` of the keyspace resident, sweeping all 128 keys must
  // re-serve evicted entries from disk — and each must carry its own
  // bytes. (The parallel phase alone can't guarantee a disk hit: its
  // burst-per-key access pattern rarely revisits a key after eviction.)
  std::int64_t disk_hits = 0;
  for (std::uint64_t key = 0; key < kKeyspace; ++key) {
    if (const auto got = cache.Lookup(key)) {
      if (got->from_disk) ++disk_hits;
      EXPECT_EQ(got->solver, std::to_string(key));
      EXPECT_EQ(got->mapping_text, "mapping-" + std::to_string(key));
    }
  }
  EXPECT_GT(disk_hits, 0);
  EXPECT_GT(cache.stats().persist.hits, 0u);

  std::filesystem::remove_all(dir);
}

TEST(SolutionCacheStressTest, SingleFlightDedupUnderContention) {
  SingleFlightGroup group;
  constexpr std::int64_t kOps = 8000;
  constexpr std::uint64_t kHotKeys = 8;  // collisions on every key

  std::atomic<std::int64_t> wrong_value{0};
  ParallelFor(8, kOps, ParallelSchedule::kDynamic, /*grain=*/32,
              [&](int /*worker*/, std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) {
                  const std::uint64_t key =
                      static_cast<std::uint64_t>(i) % kHotKeys;
                  const auto [flight, is_leader] = group.Join(key);
                  if (is_leader) {
                    std::this_thread::yield();  // let followers pile on
                    group.Publish(key, flight, SolutionFor(key));
                  } else if (auto got = group.Wait(flight, 5.0)) {
                    if (got->solver != std::to_string(key)) {
                      wrong_value.fetch_add(1, std::memory_order_relaxed);
                    }
                  }
                }
              });

  EXPECT_EQ(wrong_value.load(), 0);
  const SingleFlightStats stats = group.stats();
  EXPECT_GT(stats.leaders, 0u);
  EXPECT_GT(stats.shared, 0u);  // the hot keys really did collide
  EXPECT_EQ(stats.failed_leaders, 0u);
  // Every op was a leader or a follower; every follower shared a result
  // or timed out.
  EXPECT_EQ(stats.leaders + stats.shared + stats.wait_timeouts,
            static_cast<std::uint64_t>(kOps));
}

TEST(SolutionCacheStressTest, ClearRacesWithTraffic) {
  SolutionCache cache(16, /*shards=*/2);
  ParallelFor(6, 6000, ParallelSchedule::kDynamic, /*grain=*/32,
              [&](int /*worker*/, std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) {
                  const std::uint64_t key = static_cast<std::uint64_t>(i % 64);
                  if (i % 97 == 0) {
                    cache.Clear();
                  } else if (i % 2 == 0) {
                    cache.Insert(key, SolutionFor(key));
                  } else if (auto got = cache.Lookup(key)) {
                    EXPECT_EQ(got->solver, std::to_string(key));
                  }
                }
              });
  const SolutionCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, stats.capacity);
}

}  // namespace
}  // namespace pipemap
