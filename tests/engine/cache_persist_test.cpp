// Persistent cache tier: on-disk entry format (round-trip + corrupt
// corpus), the write-behind DiskPersistence policy, and the cache-level
// contract that disk hits rehydrate the in-memory LRU.
#include "engine/cache_persist.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "engine/solution_cache.h"
#include "support/chaos.h"
#include "support/error.h"

namespace pipemap {
namespace {

CachedSolution Sample() {
  CachedSolution value;
  value.mapping_text = "0:0-3\n1:4-7\n2:8-15\n";
  value.objective_value = 12.625;
  value.throughput = 3.5;
  value.latency = 0.875;
  value.solver = "greedy+dp";
  value.exact = true;
  return value;
}

/// A fresh, empty scratch directory under gtest's per-test temp root.
std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("pipemap_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CacheEntryFormatTest, FileNameIsFingerprintHex) {
  EXPECT_EQ(CacheEntryFileName(0xabcull), "0000000000000abc.pmc");
  EXPECT_EQ(CacheEntryFileName(0xdeadbeefcafef00dull),
            "deadbeefcafef00d.pmc");
}

TEST(CacheEntryFormatTest, EncodeDecodeRoundTrip) {
  const std::uint64_t key = 0x1234567890abcdefull;
  const CachedSolution original = Sample();
  const std::string bytes = EncodeCacheEntry(key, original);
  std::string error;
  const std::optional<CachedSolution> decoded =
      DecodeCacheEntry(key, bytes, &error);
  ASSERT_TRUE(decoded) << error;
  EXPECT_EQ(decoded->mapping_text, original.mapping_text);
  EXPECT_EQ(decoded->objective_value, original.objective_value);
  EXPECT_EQ(decoded->throughput, original.throughput);
  EXPECT_EQ(decoded->latency, original.latency);
  EXPECT_EQ(decoded->solver, original.solver);
  EXPECT_EQ(decoded->exact, original.exact);
  // Disk provenance is stamped by DiskPersistence::Load, not the codec:
  // a decode is a pure inverse of the serialized fields.
  EXPECT_FALSE(decoded->from_disk);
}

TEST(CacheEntryFormatTest, RoundTripsHostileBytesInCountedFields) {
  // Counted fields carry raw bytes: newlines, NULs, and header-lookalike
  // text inside the payload must survive.
  const std::uint64_t key = 7;
  CachedSolution value = Sample();
  value.mapping_text = std::string("end\npayload 3\n\0\xff\n", 17);
  value.solver = "solver with spaces";
  const std::optional<CachedSolution> decoded =
      DecodeCacheEntry(key, EncodeCacheEntry(key, value));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->mapping_text, value.mapping_text);
  EXPECT_EQ(decoded->solver, value.solver);
}

TEST(CacheEntryFormatTest, EveryTruncationIsRejected) {
  const std::uint64_t key = 42;
  const std::string bytes = EncodeCacheEntry(key, Sample());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_FALSE(DecodeCacheEntry(key, bytes.substr(0, len), &error))
        << "prefix of length " << len << " decoded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(CacheEntryFormatTest, RejectsMalformedEntries) {
  const std::uint64_t key = 42;
  const std::string bytes = EncodeCacheEntry(key, Sample());

  // Wrong version magic.
  std::string wrong_magic = bytes;
  wrong_magic[wrong_magic.find("v3") + 1] = '2';
  EXPECT_FALSE(DecodeCacheEntry(key, wrong_magic));

  // The file's fingerprint must match the key it is looked up under — a
  // renamed or misplaced entry never answers the wrong request.
  EXPECT_FALSE(DecodeCacheEntry(key + 1, bytes));

  // A flipped payload byte fails the checksum.
  std::string flipped = bytes;
  flipped[bytes.rfind("0:0-3")] ^= 0x20;
  EXPECT_FALSE(DecodeCacheEntry(key, flipped));

  // Trailing bytes after the terminator.
  EXPECT_FALSE(DecodeCacheEntry(key, bytes + "x"));

  // Non-finite provenance doubles.
  std::string non_finite = bytes;
  non_finite.replace(non_finite.find("12.625"), 6, "   inf");
  EXPECT_FALSE(DecodeCacheEntry(key, non_finite));

  // Arbitrary garbage.
  EXPECT_FALSE(DecodeCacheEntry(key, "not a cache entry at all\n"));
}

TEST(DiskPersistenceTest, StoreFlushLoadRoundTrip) {
  const std::string dir = ScratchDir("persist_roundtrip");
  DiskPersistence tier;
  tier.Enable(dir);
  EXPECT_TRUE(tier.enabled());
  EXPECT_EQ(tier.dir(), dir);

  tier.Store(5, Sample());
  tier.Flush();
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / CacheEntryFileName(5)));

  const std::optional<CachedSolution> loaded = tier.Load(5);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->mapping_text, Sample().mapping_text);
  EXPECT_TRUE(loaded->from_disk);

  const PersistTierStats stats = tier.stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(DiskPersistenceTest, CorruptEntryIsSkippedThenHealedByOverwrite) {
  const std::string dir = ScratchDir("persist_corrupt");
  DiskPersistence tier;
  tier.Enable(dir);

  EXPECT_FALSE(tier.Load(9));  // absent: a plain miss
  WriteFile((std::filesystem::path(dir) / CacheEntryFileName(9)).string(),
            "garbage, not an entry\n");
  EXPECT_FALSE(tier.Load(9));  // corrupt: skipped, never a wrong answer

  PersistTierStats stats = tier.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.corrupt, 1u);

  // The re-solve's Store overwrites the corrupt file in place.
  tier.Store(9, Sample());
  tier.Flush();
  ASSERT_TRUE(tier.Load(9));
  stats = tier.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.corrupt, 1u);  // unchanged: healed, not re-read as corrupt
}

TEST(DiskPersistenceTest, EnableIsIdempotentButRejectsRepointing) {
  const std::string dir = ScratchDir("persist_enable");
  DiskPersistence tier;
  tier.Enable(dir);
  EXPECT_NO_THROW(tier.Enable(dir));
  EXPECT_THROW(tier.Enable(dir + "_other"), InvalidArgument);
}

TEST(DiskPersistenceTest, DisabledTierIsInert) {
  DiskPersistence tier;
  EXPECT_FALSE(tier.enabled());
  EXPECT_FALSE(tier.Load(1));
  tier.Store(1, Sample());  // dropped silently
  tier.Flush();
  const PersistTierStats stats = tier.stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(SolutionCachePersistTest, DiskHitRehydratesTheMemoryTier) {
  const std::string dir = ScratchDir("cache_rehydrate");
  {
    SolutionCache writer(8, 2);
    writer.EnablePersistence(dir);
    writer.Insert(3, Sample());
    writer.FlushPersistence();
  }

  // A fresh cache ("restarted process") on the same directory: the first
  // lookup is served from disk and planted in the LRU; the second is a
  // plain memory hit that probes no files.
  SolutionCache reader(8, 2);
  reader.EnablePersistence(dir);
  const std::optional<CachedSolution> disk_hit = reader.Lookup(3);
  ASSERT_TRUE(disk_hit);
  EXPECT_TRUE(disk_hit->from_disk);
  const std::optional<CachedSolution> mem_hit = reader.Lookup(3);
  ASSERT_TRUE(mem_hit);
  EXPECT_FALSE(mem_hit->from_disk);

  const SolutionCacheStats stats = reader.stats();
  EXPECT_EQ(stats.hits, 2u);  // a disk hit is still a cache hit
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.inserts, 0u);  // rehydration is not a caller Insert
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.persist.hits, 1u);  // exactly one file read
  EXPECT_TRUE(stats.persist.enabled);
}

TEST(SolutionCachePersistTest, ClearDropsMemoryButNotDisk) {
  const std::string dir = ScratchDir("cache_clear");
  SolutionCache cache(8, 2);
  cache.EnablePersistence(dir);
  cache.Insert(4, Sample());
  cache.FlushPersistence();

  cache.Clear();
  const std::optional<CachedSolution> hit = cache.Lookup(4);
  ASSERT_TRUE(hit);  // answered from disk again
  EXPECT_TRUE(hit->from_disk);
}

TEST(DiskPersistenceTest, AdvisoryLockMakesSecondInstanceReadOnly) {
  const std::string dir = ScratchDir("persist_lock");
  DiskPersistence owner;
  owner.Enable(dir);
  owner.Store(1, Sample());
  owner.Flush();
  ASSERT_FALSE(owner.read_only());

  // A second instance on the same directory loses the flock race: it
  // still probes (reads work) but every store is dropped and counted.
  DiskPersistence loser;
  loser.Enable(dir);
  EXPECT_TRUE(loser.read_only());
  ASSERT_TRUE(loser.Load(1));
  loser.Store(2, Sample());
  loser.Flush();
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir) / CacheEntryFileName(2)));

  const PersistTierStats stats = loser.stats();
  EXPECT_TRUE(stats.read_only);
  EXPECT_GE(stats.write_drops, 1u);
  EXPECT_FALSE(owner.stats().read_only);
}

TEST(DiskPersistenceTest, AdvisoryLockIsReleasedOnDestruction) {
  const std::string dir = ScratchDir("persist_lock_release");
  {
    DiskPersistence owner;
    owner.Enable(dir);
  }
  DiskPersistence next;
  next.Enable(dir);
  EXPECT_FALSE(next.read_only());
}

TEST(DiskPersistenceTest, SecondProcessFallsBackToReadOnly) {
  const std::string dir = ScratchDir("persist_lock_process");
  DiskPersistence owner;
  owner.Enable(dir);
  owner.Flush();  // writer idle before the fork

  // flock(2) is per open file description, so a true child process
  // exercises exactly the two-daemons-one-directory contention.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    DiskPersistence child;
    child.Enable(dir);
    ::_exit(child.read_only() ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(DiskPersistenceTest, MaxBytesEvictsOldestEntriesFirst) {
  const std::string dir = ScratchDir("persist_evict");
  const std::uint64_t entry_bytes = EncodeCacheEntry(1, Sample()).size();
  DiskPersistOptions options;
  options.dir = dir;
  options.max_bytes = entry_bytes * 3;
  DiskPersistence tier;
  tier.Enable(options);

  for (std::uint64_t key = 1; key <= 6; ++key) {
    tier.Store(key, Sample());
    tier.Flush();
    // Distinct mtimes so oldest-first has a defined order.
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }

  const PersistTierStats stats = tier.stats();
  EXPECT_GE(stats.evicted, 2u);
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir) / CacheEntryFileName(1)));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / CacheEntryFileName(6)));
  // The surviving entries fit the budget.
  std::uint64_t total = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() == ".pmc") {
      total += std::filesystem::file_size(file.path());
    }
  }
  EXPECT_LE(total, options.max_bytes);
  // The lock file is never eviction fodder.
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "pipemap.lock"));
}

TEST(DiskPersistenceTest, StartupSweepEnforcesTheBound) {
  const std::string dir = ScratchDir("persist_startup_sweep");
  const std::uint64_t entry_bytes = EncodeCacheEntry(1, Sample()).size();
  {
    DiskPersistence unbounded;
    unbounded.Enable(dir);
    for (std::uint64_t key = 1; key <= 6; ++key) {
      unbounded.Store(key, Sample());
      unbounded.Flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
  }
  DiskPersistOptions options;
  options.dir = dir;
  options.max_bytes = entry_bytes * 2;
  DiskPersistence bounded;
  bounded.Enable(options);
  EXPECT_GE(bounded.stats().evicted, 4u);
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir) / CacheEntryFileName(1)));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / CacheEntryFileName(6)));
}

struct ChaosGuard {
  ~ChaosGuard() { ChaosInjector::Global().Reset(); }
};

TEST(DiskPersistenceTest, WriteErrorsOpenTheBreakerAndSkipTheDisk) {
  ChaosGuard guard;
  const std::string dir = ScratchDir("persist_breaker_write");
  DiskPersistOptions options;
  options.dir = dir;
  options.breaker_failures = 2;
  options.breaker_cooldown_s = 60.0;  // no heal inside this test
  DiskPersistence tier;
  tier.Enable(options);

  ChaosInjector::Global().Configure(
      ParseChaosSpec("seed=3,persist_write_fail=1"));
  tier.Store(1, Sample());
  tier.Flush();
  tier.Store(2, Sample());
  tier.Flush();  // second consecutive failure: the breaker trips
  PersistTierStats stats = tier.stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_state, "open");

  // While open, publishes are skipped without touching the disk.
  tier.Store(3, Sample());
  tier.Flush();
  stats = tier.stats();
  EXPECT_GE(stats.breaker_skips, 1u);
  EXPECT_EQ(stats.errors, 2u);  // no new I/O attempted
  // Loads fast-miss the same way.
  EXPECT_FALSE(tier.Load(1));
}

TEST(DiskPersistenceTest, BreakerHealsAfterTheCooldown) {
  ChaosGuard guard;
  const std::string dir = ScratchDir("persist_breaker_heal");
  DiskPersistOptions options;
  options.dir = dir;
  options.breaker_failures = 1;
  options.breaker_cooldown_s = 0.05;
  DiskPersistence tier;
  tier.Enable(options);

  ChaosInjector::Global().Configure(
      ParseChaosSpec("seed=4,persist_write_fail=1"));
  tier.Store(1, Sample());
  tier.Flush();
  ASSERT_EQ(tier.stats().breaker_opens, 1u);

  // The disk "recovers" (chaos off); the next publish after the cooldown
  // is the half-open probe, succeeds, and closes the breaker.
  ChaosInjector::Global().Reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  tier.Store(2, Sample());
  tier.Flush();
  const PersistTierStats stats = tier.stats();
  EXPECT_EQ(stats.breaker_state, "closed");
  EXPECT_EQ(stats.writes, 1u);
  ASSERT_TRUE(tier.Load(2));
}

TEST(DiskPersistenceTest, ReadErrorsTripTheBreakerButAbsenceDoesNot) {
  ChaosGuard guard;
  const std::string dir = ScratchDir("persist_breaker_read");
  DiskPersistOptions options;
  options.dir = dir;
  options.breaker_failures = 1;
  options.breaker_cooldown_s = 60.0;
  DiskPersistence tier;
  tier.Enable(options);
  tier.Store(5, Sample());
  tier.Flush();

  // A plain miss (absent entry) is healthy, never a breaker failure.
  EXPECT_FALSE(tier.Load(99));
  EXPECT_EQ(tier.stats().breaker_opens, 0u);

  ChaosInjector::Global().Configure(
      ParseChaosSpec("seed=5,persist_read_fail=1"));
  EXPECT_FALSE(tier.Load(5));  // injected EIO
  PersistTierStats stats = tier.stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.breaker_opens, 1u);

  // Open breaker: the next load is a fast-miss skip, no I/O.
  ChaosInjector::Global().Reset();
  EXPECT_FALSE(tier.Load(5));
  stats = tier.stats();
  EXPECT_GE(stats.breaker_skips, 1u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST(SolutionCachePersistTest, MissingEntryFallsThroughToMiss) {
  const std::string dir = ScratchDir("cache_miss");
  SolutionCache cache(8, 2);
  cache.EnablePersistence(dir);
  EXPECT_FALSE(cache.Lookup(77));
  const SolutionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.persist.misses, 1u);
}

}  // namespace
}  // namespace pipemap
