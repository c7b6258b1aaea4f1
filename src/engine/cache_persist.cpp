#include "engine/cache_persist.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <vector>

#include "engine/fingerprint.h"
#include "support/chaos.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/parse.h"

namespace pipemap {

namespace {

constexpr std::string_view kMagic = "pipemap-cache v3";
constexpr std::string_view kLockFileName = "pipemap.lock";
/// Decode refuses byte-counted fields larger than this: a plausible upper
/// bound on any real mapping text, and a cheap guard against a corrupt
/// length making us allocate gigabytes.
constexpr std::size_t kMaxCountedBytes = 64u << 20;

std::string FormatDouble(double v) {
  // max_digits10 round-trip precision: the decoded double is bit-identical
  // to the encoded one, preserving the cache's byte-identity contract
  // across a restart.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Exactly 16 lowercase hex digits, the FingerprintHex form.
bool ParseHex64(std::string_view text, std::uint64_t* out) {
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

struct Cursor {
  std::string_view rest;
};

bool TakeLine(Cursor& c, std::string_view* line) {
  const std::size_t nl = c.rest.find('\n');
  if (nl == std::string_view::npos) return false;
  *line = c.rest.substr(0, nl);
  c.rest.remove_prefix(nl + 1);
  return true;
}

bool TakePrefix(std::string_view* text, std::string_view prefix) {
  if (text->substr(0, prefix.size()) != prefix) return false;
  text->remove_prefix(prefix.size());
  return true;
}

/// Decimal length at the cursor, bounded by kMaxCountedBytes.
bool TakeLength(Cursor& c, std::size_t* out) {
  std::size_t n = 0;
  std::size_t digits = 0;
  while (!c.rest.empty() && c.rest.front() >= '0' && c.rest.front() <= '9') {
    n = n * 10 + static_cast<std::size_t>(c.rest.front() - '0');
    if (n > kMaxCountedBytes) return false;
    c.rest.remove_prefix(1);
    ++digits;
  }
  if (digits == 0) return false;
  *out = n;
  return true;
}

/// "<key> <n> <n raw bytes>\n" — the bytes may contain anything,
/// including newlines, so the count (not a delimiter) bounds them.
bool TakeCounted(Cursor& c, std::string_view key, std::string_view* bytes) {
  if (!TakePrefix(&c.rest, key) || !TakePrefix(&c.rest, " ")) return false;
  std::size_t n = 0;
  if (!TakeLength(c, &n) || !TakePrefix(&c.rest, " ")) return false;
  if (c.rest.size() < n) return false;
  *bytes = c.rest.substr(0, n);
  c.rest.remove_prefix(n);
  return TakePrefix(&c.rest, "\n");
}

bool TakeDoubleField(Cursor& c, std::string_view key, double* out) {
  std::string_view line;
  if (!TakeLine(c, &line) || !TakePrefix(&line, key) ||
      !TakePrefix(&line, " ")) {
    return false;
  }
  const std::optional<double> v = TryParseDouble(line);
  if (!v) return false;
  *out = *v;
  return true;
}

bool IsEntryFileName(const std::filesystem::path& path) {
  if (path.extension() != ".pmc") return false;
  std::uint64_t ignored = 0;
  return ParseHex64(path.stem().string(), &ignored);
}

}  // namespace

std::string CacheEntryFileName(std::uint64_t key) {
  return FingerprintHex(key) + ".pmc";
}

std::string EncodeCacheEntry(std::uint64_t key, const CachedSolution& value) {
  std::string out;
  out.reserve(value.mapping_text.size() + value.solver.size() + 160);
  out += kMagic;
  out += "\nfingerprint ";
  out += FingerprintHex(key);
  out += "\nsolver ";
  out += std::to_string(value.solver.size());
  out += ' ';
  out += value.solver;
  out += "\nexact ";
  out += value.exact ? '1' : '0';
  out += "\nobjective ";
  out += FormatDouble(value.objective_value);
  out += "\nthroughput ";
  out += FormatDouble(value.throughput);
  out += "\nlatency ";
  out += FormatDouble(value.latency);
  out += "\npayload ";
  out += std::to_string(value.mapping_text.size());
  out += ' ';
  out += FingerprintHex(Fnv1a64(value.mapping_text));
  out += '\n';
  out += value.mapping_text;
  out += "\nend\n";
  return out;
}

std::optional<CachedSolution> DecodeCacheEntry(std::uint64_t key,
                                               std::string_view bytes,
                                               std::string* error) {
  const auto fail = [error](const char* why) -> std::optional<CachedSolution> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  Cursor c{bytes};
  std::string_view line;
  if (!TakeLine(c, &line) || line != kMagic) {
    return fail("bad or missing version line");
  }
  if (!TakeLine(c, &line) || !TakePrefix(&line, "fingerprint ")) {
    return fail("missing fingerprint");
  }
  std::uint64_t stored_key = 0;
  if (!ParseHex64(line, &stored_key)) return fail("unparseable fingerprint");
  if (stored_key != key) return fail("fingerprint does not match file name");
  CachedSolution out;
  std::string_view solver;
  if (!TakeCounted(c, "solver", &solver)) return fail("bad solver field");
  out.solver.assign(solver.data(), solver.size());
  if (!TakeLine(c, &line) || !TakePrefix(&line, "exact ")) {
    return fail("bad exact field");
  }
  if (line == "1") {
    out.exact = true;
  } else if (line == "0") {
    out.exact = false;
  } else {
    return fail("bad exact value");
  }
  if (!TakeDoubleField(c, "objective", &out.objective_value)) {
    return fail("bad objective field");
  }
  if (!TakeDoubleField(c, "throughput", &out.throughput)) {
    return fail("bad throughput field");
  }
  if (!TakeDoubleField(c, "latency", &out.latency)) {
    return fail("bad latency field");
  }
  if (!TakePrefix(&c.rest, "payload ")) return fail("bad payload field");
  std::size_t payload_bytes = 0;
  if (!TakeLength(c, &payload_bytes) || !TakePrefix(&c.rest, " ")) {
    return fail("bad payload length");
  }
  std::uint64_t checksum = 0;
  if (!TakeLine(c, &line) || !ParseHex64(line, &checksum)) {
    return fail("unparseable payload checksum");
  }
  if (c.rest.size() < payload_bytes) return fail("truncated payload");
  const std::string_view payload = c.rest.substr(0, payload_bytes);
  c.rest.remove_prefix(payload_bytes);
  if (Fnv1a64(payload) != checksum) return fail("payload checksum mismatch");
  if (!TakePrefix(&c.rest, "\n")) return fail("missing payload terminator");
  if (!TakeLine(c, &line) || line != "end") return fail("missing end marker");
  if (!c.rest.empty()) return fail("trailing bytes after end marker");
  out.mapping_text.assign(payload.data(), payload.size());
  return out;
}

DiskPersistence::~DiskPersistence() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (lock_fd_ >= 0) {
    // Closing the fd releases the flock, handing directory ownership to
    // the next Enable.
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
}

void DiskPersistence::Enable(const DiskPersistOptions& options) {
  PIPEMAP_CHECK(!options.dir.empty(), "cache dir must be non-empty");
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled_.load(std::memory_order_relaxed)) {
    PIPEMAP_CHECK(dir_ == options.dir,
                  "cache already persisting to '" + dir_ +
                      "', cannot switch to '" + options.dir + "'");
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  PIPEMAP_CHECK(
      !ec, "cannot create cache dir '" + options.dir + "': " + ec.message());
  dir_ = options.dir;
  max_bytes_ = options.max_bytes;
  CircuitBreaker::Config breaker;
  breaker.failure_threshold = options.breaker_failures;
  breaker.cooldown_s = options.breaker_cooldown_s;
  breaker_.emplace(breaker);

  // Advisory ownership: exactly one process (and one instance) gets to
  // write a cache directory. Losing the race is loud but not fatal — the
  // loser still probes entries the owner publishes.
  const std::string lock_path = dir_ + "/" + std::string(kLockFileName);
  lock_fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    std::fprintf(stderr,
                 "pipemap: cannot open cache lock file %s (%s); cache dir "
                 "'%s' is read-only for this process\n",
                 lock_path.c_str(), std::strerror(errno), dir_.c_str());
    read_only_.store(true, std::memory_order_release);
  } else if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    std::fprintf(stderr,
                 "pipemap: cache dir '%s' is locked by another process; "
                 "falling back to read-only probing (no writes, no "
                 "eviction)\n",
                 dir_.c_str());
    ::close(lock_fd_);
    lock_fd_ = -1;
    read_only_.store(true, std::memory_order_release);
  }

  if (!read_only_.load(std::memory_order_relaxed) && max_bytes_ > 0) {
    // Startup sweep: a previous unbounded run (or a lowered bound) may
    // have left the directory over budget.
    SweepDisk();
  }
  writer_ = std::thread(&DiskPersistence::WriterLoop, this);
  enabled_.store(true, std::memory_order_release);
}

std::string DiskPersistence::dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

std::optional<CachedSolution> DiskPersistence::Load(std::uint64_t key) {
  if (!enabled()) return std::nullopt;
  const auto miss = [this]() -> std::optional<CachedSolution> {
    misses_.fetch_add(1, std::memory_order_relaxed);
    PIPEMAP_COUNTER_ADD("engine.cache.persist.misses", 1);
    return std::nullopt;
  };
  if (!breaker_->Allow()) {
    // Disk is considered sick: fast-miss without touching it. The solve
    // proceeds from scratch, which is slower but never stalls.
    breaker_skips_.fetch_add(1, std::memory_order_relaxed);
    PIPEMAP_COUNTER_ADD("engine.cache.persist.breaker_skips", 1);
    return miss();
  }
  // dir_ is immutable once enabled_ is set, so reading it unlocked here
  // is safe.
  const std::string path = dir_ + "/" + CacheEntryFileName(key);
  std::string bytes;
  if (ChaosInjector::Global().ShouldInject(ChaosSeam::kPersistReadFail)) {
    errno = EIO;
  } else {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      char buf[1 << 16];
      std::size_t got = 0;
      while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        bytes.append(buf, got);
      }
      const bool read_error = std::ferror(f) != 0;
      std::fclose(f);
      if (read_error) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        PIPEMAP_COUNTER_ADD("engine.cache.persist.errors", 1);
        breaker_->RecordFailure();
        std::fprintf(stderr, "pipemap: cache entry %s unreadable\n",
                     path.c_str());
        return miss();
      }
      std::string error;
      std::optional<CachedSolution> decoded =
          DecodeCacheEntry(key, bytes, &error);
      breaker_->RecordSuccess();  // the disk worked; corruption is data
      if (!decoded) {
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        PIPEMAP_COUNTER_ADD("engine.cache.persist.corrupt", 1);
        std::fprintf(stderr, "pipemap: skipping corrupt cache entry %s: %s\n",
                     path.c_str(), error.c_str());
        return miss();
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      PIPEMAP_COUNTER_ADD("engine.cache.persist.hits", 1);
      decoded->from_disk = true;
      return decoded;
    }
  }
  if (errno == ENOENT) {
    // Absence is a healthy answer, not a disk error.
    breaker_->RecordSuccess();
    return miss();
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  PIPEMAP_COUNTER_ADD("engine.cache.persist.errors", 1);
  breaker_->RecordFailure();
  std::fprintf(stderr, "pipemap: cannot read cache entry %s: %s\n",
               path.c_str(), std::strerror(errno));
  return miss();
}

void DiskPersistence::Store(std::uint64_t key, CachedSolution value) {
  if (!enabled()) return;
  if (read_only()) {
    write_drops_.fetch_add(1, std::memory_order_relaxed);
    PIPEMAP_COUNTER_ADD("engine.cache.persist.write_drops", 1);
    return;
  }
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_ && queue_.size() < queue_capacity_) {
      queue_.emplace_back(key, std::move(value));
      ++accepted_seq_;
      accepted = true;
    }
  }
  if (accepted) {
    cv_.notify_one();
  } else {
    write_drops_.fetch_add(1, std::memory_order_relaxed);
    PIPEMAP_COUNTER_ADD("engine.cache.persist.write_drops", 1);
  }
}

void DiskPersistence::Flush() {
  if (!enabled()) return;
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t target = accepted_seq_;
  flush_cv_.wait(lock, [&] { return published_seq_ >= target; });
}

PersistTierStats DiskPersistence::stats() const {
  PersistTierStats out;
  out.enabled = enabled();
  out.read_only = read_only();
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.writes = writes_.load(std::memory_order_relaxed);
  out.write_drops = write_drops_.load(std::memory_order_relaxed);
  out.corrupt = corrupt_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.evicted = evicted_.load(std::memory_order_relaxed);
  out.breaker_skips = breaker_skips_.load(std::memory_order_relaxed);
  if (breaker_.has_value()) {
    out.breaker_state = ToString(breaker_->state());
    out.breaker_opens = breaker_->stats().opens;
  }
  return out;
}

void DiskPersistence::WriterLoop() {
  for (;;) {
    std::pair<std::uint64_t, CachedSolution> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ with a drained queue: every accepted store is published.
        return;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    PublishEntry(item.first, item.second);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++published_seq_;
    }
    flush_cv_.notify_all();
  }
}

void DiskPersistence::PublishEntry(std::uint64_t key,
                                   const CachedSolution& value) {
  if (!breaker_->Allow()) {
    breaker_skips_.fetch_add(1, std::memory_order_relaxed);
    write_drops_.fetch_add(1, std::memory_order_relaxed);
    PIPEMAP_COUNTER_ADD("engine.cache.persist.breaker_skips", 1);
    PIPEMAP_COUNTER_ADD("engine.cache.persist.write_drops", 1);
    return;
  }
  const std::string name = CacheEntryFileName(key);
  const std::string final_path = dir_ + "/" + name;
  // The temp name is unique per (instance, attempt) so concurrent writers
  // sharing a directory never clobber each other's half-written files;
  // rename(2) into place is what makes publication atomic.
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".tmp-%p-%" PRIu64,
                static_cast<const void*>(this), ++temp_seq_);
  const std::string temp_path = dir_ + "/" + name + suffix;
  const auto fail = [&](const char* what) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    PIPEMAP_COUNTER_ADD("engine.cache.persist.errors", 1);
    breaker_->RecordFailure();
    std::fprintf(stderr, "pipemap: cache entry %s not persisted: %s\n",
                 final_path.c_str(), what);
    std::remove(temp_path.c_str());
  };
  if (ChaosInjector::Global().ShouldInject(ChaosSeam::kPersistWriteFail)) {
    fail("chaos: injected write failure");
    return;
  }
  const std::string bytes = EncodeCacheEntry(key, value);
  std::FILE* f = std::fopen(temp_path.c_str(), "wb");
  if (f == nullptr) {
    fail("cannot open temp file");
    return;
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    fail("short write");
    return;
  }
  if (std::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    fail("rename failed");
    return;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  PIPEMAP_COUNTER_ADD("engine.cache.persist.writes", 1);
  breaker_->RecordSuccess();
  if (max_bytes_ > 0) {
    usage_bytes_ += bytes.size();
    if (usage_bytes_ > max_bytes_) SweepDisk();
  }
}

void DiskPersistence::SweepDisk() {
  struct EntryFile {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    std::uint64_t size = 0;
  };
  std::vector<EntryFile> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::filesystem::path& p = de.path();
    if (!IsEntryFileName(p)) continue;  // never the lock file or temps
    EntryFile e;
    e.path = p;
    e.size = de.file_size(ec);
    if (ec) continue;
    e.mtime = de.last_write_time(ec);
    if (ec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total > max_bytes_) {
    // Oldest-first: recency of publication is the only signal we have,
    // and recently solved fingerprints are the likeliest to recur.
    std::sort(entries.begin(), entries.end(),
              [](const EntryFile& a, const EntryFile& b) {
                return a.mtime < b.mtime;
              });
    // Sweep down to ~90% of the bound so a single hot write does not
    // re-trigger the (full-directory-scan) sweep immediately.
    const std::uint64_t target =
        max_bytes_ - std::min<std::uint64_t>(max_bytes_, max_bytes_ / 10);
    for (const EntryFile& e : entries) {
      if (total <= target) break;
      std::error_code rm_ec;
      if (std::filesystem::remove(e.path, rm_ec) && !rm_ec) {
        total -= std::min(total, e.size);
        evicted_.fetch_add(1, std::memory_order_relaxed);
        PIPEMAP_COUNTER_ADD("engine.cache.persist.evicted", 1);
      }
    }
  }
  usage_bytes_ = total;
}

}  // namespace pipemap
