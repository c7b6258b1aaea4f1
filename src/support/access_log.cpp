#include "support/access_log.h"

#include <cstdio>
#include <utility>

#include "support/error.h"

namespace pipemap {

AccessLogger::AccessLogger(Options options) : options_(std::move(options)) {
  if (options_.path.empty()) {
    throw InvalidArgument("AccessLogger: path must not be empty");
  }
  file_ = std::fopen(options_.path.c_str(), "ab");
  if (file_ == nullptr) {
    throw Error("AccessLogger: cannot open " + options_.path);
  }
  const long pos = std::ftell(file_);
  file_bytes_ = pos > 0 ? static_cast<std::size_t>(pos) : 0;
  writer_ = std::thread([this] { WriterLoop(); });
}

AccessLogger::~AccessLogger() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (file_ != nullptr) std::fclose(file_);
}

void AccessLogger::Append(std::string line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_ && queue_.size() < kQueueCapacity) {
      queue_.push_back(std::move(line));
      ++enqueued_seq_;
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  cv_.notify_one();
}

void AccessLogger::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t target = enqueued_seq_;
  cv_.notify_one();
  flush_cv_.wait(lock, [this, target] {
    return flushed_seq_ >= target || (stop_ && queue_.empty());
  });
}

AccessLogger::Stats AccessLogger::stats() const {
  Stats s;
  s.lines_written = written_.load(std::memory_order_relaxed);
  s.lines_dropped = dropped_.load(std::memory_order_relaxed);
  s.rotations = rotations_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return s;
}

void AccessLogger::WriterLoop() {
  std::vector<std::string> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !queue_.empty() || stop_; });
      if (queue_.empty() && stop_) return;
      batch.swap(queue_);
    }
    WriteBatch(batch);
    const std::uint64_t flushed = static_cast<std::uint64_t>(batch.size());
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      flushed_seq_ += flushed;
    }
    flush_cv_.notify_all();
  }
}

void AccessLogger::RotateLocked() {
  std::fclose(file_);
  const std::string rotated = options_.path + ".1";
  // Best-effort: a failed rename means we keep appending to a fresh file
  // of the same name anyway (fopen "wb" truncates below).
  std::remove(rotated.c_str());
  std::rename(options_.path.c_str(), rotated.c_str());
  file_ = std::fopen(options_.path.c_str(), "wb");
  file_bytes_ = 0;
  rotations_.fetch_add(1, std::memory_order_relaxed);
}

void AccessLogger::WriteBatch(const std::vector<std::string>& batch) {
  if (file_ == nullptr) return;
  for (const std::string& line : batch) {
    const std::size_t need = line.size() + 1;
    if (file_bytes_ > 0 && file_bytes_ + need > options_.max_bytes) {
      RotateLocked();
      if (file_ == nullptr) return;  // rotation failed; drop silently
    }
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fputc('\n', file_) == EOF) {
      // Disk trouble must never propagate to the request path; count the
      // line as dropped and keep the daemon alive.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    file_bytes_ += need;
    written_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(need, std::memory_order_relaxed);
  }
  std::fflush(file_);
}

}  // namespace pipemap
