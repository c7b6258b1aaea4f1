// Asynchronous structured access log: one JSONL line per served request,
// written by a dedicated background thread so the request path never
// touches the filesystem.
//
// Contract (the server's side of ISSUE 8):
//   * Append never blocks on I/O. The caller hands over a fully rendered
//     line; it goes into a bounded in-memory queue under a mutex that the
//     writer holds only long enough to swap the queue out. A full queue
//     DROPS the line and counts the drop — backpressure on the log must
//     never become backpressure on requests.
//   * Rotation is size-based: when the current file would exceed
//     max_bytes, it is renamed to "<path>.1" (replacing any previous
//     rotation) and a fresh file is opened. One level of history keeps
//     the disk footprint bounded at ~2× max_bytes.
//   * Flush drains the queue and fflushes, for tests and for the final
//     drain report; the destructor does the same before closing.
//
// The server (server/server.cpp) builds one only when given a path; with
// none, it holds a null logger and writes no lines.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pipemap {

class AccessLogger {
 public:
  struct Options {
    std::string path;
    /// Rotate when the file would grow past this many bytes.
    std::size_t max_bytes = 64u << 20;
  };

  /// Bounded line queue; a full queue drops (and counts) new lines.
  static constexpr std::size_t kQueueCapacity = 4096;

  struct Stats {
    std::uint64_t lines_written = 0;
    std::uint64_t lines_dropped = 0;
    std::uint64_t rotations = 0;
    std::uint64_t bytes_written = 0;
  };

  /// Opens the file (append) and starts the writer thread. Throws
  /// pipemap::Error when the path cannot be opened.
  explicit AccessLogger(Options options);

  /// Flushes pending lines, stops the writer, closes the file.
  ~AccessLogger();

  AccessLogger(const AccessLogger&) = delete;
  AccessLogger& operator=(const AccessLogger&) = delete;

  /// Enqueues one line (a '\n' is appended by the writer). Never blocks
  /// on I/O; drops and counts when the queue is full or the logger is
  /// shutting down.
  void Append(std::string line);

  /// Blocks until every line enqueued before the call is on disk
  /// (fflushed). Test/report seam, not a hot-path call.
  void Flush();

  Stats stats() const;
  const std::string& path() const { return options_.path; }

 private:
  void WriterLoop();
  /// Writes one batch; rotates when max_bytes would be crossed. Writer
  /// thread only.
  void WriteBatch(const std::vector<std::string>& batch);
  void RotateLocked();

  Options options_;
  std::FILE* file_ = nullptr;  // writer thread only after construction
  std::size_t file_bytes_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;        // wakes the writer
  std::condition_variable flush_cv_;  // wakes Flush waiters
  std::vector<std::string> queue_;
  std::uint64_t enqueued_seq_ = 0;  // lines ever enqueued
  std::uint64_t flushed_seq_ = 0;   // lines on disk (post-fflush)
  bool stop_ = false;

  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> rotations_{0};
  std::atomic<std::uint64_t> bytes_written_{0};

  std::thread writer_;
};

}  // namespace pipemap
