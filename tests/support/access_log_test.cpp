#include "support/access_log.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/error.h"

namespace pipemap {
namespace {

/// Unique-ish path per test under /tmp; removed on destruction along with
/// the one rotation the logger may have produced.
class TempLogPath {
 public:
  explicit TempLogPath(const std::string& tag)
      : path_("/tmp/pipemap_access_log_" + tag + "_" +
              std::to_string(::getpid()) + ".jsonl") {
    std::remove(path_.c_str());
    std::remove((path_ + ".1").c_str());
  }
  ~TempLogPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".1").c_str());
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(AccessLogTest, WritesEveryAppendedLineInOrder) {
  TempLogPath path("order");
  {
    AccessLogger::Options options;
    options.path = path.str();
    AccessLogger log(options);
    for (int i = 0; i < 100; ++i) {
      log.Append("{\"seq\": " + std::to_string(i) + "}");
    }
    log.Flush();
    EXPECT_EQ(log.stats().lines_written, 100u);
    EXPECT_EQ(log.stats().lines_dropped, 0u);
  }
  const std::vector<std::string> lines = ReadLines(path.str());
  ASSERT_EQ(lines.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)],
              "{\"seq\": " + std::to_string(i) + "}");
  }
}

TEST(AccessLogTest, DestructorFlushesPendingLines) {
  TempLogPath path("dtor");
  {
    AccessLogger::Options options;
    options.path = path.str();
    AccessLogger log(options);
    log.Append("{\"last\": true}");
    // No Flush: the destructor must drain the queue before closing.
  }
  const std::vector<std::string> lines = ReadLines(path.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"last\": true}");
}

TEST(AccessLogTest, RotatesAtMaxBytesAndKeepsOneGeneration) {
  TempLogPath path("rotate");
  const std::string line(100, 'x');  // 101 bytes with the newline
  {
    AccessLogger::Options options;
    options.path = path.str();
    options.max_bytes = 450;  // four lines fit, the fifth rotates
    AccessLogger log(options);
    for (int i = 0; i < 5; ++i) log.Append(line);
    log.Flush();
    EXPECT_EQ(log.stats().rotations, 1u);
    EXPECT_EQ(log.stats().lines_written, 5u);
  }
  // With exactly one rotation, every line survives across the live file
  // and the single kept generation.
  const std::size_t live = ReadLines(path.str()).size();
  const std::size_t rotated = ReadLines(path.str() + ".1").size();
  EXPECT_GT(live, 0u);
  EXPECT_GT(rotated, 0u);
  EXPECT_EQ(live + rotated, 5u);
}

TEST(AccessLogTest, FullQueueDropsAndCountsInsteadOfBlocking) {
  TempLogPath path("drop");
  AccessLogger::Options options;
  options.path = path.str();
  AccessLogger log(options);
  // Many more lines than the queue holds, appended faster than any disk
  // could drain: some must drop, none may block, and the accounting must
  // balance exactly.
  constexpr int kLines = 50000;
  for (int i = 0; i < kLines; ++i) log.Append("{\"i\": 1}");
  log.Flush();
  const AccessLogger::Stats stats = log.stats();
  EXPECT_EQ(stats.lines_written + stats.lines_dropped,
            static_cast<std::uint64_t>(kLines));
  EXPECT_GT(stats.lines_written, 0u);
}

TEST(AccessLogTest, ConcurrentAppendersLoseNothingWithRoomyQueue) {
  TempLogPath path("mt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  static_assert(kThreads * kPerThread <= AccessLogger::kQueueCapacity);
  {
    AccessLogger::Options options;
    options.path = path.str();
    AccessLogger log(options);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log] {
        for (int i = 0; i < kPerThread; ++i) log.Append("{\"t\": 1}");
      });
    }
    for (std::thread& t : threads) t.join();
    log.Flush();
    EXPECT_EQ(log.stats().lines_written,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(log.stats().lines_dropped, 0u);
  }
  EXPECT_EQ(ReadLines(path.str()).size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(AccessLogTest, InvalidOptionsThrow) {
  EXPECT_THROW(
      {
        AccessLogger::Options options;  // empty path
        AccessLogger log(options);
      },
      InvalidArgument);
  EXPECT_THROW(
      {
        AccessLogger::Options options;
        options.path = "/nonexistent-dir-pipemap/denied.jsonl";
        AccessLogger log(options);
      },
      Error);
}

}  // namespace
}  // namespace pipemap
