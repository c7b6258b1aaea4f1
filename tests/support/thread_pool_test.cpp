// ThreadPool's worker-count resolution.
#include "support/thread_pool.h"

#include "gtest/gtest.h"

namespace pipemap {
namespace {

// num_threads <= 0 means every CPU this process may run on: the affinity
// mask, not the machine's core count, so a solve pinned to one CPU does
// not start a worker per core of the host.
TEST(ThreadPoolTest, ResolveThreadsDefaultsToTheAffinityMask) {
  EXPECT_EQ(ThreadPool::ResolveThreads(0), ThreadPool::AvailableConcurrency());
  EXPECT_EQ(ThreadPool::ResolveThreads(-3),
            ThreadPool::AvailableConcurrency());
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3);
  EXPECT_EQ(ThreadPool::ResolveThreads(100000), ThreadPool::kMaxWorkers);
}

}  // namespace
}  // namespace pipemap
