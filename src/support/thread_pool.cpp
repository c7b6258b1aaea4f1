#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "support/error.h"
#include "support/metrics.h"
#include "support/tracer.h"

namespace pipemap {

struct ThreadPool::Impl {
  std::mutex run_mutex;  // serializes parallel regions

  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> helpers;
  bool stop = false;

  // Current region, guarded by `mutex` (except the atomics).
  std::uint64_t generation = 0;
  const Body* body = nullptr;
  std::int64_t n = 0;
  std::int64_t grain = 1;
  ParallelSchedule schedule = ParallelSchedule::kStatic;
  int num_workers = 1;
  int pending = 0;  // participating helpers not yet finished
  std::atomic<std::int64_t> next{0};

  std::mutex error_mutex;
  std::exception_ptr error;

  void RunWorker(int worker) {
    PIPEMAP_TRACE_SPAN("pool.worker", "pool", worker);
    try {
      if (schedule == ParallelSchedule::kStatic) {
        const std::int64_t begin = n * worker / num_workers;
        const std::int64_t end = n * (worker + 1) / num_workers;
        if (begin < end) (*body)(worker, begin, end);
        return;
      }
      std::uint64_t chunks = 0;
      for (;;) {
        const std::int64_t begin = next.fetch_add(grain);
        if (begin >= n) break;
        ++chunks;
        (*body)(worker, begin, std::min(begin + grain, n));
      }
      PIPEMAP_COUNTER_ADD("pool.chunks", chunks);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      // Short-circuit the remaining dynamic chunks; static ranges finish.
      next.store(n);
    }
  }

  void HelperMain(int helper_index) {
    std::uint64_t seen = 0;
    for (;;) {
      int worker = -1;
      {
        // Helper idle time (blocked between regions). The clock is read
        // only while metrics are on, so the disabled path stays a plain
        // condition-variable wait.
        const bool measure = MetricsRegistry::Enabled();
        [[maybe_unused]] const std::uint64_t wait_begin =
            measure ? Tracer::NowNs() : 0;
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        if (measure) {
          PIPEMAP_HISTOGRAM_RECORD(
              "pool.dispatch_wait_us",
              static_cast<double>(Tracer::NowNs() - wait_begin) / 1000.0);
        }
        seen = generation;
        if (helper_index + 1 < num_workers) worker = helper_index + 1;
      }
      if (worker < 0) continue;
      RunWorker(worker);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (--pending == 0) done_cv.notify_one();
      }
    }
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->helpers) t.join();
  delete impl_;
}

void ThreadPool::ParallelFor(int num_workers, std::int64_t n,
                             ParallelSchedule schedule, std::int64_t grain,
                             const Body& body) {
  PIPEMAP_CHECK(grain >= 1, "ParallelFor: grain must be >= 1");
  num_workers = std::clamp(num_workers, 1, kMaxWorkers);
  if (n <= 0) return;
  num_workers = static_cast<int>(
      std::min<std::int64_t>(num_workers, n));
  PIPEMAP_COUNTER_ADD("pool.regions", 1);
  PIPEMAP_HISTOGRAM_RECORD("pool.region_items", static_cast<double>(n));
  PIPEMAP_GAUGE_MAX("pool.max_workers", num_workers);
  PIPEMAP_TRACE_SPAN("pool.region", "pool", n);
  if (num_workers == 1) {
    body(0, 0, n);
    return;
  }

  std::lock_guard<std::mutex> run_lock(impl_->run_mutex);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    while (static_cast<int>(impl_->helpers.size()) < num_workers - 1) {
      const int helper_index = static_cast<int>(impl_->helpers.size());
      impl_->helpers.emplace_back(
          [this, helper_index] { impl_->HelperMain(helper_index); });
    }
    PIPEMAP_GAUGE_SET("pool.helper_threads",
                      static_cast<double>(impl_->helpers.size()));
    impl_->body = &body;
    impl_->n = n;
    impl_->grain = grain;
    impl_->schedule = schedule;
    impl_->num_workers = num_workers;
    impl_->pending = num_workers - 1;
    impl_->next.store(0);
    impl_->error = nullptr;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  impl_->RunWorker(0);
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->done_cv.wait(lock, [&] { return impl_->pending == 0; });
    impl_->body = nullptr;
  }
  if (impl_->error) std::rethrow_exception(impl_->error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ThreadPool::AvailableConcurrency() {
  static const int available = [] {
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      const int n = CPU_COUNT(&mask);
      if (n >= 1) return n;
    }
#endif
    return HardwareConcurrency();
  }();
  return available;
}

int ThreadPool::ResolveThreads(int requested) {
  if (requested <= 0) return AvailableConcurrency();
  return std::min(requested, kMaxWorkers);
}

void ParallelFor(int num_threads, std::int64_t n, ParallelSchedule schedule,
                 std::int64_t grain, const ThreadPool::Body& body) {
  if (num_threads <= 1) {
    if (n > 0) body(0, 0, n);
    return;
  }
  ThreadPool::Shared().ParallelFor(num_threads, n, schedule, grain, body);
}

std::vector<std::int64_t> BalancedPartition(
    const std::vector<std::int64_t>& weights, int max_groups,
    std::int64_t min_group_weight) {
  const std::int64_t n = static_cast<std::int64_t>(weights.size());
  std::int64_t total = 0;
  for (const std::int64_t w : weights) total += w;

  std::int64_t groups = std::max<std::int64_t>(
      1, std::min<std::int64_t>(max_groups, n));
  if (min_group_weight > 0) {
    groups = std::min(groups,
                      std::max<std::int64_t>(1, total / min_group_weight));
  }

  std::vector<std::int64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(groups) + 1);
  bounds.push_back(0);
  std::int64_t acc = 0;
  std::int64_t i = 0;
  for (std::int64_t g = 1; g < groups; ++g) {
    // Close group g-1 at the first item whose cumulative weight reaches
    // the g-th ideal cut; always take at least one item, and leave at
    // least one per remaining group.
    const std::int64_t cut = total * g / groups;
    const std::int64_t last_start = n - (groups - g);
    do {
      acc += weights[static_cast<std::size_t>(i)];
      ++i;
    } while (i < last_start && acc < cut);
    bounds.push_back(i);
  }
  bounds.push_back(n);
  return bounds;
}

}  // namespace pipemap
