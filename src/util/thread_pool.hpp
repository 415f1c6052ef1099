// Fixed-size worker pool for the per-AS and per-row fan-out in the hot
// paths (pipeline analysis, KDE convolution passes).
//
// Deliberately simple — no work stealing, no task priorities: a mutex-
// protected queue, `submit` returning a std::future, a blocking
// `parallel_for` that splits an index range into contiguous chunks, and a
// `parallel_map_reduce` that additionally gives each chunk a private state
// and folds the states back in chunk order (the shard-then-merge shape the
// dataset build uses).  Each chunk writes disjoint output and the chunk
// boundaries depend only on the range and the requested concurrency, so
// parallel results are bit-identical to the serial ones as long as each
// index's computation is independent.  Per-AS work of very uneven size
// goes through `for_each_largest_first` instead: one shared cursor over
// the indices, heaviest first.
//
// Nesting: a `parallel_for` issued from inside a worker thread runs inline
// on that worker (no re-submission), which both avoids deadlocking a pool
// that is already saturated with the outer loop's chunks and keeps the
// outer fan-out the only level of parallelism.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>

#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

namespace eyeball::util {

class ThreadPool {
 public:
  /// `worker_count` == 0 means one worker per hardware thread.
  explicit ThreadPool(std::size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Enqueues `task` and returns a future for its result.  Exceptions thrown
  /// by the task surface from future::get().
  template <typename F>
  [[nodiscard]] auto submit(F&& task) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto packaged =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    enqueue([packaged] { (*packaged)(); });
    return future;
  }

  /// Runs `body(chunk_begin, chunk_end)` over [begin, end) split into at most
  /// `max_concurrency` contiguous chunks (0 = one per worker), blocking until
  /// every chunk finished.  Runs inline when the effective concurrency is 1,
  /// the range is empty, or the caller is itself a pool worker.  The first
  /// exception thrown by any chunk is rethrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t max_concurrency = 0);

  /// Map/reduce over [begin, end): the range is split into the same
  /// deterministic contiguous chunks as `parallel_for`, each chunk runs
  /// `map(chunk_lo, chunk_hi)` on the pool into a private `State` (no shared
  /// mutable data), and the caller then folds the states with
  /// `reduce(state)` strictly in chunk order.  Because chunks are contiguous
  /// and reduction is ordered, any reduce that concatenates or accumulates
  /// per-index results reproduces the serial left-to-right fold exactly, at
  /// any concurrency.  Runs inline (one chunk) when the effective
  /// concurrency is 1, the range is empty, or the caller is a pool worker.
  /// The first exception thrown by a map chunk is rethrown after all chunks
  /// finished; reduce runs on the calling thread only.
  template <typename Map, typename Reduce>
  void parallel_map_reduce(std::size_t begin, std::size_t end, const Map& map,
                           const Reduce& reduce, std::size_t max_concurrency = 0) {
    using State = std::invoke_result_t<const Map&, std::size_t, std::size_t>;
    if (begin >= end) return;
    const std::size_t count = end - begin;
    // Same machine-independent chunking rule as parallel_for: the requested
    // concurrency alone (clamped by the range) decides the chunk boundaries,
    // so the reduce sees identical shard slices on any pool size.
    std::size_t ways = max_concurrency == 0 ? worker_count() : max_concurrency;
    ways = std::min(ways, count);
    if (ways <= 1 || on_worker_thread()) {
      reduce(map(begin, end));
      return;
    }

    const std::size_t chunk = (count + ways - 1) / ways;
    EYEBALL_DCHECK(chunk > 0, "map/reduce chunking degenerated to empty shards");
    std::vector<std::future<State>> futures;
    futures.reserve(ways);
    [[maybe_unused]] std::size_t previous_hi = begin;
    for (std::size_t w = 0; w < ways; ++w) {
      const std::size_t lo = begin + w * chunk;
      if (lo >= end) break;
      const std::size_t hi = std::min(end, lo + chunk);
      // The ordered reduce below is only byte-identical to the serial fold
      // if shards tile [begin, end) contiguously, in order, with no overlap.
      EYEBALL_DCHECK(lo == previous_hi && lo < hi && hi <= end,
                     "shards must tile the range contiguously and in order");
      previous_hi = hi;
      futures.push_back(submit([&map, lo, hi] { return map(lo, hi); }));
    }
    EYEBALL_DCHECK(previous_hi == end, "shards must cover the whole range");

    // Drain every chunk before rethrowing so no worker still touches the
    // caller's captures when an exception unwinds.
    std::exception_ptr first_error;
    for (auto& future : futures) {
      try {
        reduce(future.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  /// True when called from one of any ThreadPool's worker threads.
  [[nodiscard]] static bool on_worker_thread() noexcept;

  /// Process-wide pool with one worker per hardware thread, created on first
  /// use.  Callers cap their share with parallel_for's `max_concurrency`.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void enqueue(std::function<void()> task) EYEBALL_EXCLUDES(mutex_);
  void worker_loop() EYEBALL_EXCLUDES(mutex_);

  /// Guards the task queue and the shutdown flag; workers and submitters
  /// meet only here.  Never held while a task runs.
  Mutex mutex_;
  // condition_variable_any, not condition_variable: the wait takes our
  // annotated MutexLock directly, so the queue accesses around it stay
  // visible to the thread-safety analysis.
  std::condition_variable_any wake_;
  std::deque<std::function<void()>> queue_ EYEBALL_GUARDED_BY(mutex_);
  // Written by the constructor only (before any concurrency exists), then
  // read-only until the destructor joins — no capability needed.
  std::vector<std::thread> workers_;
  bool stopping_ EYEBALL_GUARDED_BY(mutex_) = false;
};

/// Largest-first dynamic fan-out on the shared pool: runs `body(i)` once
/// for every index in `indices`, on up to `max_concurrency` threads (0 = one
/// per pool worker).  The indices are handed out heaviest `weight(i)` first
/// (ties keep their given order) from one shared cursor, so a heavy index
/// starts early instead of landing last in some thread's contiguous chunk,
/// and a thread that finishes takes the next index rather than idling.  The
/// order only schedules work: when each `body(i)` writes just its own slot,
/// the result is the same at any concurrency.  Runs inline on the calling
/// thread when the concurrency is 1 or the caller is a pool worker.
///
/// A body that also takes a `Scratch&` gets one default-constructed
/// `Scratch` per thread, reused for every index that thread takes (a
/// buffer allocated per thread, not per index).
template <typename Scratch = std::monostate, typename Weight, typename Body>
void for_each_largest_first(std::vector<std::size_t> indices, const Weight& weight,
                            const Body& body, std::size_t max_concurrency) {
  std::stable_sort(indices.begin(), indices.end(),
                   [&](std::size_t a, std::size_t b) { return weight(a) > weight(b); });
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t ways = max_concurrency == 0 ? pool.worker_count() : max_concurrency;
  std::atomic<std::size_t> cursor{0};
  pool.parallel_for(
      0, std::min(ways, indices.size()),
      [&](std::size_t, std::size_t) {
        Scratch scratch{};
        for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
             k < indices.size(); k = cursor.fetch_add(1, std::memory_order_relaxed)) {
          if constexpr (std::is_invocable_v<const Body&, std::size_t, Scratch&>) {
            body(indices[k], scratch);
          } else {
            body(indices[k]);
          }
        }
      },
      ways);
}

}  // namespace eyeball::util
