#ifndef CTFL_UTIL_THREAD_POOL_H_
#define CTFL_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace ctfl {

/// Resolves a user-facing `num_threads` knob to a concrete thread count:
/// `<= 0` means "hardware concurrency" (with a fallback of 4 when the
/// runtime cannot report it), any positive value is taken verbatim.
/// Shared by every parallel subsystem (tracer, FedAvg fan-out, matrix
/// kernels) so "0 = all cores, 1 = serial" means the same thing everywhere.
int ResolveThreadCount(int num_threads);

/// Worker pool with help-while-waiting fan-out (DESIGN.md §9.3).
/// ParallelFor is the workhorse of every parallel surface; the
/// deterministic engine builds its ordered reductions on top of it.
class ThreadPool {
 public:
  /// `num_threads <= 0` uses the hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads (the pool only grows, see Reserve).
  int num_threads() const { return num_workers_.load(); }

  /// Adds workers until the pool has at least `num_threads`.
  void Reserve(int num_threads);

  /// True while the calling thread runs indices of a ParallelFor, as its
  /// caller or as a helper.
  static bool InParallelFor();

  /// Enqueues a task; returns immediately. Tasks must not throw (use
  /// ParallelFor for exception-safe fan-out).
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  /// Runs fn(i) for i in [begin, end) and returns when every index has
  /// run. fn must be thread-safe.
  ///
  /// - The calling thread claims chunks of indices from a shared cursor
  ///   alongside up to `max_threads - 1` helpers from this pool
  ///   (`max_threads <= 0`: every worker). It waits only for chunks that
  ///   are already claimed, so a call from inside a worker, or from inside
  ///   another ParallelFor, completes even when every other worker is busy.
  /// - The outermost call's `max_threads` also caps every ParallelFor
  ///   nested in it: its threads are the budget the nested calls share,
  ///   whichever pool those run on. An outermost call of one thread runs
  ///   inline and leaves nested calls their own budgets.
  /// - The caller waiting for helpers, and a helper that ran chunks, spin
  ///   for up to 50 µs before they sleep: a grafted step's fan-outs come
  ///   tens of microseconds apart.
  /// - Exceptions thrown by fn are captured; the first one is rethrown on
  ///   the calling thread after every claimed chunk has finished. The
  ///   throwing chunk stops at the faulting index; other chunks still run,
  ///   so the pool stays reusable. A call no thread could help runs inline
  ///   and stops at the first throw.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   int max_threads = 0);

  /// Deterministic parallel map + ordered serial reduce: `map(i)` runs in
  /// parallel for i in [begin, end), each result landing in its own slot;
  /// then `reduce(i, T&&)` is invoked serially in strict index order on
  /// the calling thread. Because the reduction order is independent of the
  /// worker schedule, any order-sensitive fold (floating-point sums,
  /// secure-aggregation masking) is bit-identical to a serial loop — the
  /// primitive behind the determinism contract of DESIGN.md §9.
  template <typename T, typename MapFn, typename ReduceFn>
  void OrderedReduce(size_t begin, size_t end, MapFn map, ReduceFn reduce) {
    if (begin >= end) return;
    std::vector<T> results(end - begin);
    ParallelFor(begin, end,
                [&](size_t i) { results[i - begin] = map(i); });
    for (size_t i = begin; i < end; ++i) {
      reduce(i, std::move(results[i - begin]));
    }
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;  // guarded by mu_
  std::atomic<int> num_workers_{0};
  std::queue<std::function<void()>> tasks_;  // guarded by mu_
  /// tasks_.size(), readable without the lock.
  std::atomic<int> queued_{0};
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Runs fn(i) for i in [begin, end) on the process-wide compute pool with at
/// most ResolveThreadCount(num_threads) threads, the caller counting as
/// one. The pool is built on first use and grows to the largest budget
/// asked for; every compute surface (FedAvg clients, grafted steps, matrix
/// kernels, tracer keys, Match stripes) shares it.
void ParallelFor(int num_threads, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

}  // namespace ctfl

#endif  // CTFL_UTIL_THREAD_POOL_H_
