#include "ctfl/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ctfl {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(5000);
  pool.ParallelFor(0, touched.size(), [&](size_t i) {
    touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(10, 10, [&](size_t) { ++calls; });
  pool.ParallelFor(10, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<long> values(n);
  pool.ParallelFor(0, n, [&](size_t i) { values[i] = static_cast<long>(i); });
  const long total = std::accumulate(values.begin(), values.end(), 0L);
  EXPECT_EQ(total, static_cast<long>(n * (n - 1) / 2));
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GT(pool.num_threads(), 0);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 64, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ResolveThreadCountSemantics) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_GT(ResolveThreadCount(0), 0);
  EXPECT_GT(ResolveThreadCount(-3), 0);
  EXPECT_EQ(ResolveThreadCount(0), ResolveThreadCount(-1));
}

TEST(ThreadPoolTest, ParallelForRangeSmallerThanWorkerCount) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(3);
  pool.ParallelFor(0, touched.size(),
                   [&](size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesWorkerException) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 1000,
                       [&](size_t i) {
                         calls.fetch_add(1);
                         if (i == 137) {
                           throw std::runtime_error("boom at 137");
                         }
                       }),
      std::runtime_error);
  // The faulting chunk stopped early but every other chunk ran.
  EXPECT_GT(calls.load(), 0);
  EXPECT_LE(calls.load(), 1000);

  // The pool is still usable after an exception.
  std::atomic<int> after{0};
  pool.ParallelFor(0, 100, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPoolTest, ParallelForExceptionMessageSurvives) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(0, 10, [](size_t i) {
      if (i == 3) throw std::runtime_error("deterministic failure");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "deterministic failure");
  }
}

TEST(ThreadPoolTest, InParallelForFlagTracksContext) {
  EXPECT_FALSE(ThreadPool::InParallelFor());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  // Indices run on the caller and on helpers alike; both are inside.
  pool.ParallelFor(0, 16, [&](size_t) {
    if (ThreadPool::InParallelFor()) inside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 16);
  EXPECT_FALSE(ThreadPool::InParallelFor());
  std::atomic<bool> in_task{true};
  pool.Submit([&] { in_task = ThreadPool::InParallelFor(); });
  pool.Wait();
  EXPECT_FALSE(in_task.load());
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // A chunk calling ParallelFor on its own pool must not wait for work
  // that only a blocked thread could pick up: the nested call's thread
  // claims its chunks itself. With pool size 1 the one worker is usually
  // busy with the outer call, so a real wait for a queued helper would
  // hang; completion *is* the assertion.
  ThreadPool pool(1);
  std::atomic<int> outer{0}, inner{0};
  pool.ParallelFor(0, 4, [&](size_t) {
    outer.fetch_add(1);
    pool.ParallelFor(0, 8, [&](size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(outer.load(), 4);
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPoolTest, NestedParallelForAcrossPoolsRunsInline) {
  ThreadPool outer_pool(4);
  ThreadPool inner_pool(4);
  std::atomic<int> inner{0};
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  outer_pool.ParallelFor(
      0, 8,
      [&](size_t) {
        // Cross-pool nesting shares the outer call's budget of 3 threads:
        // while the outer call's threads are busy the inner loops run
        // inline, and no more than 3 threads ever run indices.
        inner_pool.ParallelFor(0, 8, [&](size_t) {
          const int now = active.fetch_add(1) + 1;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          inner.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          active.fetch_sub(1);
        });
      },
      3);
  EXPECT_EQ(inner.load(), 64);
  EXPECT_LE(peak.load(), 3);
}

TEST(ThreadPoolTest, NestedCallFromBusyPoolCompletes) {
  // Every other worker is blocked; a ParallelFor issued from the remaining
  // worker of the same pool must still finish, on that worker alone.
  ThreadPool pool(3);
  std::atomic<bool> release{false};
  for (int b = 0; b < 2; ++b) {
    pool.Submit([&] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  std::atomic<int> calls{0};
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  pool.Submit([&] {
    pool.ParallelFor(0, 64, [&](size_t) { calls.fetch_add(1); });
    done.set_value();
  });
  const bool completed =
      finished.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release = true;
  pool.Wait();
  ASSERT_TRUE(completed);
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPoolTest, ParallelForUsesIdleWorkers) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.ParallelFor(0, 64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GT(ids.size(), 1u);
  EXPECT_LE(ids.size(), 5u);
}

TEST(ThreadPoolTest, NestedIndicesRunExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(32 * 50);
  pool.ParallelFor(0, 32, [&](size_t outer) {
    pool.ParallelFor(0, 50, [&](size_t inner) {
      touched[outer * 50 + inner].fetch_add(1);
    });
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, NestedExceptionReachesOutermostCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 16,
                                [&](size_t outer) {
                                  pool.ParallelFor(0, 16, [&](size_t inner) {
                                    if (outer == 5 && inner == 9) {
                                      throw std::runtime_error("nested");
                                    }
                                  });
                                }),
               std::runtime_error);
  std::atomic<int> after{0};
  pool.ParallelFor(0, 100, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPoolTest, LateHelpersTouchNothing) {
  // Both workers are blocked, so the helpers this call submits can only
  // start after it returned: by then every chunk is claimed, and they must
  // neither run an index nor touch the (destroyed) function.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  for (int b = 0; b < 2; ++b) {
    pool.Submit([&] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  std::atomic<int> calls{0};
  std::atomic<bool> returned{false};
  std::atomic<int> late{0};
  {
    const std::function<void(size_t)> fn = [&](size_t) {
      calls.fetch_add(1);
      if (returned.load()) late.fetch_add(1);
    };
    pool.ParallelFor(0, 100, fn, 3);
  }
  returned = true;
  EXPECT_EQ(calls.load(), 100);
  release = true;
  pool.Wait();  // the late helpers have run
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(late.load(), 0);
}

TEST(ThreadPoolTest, ComputePoolRespectsThreadBudget) {
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  ParallelFor(3, 0, 24, [&](size_t) {
    ParallelFor(8, 0, 6, [&](size_t) {
      const int now = active.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      active.fetch_sub(1);
    });
  });
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 3);
  // A budget of one runs on the caller, and so does a nested call once the
  // outermost call's budget is spent.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  ParallelFor(1, 0, 8, [&](size_t) {
    if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
  });
  EXPECT_EQ(elsewhere.load(), 0);
  ParallelFor(2, 0, 1, [&](size_t) {
    ParallelFor(1, 0, 8, [&](size_t) {
      if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
    });
  });
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPoolTest, OrderedReduceEmptyAndInvertedRange) {
  ThreadPool pool(2);
  int reduces = 0;
  pool.OrderedReduce<int>(
      5, 5, [](size_t) { return 1; }, [&](size_t, int) { ++reduces; });
  pool.OrderedReduce<int>(
      9, 2, [](size_t) { return 1; }, [&](size_t, int) { ++reduces; });
  EXPECT_EQ(reduces, 0);
}

TEST(ThreadPoolTest, OrderedReduceVisitsIndicesInOrderUnderContention) {
  ThreadPool pool(8);
  const size_t n = 4096;
  std::vector<size_t> order;
  order.reserve(n);
  // Uneven per-index work so workers finish out of submission order; the
  // reduce sequence must stay strictly ascending regardless.
  pool.OrderedReduce<double>(
      0, n,
      [](size_t i) {
        double acc = 0.0;
        const int spins = (i % 7 == 0) ? 2000 : 10;
        for (int s = 0; s < spins; ++s) acc += std::sin(s + i);
        return acc + static_cast<double>(i);
      },
      [&](size_t i, double) { order.push_back(i); });
  ASSERT_EQ(order.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, OrderedReduceFoldMatchesSerialBitwise) {
  // An order-sensitive floating-point fold: x -> x * c + f(i). Any
  // reordering of the reduction changes the result, so equality with the
  // serial fold proves the parallel schedule is invisible.
  auto map = [](size_t i) {
    return std::sin(static_cast<double>(i) * 0.7) + 1.0 / (1.0 + i);
  };
  const size_t n = 2000;
  double serial = 0.0;
  for (size_t i = 0; i < n; ++i) serial = serial * 0.9999 + map(i);

  for (int trial = 0; trial < 3; ++trial) {
    ThreadPool pool(8);
    double folded = 0.0;
    pool.OrderedReduce<double>(
        0, n, map, [&](size_t, double v) { folded = folded * 0.9999 + v; });
    EXPECT_EQ(folded, serial) << "trial " << trial;
  }
}

TEST(ThreadPoolTest, OrderedReduceMoveOnlyResults) {
  ThreadPool pool(4);
  std::vector<int> collected;
  pool.OrderedReduce<std::unique_ptr<int>>(
      0, 64,
      [](size_t i) { return std::make_unique<int>(static_cast<int>(i)); },
      [&](size_t, std::unique_ptr<int> v) { collected.push_back(*v); });
  ASSERT_EQ(collected.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(collected[i], i);
}

}  // namespace
}  // namespace ctfl
