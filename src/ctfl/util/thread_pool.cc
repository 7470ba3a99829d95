#include "ctfl/util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>

namespace ctfl {

namespace {

/// Chunks per thread of a ParallelFor: claims of several chunks per thread
/// even out indices of uneven cost.
constexpr size_t kChunksPerThread = 8;

/// How long a thread spins before it sleeps on a condition: a grafted step
/// issues its fan-outs tens of microseconds apart, and waking a sleeping
/// thread costs about as much.
constexpr auto kSpin = std::chrono::microseconds(50);

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins until `ready()` or kSpin has passed; returns `ready()`.
template <typename Ready>
bool SpinUntil(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      CpuRelax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

/// Threads a tree of nested ParallelFor calls may still engage beyond those
/// already running its chunks. The outermost call creates it with
/// `max_threads - 1`; a helper takes one before it claims a chunk and gives
/// it back when it leaves, so the tree never runs on more threads than the
/// outermost call's budget.
struct Budget {
  explicit Budget(int spare) : spare(spare) {}

  bool TryTake() {
    int s = spare.load();
    while (s > 0) {
      if (spare.compare_exchange_weak(s, s - 1)) return true;
    }
    return false;
  }
  void Give() { spare.fetch_add(1); }

  std::atomic<int> spare;
};

/// One ParallelFor call, shared with its helper tasks. A helper holds it by
/// shared_ptr, so one that starts after the call returned still finds valid
/// bookkeeping, and nothing left to claim.
struct Call {
  Call(const std::function<void(size_t)>* fn, size_t begin, size_t end,
       size_t max_chunks, std::shared_ptr<Budget> budget)
      : fn(fn),
        begin(begin),
        end(end),
        chunk_size((end - begin + max_chunks - 1) / max_chunks),
        chunks((end - begin + chunk_size - 1) / chunk_size),
        budget(std::move(budget)),
        unfinished(this->chunks) {}

  const std::function<void(size_t)>* fn;
  size_t begin;
  size_t end;
  size_t chunk_size;
  size_t chunks;
  std::shared_ptr<Budget> budget;
  std::atomic<size_t> next{0};  ///< next chunk to claim
  std::atomic<size_t> unfinished;
  std::mutex mu;
  std::condition_variable finished;
  std::exception_ptr error;  // guarded by mu
};

/// The budget of the ParallelFor whose indices this thread is running, or
/// null outside any.
thread_local const std::shared_ptr<Budget>* t_budget = nullptr;

/// Installs `budget` as this thread's ParallelFor context for its lifetime.
class BudgetScope {
 public:
  explicit BudgetScope(const std::shared_ptr<Budget>* budget)
      : outer_(t_budget) {
    t_budget = budget;
  }
  ~BudgetScope() { t_budget = outer_; }

  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  const std::shared_ptr<Budget>* outer_;
};

/// Claims and runs chunks of `call` until none is left to claim.
void RunChunks(Call& call) {
  BudgetScope scope(&call.budget);
  for (;;) {
    const size_t c = call.next.fetch_add(1);
    if (c >= call.chunks) return;
    const size_t lo = call.begin + c * call.chunk_size;
    const size_t hi = std::min(call.end, lo + call.chunk_size);
    try {
      for (size_t i = lo; i < hi; ++i) (*call.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(call.mu);
      if (!call.error) call.error = std::current_exception();
    }
    if (call.unfinished.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(call.mu);
      call.finished.notify_all();
    }
  }
}

/// A helper task: joins `call` if chunks are left and the budget allows.
/// True when it ran chunks.
bool Help(Call& call) {
  if (call.next.load() >= call.chunks) return false;
  if (!call.budget->TryTake()) return false;
  RunChunks(call);
  call.budget->Give();
  return true;
}


}  // namespace

int ResolveThreadCount(int num_threads) {
  if (num_threads > 0) return num_threads;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 4;
}

bool ThreadPool::InParallelFor() { return t_budget != nullptr; }

ThreadPool::ThreadPool(int num_threads) {
  Reserve(ResolveThreadCount(num_threads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Reserve(int num_threads) {
  if (num_workers_.load() >= num_threads) return;
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < num_threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  num_workers_.store(static_cast<int>(workers_.size()));
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
    queued_.fetch_add(1);
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             int max_threads) {
  if (begin >= end) return;
  const int threads = max_threads > 0 ? max_threads : num_threads() + 1;
  const size_t chunks = std::min<size_t>(
      end - begin, static_cast<size_t>(threads) * kChunksPerThread);

  // Nested calls share the outermost call's budget.
  std::shared_ptr<Budget> outermost;
  const std::shared_ptr<Budget>* budget = t_budget;
  if (budget == nullptr) {
    if (threads == 1) {
      // Serial: no budget to share, so nested calls keep their own.
      for (size_t i = begin; i < end; ++i) fn(i);
      return;
    }
    outermost = std::make_shared<Budget>(threads - 1);
    budget = &outermost;
  }
  const int helpers = std::min({threads - 1, static_cast<int>(chunks) - 1,
                                 (*budget)->spare.load()});
  if (helpers <= 0) {
    // Nobody could help: run inline, where the first exception propagates
    // as thrown.
    BudgetScope scope(budget);
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  auto call = std::make_shared<Call>(&fn, begin, end, chunks, *budget);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int h = 0; h < helpers; ++h) {
      tasks_.push([this, call] {
        // The caller's next fan-out usually follows within microseconds.
        if (Help(*call)) SpinUntil([this] { return queued_.load() > 0; });
      });
    }
    in_flight_ += static_cast<size_t>(helpers);
    queued_.fetch_add(helpers);
  }
  for (int h = 0; h < helpers; ++h) task_ready_.notify_one();

  RunChunks(*call);
  SpinUntil([&] { return call->unfinished.load() == 0; });
  {
    // Only chunks that helpers already claimed can be unfinished here.
    std::unique_lock<std::mutex> lock(call->mu);
    call->finished.wait(lock, [&] { return call->unfinished.load() == 0; });
  }
  if (call->error) std::rethrow_exception(call->error);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      queued_.fetch_sub(1);
    }
    task();
    task = nullptr;  // release what the task holds before reporting done
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(int num_threads, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  // Built on first use and never destroyed: workers may still be parked in
  // it while static destructors run at exit.
  static ThreadPool* const pool = new ThreadPool(1);
  const int threads = ResolveThreadCount(num_threads);
  // A nested call cannot use more threads than the outermost one reserved.
  if (!ThreadPool::InParallelFor()) pool->Reserve(threads - 1);
  pool->ParallelFor(begin, end, fn, threads);
}

}  // namespace ctfl
