// Fixed-size worker pool for fan-out of independent simulations.
//
// Each experiment (seed x scenario x CCA) owns its Network and EventQueue, so
// parallelism is always per-run, never intra-run: submitting N runs to the
// pool preserves bitwise determinism while using every core. `submit` returns
// a std::future (exceptions propagate through it); `parallel_for` blocks
// until a whole index range has been processed; `fork_join` does the same
// without building task objects, for callers that fork at a high rate.
#pragma once

#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace libra {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) threads = default_thread_count();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// LIBRA_THREADS env var if set (>=1), else the hardware concurrency.
  static std::size_t default_thread_count() {
    if (const char* env = std::getenv("LIBRA_THREADS")) {
      long n = std::strtol(env, nullptr, 10);
      if (n >= 1) return static_cast<std::size_t>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  /// Enqueues `fn(args...)`; the returned future delivers the result or
  /// rethrows whatever the task threw.
  template <typename F, typename... Args>
  auto submit(F&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>> {
    using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [f = std::forward<F>(fn),
         tup = std::make_tuple(std::forward<Args>(args)...)]() mutable -> R {
          return std::apply(std::move(f), std::move(tup));
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for every i in [begin, end), fanned across the pool; blocks
  /// until the range is done. The first task exception (lowest index wins on
  /// ties by submission order) is rethrown on the caller.
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, F&& fn) {
    if (begin >= end) return;
    std::vector<std::future<void>> pending;
    pending.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      pending.push_back(submit([&fn, i] { fn(i); }));
    }
    std::exception_ptr first_error;
    for (auto& f : pending) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Runs fn(ctx, i) for every i in [0, n) on the workers and the calling
  /// thread; returns when all are done. No task object, future or closure
  /// is built, so it never allocates: the fleet engine forks one per
  /// lookahead window. The first exception to finish is rethrown on the
  /// caller. One fork_join at a time per pool.
  using IndexFn = void (*)(void* ctx, std::size_t i);
  void fork_join(std::size_t n, IndexFn fn, void* ctx) {
    std::unique_lock<std::mutex> lock(mu_);
    batch_ = Batch{fn, ctx, n, 0, n, nullptr};
    cv_.notify_all();
    while (batch_.next < batch_.n) run_batch_item(lock);
    batch_done_.wait(lock, [this] { return batch_.left == 0; });
    const std::exception_ptr error = batch_.error;
    batch_ = Batch{};
    lock.unlock();
    if (error) std::rethrow_exception(error);
  }

 private:
  struct Batch {
    IndexFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;  // next index to claim
    std::size_t left = 0;  // indices not yet finished
    std::exception_ptr error;
  };

  // Claims the next batch index under `lock`, runs it unlocked, relocks.
  void run_batch_item(std::unique_lock<std::mutex>& lock) {
    const std::size_t i = batch_.next++;
    const IndexFn fn = batch_.fn;
    void* ctx = batch_.ctx;
    lock.unlock();
    std::exception_ptr error;
    try {
      fn(ctx, i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !batch_.error) batch_.error = error;
    if (--batch_.left == 0) batch_done_.notify_all();
  }

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] {
          return stopping_ || !tasks_.empty() || batch_.next < batch_.n;
        });
        if (batch_.next < batch_.n) {
          run_batch_item(lock);
          continue;
        }
        if (tasks_.empty()) return;  // stopping_ set and queue drained
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable batch_done_;
  std::queue<std::function<void()>> tasks_;
  Batch batch_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace libra
