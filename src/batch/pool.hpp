#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lcl::batch {

/// Fixed-size worker-thread pool behind an MPMC task queue - the execution
/// substrate of the landscape-survey runtime. Tasks are arbitrary callables;
/// `submit` returns a `std::future` that carries the task's value *or* the
/// exception it threw, so a failing task never takes down a worker (let
/// alone the pool) - the caller decides, per task, what a failure means.
///
/// Observability: each executed task runs under a `batch/task` span, and the
/// pool keeps the `batch.queue_depth` / `batch.active_workers` gauges and
/// the `batch.tasks` counter current (obs is runtime-gated as everywhere
/// else; an idle switch costs one atomic load).
///
/// Destruction waits for every submitted task to finish.
class Pool {
 public:
  struct Options {
    /// Worker count; 0 = `std::thread::hardware_concurrency()` (min 1).
    std::size_t threads = 0;
  };

  Pool();  // hardware-concurrency workers
  explicit Pool(Options options);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueues `fn` and returns the future for its result. Throws
  /// `std::runtime_error` if called during/after destruction.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only and std::function requires copyable
    // callables, hence the shared_ptr hop.
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Blocks until the queue is empty and every worker is idle. Tasks
  /// submitted while waiting extend the wait.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }
  /// Tasks that ran to the end. A worker counts a task after its future is
  /// ready, so the count is final only once `wait_idle()` has returned.
  std::uint64_t tasks_completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  std::size_t queue_depth() const;

  /// Microseconds since the pool was constructed.
  std::uint64_t wall_us() const;
  /// Busy fraction per worker in [0,1] over the pool's lifetime so far: time
  /// spent inside tasks over pool wall time. The fractions summed give the
  /// pool's effective parallelism - the honest denominator for speedup
  /// claims on oversubscribed boxes.
  std::vector<double> busy_fractions() const;

 private:
  void enqueue(std::function<void()> run);
  void worker_loop(std::size_t worker_index);

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;  // tasks currently executing (guarded by mutex_)
  bool stopping_ = false;   // destructor has begun (guarded by mutex_)
  std::atomic<std::uint64_t> completed_{0};
  /// Microseconds each worker spent inside tasks. Sized to the worker count
  /// before any worker starts; workers index it without synchronization.
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_us_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lcl::batch
