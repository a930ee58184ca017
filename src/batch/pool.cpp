#include "batch/pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace lcl::batch {

Pool::Pool() : Pool(Options{}) {}

Pool::Pool(Options options) : start_(std::chrono::steady_clock::now()) {
  std::size_t threads = options.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  busy_us_ = std::make_unique<std::atomic<std::uint64_t>[]>(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i]() { worker_loop(i); });
  }
}

Pool::~Pool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Drain-then-stop: everything still queued runs.
    idle_.wait(lock, [this]() { return queue_.empty() && active_ == 0; });
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void Pool::enqueue(std::function<void()> run) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("batch::Pool: submit after shutdown began");
    }
    queue_.push_back(std::move(run));
    LCL_OBS_GAUGE_SET("batch.queue_depth", queue_.size());
  }
  work_available_.notify_one();
}

void Pool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this]() { return queue_.empty() && active_ == 0; });
}

std::size_t Pool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::uint64_t Pool::wall_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

std::vector<double> Pool::busy_fractions() const {
  const std::uint64_t wall = std::max<std::uint64_t>(1, wall_us());
  std::vector<double> fractions(workers_.size(), 0.0);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    fractions[i] =
        static_cast<double>(busy_us_[i].load(std::memory_order_relaxed)) /
        static_cast<double>(wall);
  }
  return fractions;
}

void Pool::worker_loop(std::size_t worker_index) {
  std::atomic<std::uint64_t>& busy_us = busy_us_[worker_index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this]() { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      LCL_OBS_GAUGE_SET("batch.queue_depth", queue_.size());
      LCL_OBS_GAUGE_SET("batch.active_workers", active_);
    }
    const auto task_start = std::chrono::steady_clock::now();
    {
      // The packaged_task inside captures any exception into its future;
      // nothing propagates into the worker loop.
      LCL_OBS_SPAN(task_span, "batch/task", "batch");
      task();
    }
    const auto task_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - task_start)
            .count();
    busy_us.fetch_add(static_cast<std::uint64_t>(task_us),
                      std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    LCL_OBS_COUNTER_ADD("batch.tasks", 1);
    LCL_OBS_HISTOGRAM_RECORD("batch.task_us", task_us);
    bool idle_now = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      LCL_OBS_GAUGE_SET("batch.active_workers", active_);
      idle_now = queue_.empty() && active_ == 0;
    }
    if (idle_now) idle_.notify_all();
  }
}

}  // namespace lcl::batch
