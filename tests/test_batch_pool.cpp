#include "batch/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

namespace lcl {
namespace {

using batch::Pool;

TEST(BatchPool, RunsTasksAndReturnsValues) {
  Pool pool(Pool::Options{4});
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  int total = 0;
  for (auto& f : futures) total += f.get();
  int expected = 0;
  for (int i = 0; i < 100; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
  pool.wait_idle();  // the last task may be counted after its get()
  EXPECT_EQ(pool.tasks_completed(), 100u);
}

TEST(BatchPool, DefaultsToHardwareConcurrency) {
  Pool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(BatchPool, TaskExceptionLandsInTheFutureOnly) {
  Pool pool(Pool::Options{2});
  auto failing = pool.submit(
      []() -> int { throw std::runtime_error("task boom"); });
  auto fine = pool.submit([]() { return 7; });
  EXPECT_THROW(
      {
        try {
          failing.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task boom");
          throw;
        }
      },
      std::runtime_error);
  // The worker that ran the throwing task is still alive and serving.
  EXPECT_EQ(fine.get(), 7);
  auto after = pool.submit([]() { return 8; });
  EXPECT_EQ(after.get(), 8);
}

TEST(BatchPool, WaitIdleDrainsTheQueue) {
  Pool pool(Pool::Options{3});
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&done]() { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(BatchPool, ManyThreadsManyTasksStress) {
  Pool pool(Pool::Options{8});
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futures;
  constexpr int kTasks = 2000;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(
        pool.submit([&sum, i]() { sum.fetch_add(static_cast<std::uint64_t>(i)); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kTasks) * (kTasks - 1) / 2);
  pool.wait_idle();  // the last task may be counted after its get()
  EXPECT_EQ(pool.tasks_completed(), static_cast<std::uint64_t>(kTasks));
}

TEST(BatchPool, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    Pool pool(Pool::Options{2});
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done]() { done.fetch_add(1); });
    }
    // No explicit wait: ~Pool must run everything that was submitted.
  }
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace lcl
