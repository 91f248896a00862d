// core::ThreadPool error semantics: wait_idle()'s contract — first error
// wins, the other jobs still run to completion, and the pool stays usable
// after the rethrow — is what the sweep backends lean on, so it gets
// pinned here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"

namespace paratick::core {
namespace {

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIdleWithNoJobsReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang or throw
  SUCCEED();
}

TEST(ThreadPool, WaitIdleRethrowsAJobError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("job failed"); });
  bool caught = false;
  try {
    pool.wait_idle();
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "job failed");
  }
  EXPECT_TRUE(caught);
}

TEST(ThreadPool, FirstOfSeveralErrorsWinsAndAllJobsStillRun) {
  ThreadPool pool(1);  // single worker: job order IS completion order
  std::atomic<int> ran{0};
  pool.submit([&] {
    ran.fetch_add(1);
    throw std::runtime_error("first");
  });
  pool.submit([&] {
    ran.fetch_add(1);
    throw std::runtime_error("second");
  });
  pool.submit([&] { ran.fetch_add(1); });  // plain job after the failures

  bool caught = false;
  try {
    pool.wait_idle();
  } catch (const std::runtime_error& e) {
    caught = true;
    // The FIRST error is kept; later ones are dropped, not queued.
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_TRUE(caught);
  // A failing job never takes the rest of the queue down.
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, PoolIsReusableAfterRethrow) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("poisoned"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);

  // The error slot was consumed by the rethrow: the next batch runs clean
  // and a second wait_idle() must NOT replay the old exception.
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ParallelForIndexCoversEveryIndexOnce) {
  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(64);
    parallel_for_index(hits.size(), threads,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " @" << threads;
    }
  }
}

TEST(ThreadPool, JobsRunConcurrently) {
  // Two jobs that each wait for the other: only completes if the pool
  // really runs them on distinct threads.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "jobs never overlapped";
        std::this_thread::yield();
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(arrived.load(), 2);
}

}  // namespace
}  // namespace paratick::core
