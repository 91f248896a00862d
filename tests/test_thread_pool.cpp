// core::parallel_for_index's contract — every index runs exactly once,
// the first error is rethrown after every worker joined, and the workers
// really run concurrently — is what the sweep runner leans on, so it gets
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

TEST(ParallelForIndex, CoversEveryIndexOnce) {
  for (const unsigned threads : {0u, 1u, 4u}) {
    std::vector<std::atomic<int>> hits(64);
    parallel_for_index(hits.size(), threads,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " @" << threads;
    }
  }
}

TEST(ParallelForIndex, EmptyRangeRunsNothing) {
  bool ran = false;
  parallel_for_index(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForIndex, FirstOfSeveralErrorsWinsAndEveryIndexStillRuns) {
  // One worker runs the indices in order, so index 1's error is first.
  std::vector<int> ran;
  bool caught = false;
  try {
    parallel_for_index(5, 1, [&](std::size_t i) {
      ran.push_back(static_cast<int>(i));
      if (i == 1) throw std::runtime_error("first");
      if (i == 3) throw std::runtime_error("second");
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    // The FIRST error is kept; later ones are dropped, not queued.
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_TRUE(caught);
  // A failing index never takes the rest of the range down.
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForIndex, ErrorOnAWorkerIsRethrownAfterEveryIndexRan) {
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(parallel_for_index(hits.size(), 4,
                                  [&](std::size_t i) {
                                    hits[i].fetch_add(1);
                                    if (i % 7 == 0) {
                                      throw std::runtime_error(
                                          "index " + std::to_string(i));
                                    }
                                  }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForIndex, WorkersRunConcurrently) {
  // Two indices that each wait for the other: only completes if they
  // really run on distinct threads.
  std::atomic<int> arrived{0};
  parallel_for_index(2, 2, [&](std::size_t) {
    arrived.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "workers never overlapped";
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(), 2);
}

}  // namespace
}  // namespace paratick::core
