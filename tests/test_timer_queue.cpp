#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include "guest/timer_queue.hpp"
#include "sim/rng.hpp"

namespace paratick::guest {
namespace {

using sim::SimTime;

TEST(TimerQueue, ExpiresInDeadlineOrder) {
  TimerQueue q;
  std::vector<int> order;
  q.add(SimTime::us(30), [&] { order.push_back(3); });
  q.add(SimTime::us(10), [&] { order.push_back(1); });
  q.add(SimTime::us(20), [&] { order.push_back(2); });
  q.expire(SimTime::us(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerQueue, OnlyDueTimersExpire) {
  TimerQueue q;
  int fired = 0;
  q.add(SimTime::us(10), [&] { ++fired; });
  q.add(SimTime::us(50), [&] { ++fired; });
  q.expire(SimTime::us(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending_count(), 1u);
}

TEST(TimerQueue, BoundaryIsInclusive) {
  TimerQueue q;
  bool fired = false;
  q.add(SimTime::us(10), [&] { fired = true; });
  q.expire(SimTime::us(10));
  EXPECT_TRUE(fired);
}

TEST(TimerQueue, NextDeadline) {
  TimerQueue q;
  EXPECT_FALSE(q.next_deadline().has_value());
  q.add(SimTime::us(42), [] {});
  q.add(SimTime::us(17), [] {});
  EXPECT_EQ(q.next_deadline(), SimTime::us(17));
}

TEST(TimerQueue, CallbackMayRearm) {
  TimerQueue q;
  int fires = 0;
  std::function<void()> cb = [&] {
    if (++fires < 2) q.add(SimTime::us(20), cb);
  };
  q.add(SimTime::us(10), cb);
  q.expire(SimTime::us(15));
  EXPECT_EQ(fires, 1);
  q.expire(SimTime::us(25));
  EXPECT_EQ(fires, 2);
}

TEST(TimerQueue, TimerAddedByCallbackWaitsForNextExpire) {
  // Due timers are collected before any fires: a callback's timer at or
  // before `now` is left for the next pass, not fired in this one.
  TimerQueue q;
  std::vector<int> order;
  q.add(SimTime::us(10), [&] {
    order.push_back(1);
    q.add(SimTime::us(5), [&] { order.push_back(2); });
    q.add(SimTime::us(10), [&] { order.push_back(3); });
  });
  q.expire(SimTime::us(10));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(q.pending_count(), 2u);
  EXPECT_EQ(q.next_deadline(), SimTime::us(5));
  q.expire(SimTime::us(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.pending_count(), 0u);
}

TEST(TimerQueue, EqualDeadlinesBothFire) {
  TimerQueue q;
  int fired = 0;
  q.add(SimTime::us(5), [&] { ++fired; });
  q.add(SimTime::us(5), [&] { ++fired; });
  q.expire(SimTime::us(5));
  EXPECT_EQ(fired, 2);
}

TEST(TimerQueue, EqualDeadlinesFireInAddOrder) {
  TimerQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.add(SimTime::us(i % 2 == 0 ? 5 : 3), [&order, i] { order.push_back(i); });
  }
  q.expire(SimTime::us(5));
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 0, 2, 4, 6}));
}

TEST(TimerQueue, FiredCount) {
  TimerQueue q;
  q.add(SimTime::us(1), [] {});
  q.add(SimTime::us(2), [] {});
  q.expire(SimTime::us(10));
  EXPECT_EQ(q.fired_count(), 2u);
  q.add(SimTime::us(20), [] {});
  q.expire(SimTime::us(15));
  EXPECT_EQ(q.fired_count(), 2u);
  q.expire(SimTime::us(20));
  EXPECT_EQ(q.fired_count(), 3u);
}

// Randomized adds (some from callbacks, some already due) and expires,
// checked step by step against a std::multimap keyed by deadline: the
// same timers fire, in the same order, and the queue agrees on its next
// deadline and size after every pass.
class TimerQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimerQueueProperty, MatchesMultimapReference) {
  sim::Rng rng(GetParam());
  TimerQueue q;
  std::multimap<SimTime, int> ref;
  std::vector<int> fired;
  int next_id = 0;
  SimTime now = SimTime::zero();

  // Adds one timer to both; a third of them add another from their
  // callback, which the reference files at the end of the same pass.
  std::vector<std::pair<SimTime, int>> ref_rearms;
  // What the timer callbacks share, captured by one reference so that a
  // callback stays within the InlineCallback capacity.
  struct Context {
    TimerQueue& q;
    std::vector<int>& fired;
    int& next_id;
    std::vector<std::pair<SimTime, int>>& ref_rearms;
  } ctx{q, fired, next_id, ref_rearms};
  auto add_one = [&] {
    const int id = next_id++;
    const SimTime deadline = now + SimTime::us(rng.uniform_int(-20, 200));
    const bool rearm = rng.uniform_int(0, 2) == 0;
    const SimTime rearm_at = now + SimTime::us(rng.uniform_int(-5, 50));
    q.add(deadline, [&ctx, id, rearm, rearm_at] {
      ctx.fired.push_back(id);
      if (!rearm) return;
      const int child = ctx.next_id++;
      ctx.q.add(rearm_at, [&fired = ctx.fired, child] { fired.push_back(child); });
      ctx.ref_rearms.emplace_back(rearm_at, child);
    });
    ref.emplace(deadline, id);
  };

  for (int step = 0; step < 2000; ++step) {
    const auto adds = rng.uniform_int(0, 3);
    for (std::int64_t i = 0; i < adds; ++i) add_one();
    now += SimTime::us(rng.uniform_int(0, 40));

    std::vector<int> expected;
    while (!ref.empty() && ref.begin()->first <= now) {
      expected.push_back(ref.begin()->second);
      ref.erase(ref.begin());
    }
    fired.clear();
    ref_rearms.clear();
    q.expire(now);
    // The callbacks of this pass know their children's ids only once
    // they have run, so the reference learns them afterwards.
    for (const auto& [at, child] : ref_rearms) ref.emplace(at, child);

    ASSERT_EQ(fired, expected) << "step " << step;
    ASSERT_EQ(q.pending_count(), ref.size()) << "step " << step;
    if (ref.empty()) {
      ASSERT_FALSE(q.next_deadline().has_value()) << "step " << step;
    } else {
      ASSERT_EQ(q.next_deadline(), ref.begin()->first) << "step " << step;
    }
  }
  EXPECT_GT(q.fired_count(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerQueueProperty,
                         ::testing::Values(1u, 7u, 42u, 20261018u));

}  // namespace
}  // namespace paratick::guest
