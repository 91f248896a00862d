#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace paratick::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::ns(30), [&] { order.push_back(3); });
  q.schedule(SimTime::ns(10), [&] { order.push_back(1); });
  q.schedule(SimTime::ns(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesPopFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::ns(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(SimTime::ns(10), [&] { fired = true; });
  EXPECT_TRUE(q.pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pending(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::ns(10), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdIsSafe) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, CancelledHeadSkippedByNextTime) {
  EventQueue q;
  const EventId first = q.schedule(SimTime::ns(10), [] {});
  q.schedule(SimTime::ns(20), [] {});
  q.cancel(first);
  EXPECT_EQ(q.next_time(), SimTime::ns(20));
}

TEST(EventQueue, PopSkipsCancelled) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.schedule(SimTime::ns(1), [&] { order.push_back(1); });
  q.schedule(SimTime::ns(2), [&] { order.push_back(2); });
  q.cancel(a);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CountersTrackActivity) {
  EventQueue q;
  const EventId a = q.schedule(SimTime::ns(1), [] {});
  q.schedule(SimTime::ns(2), [] {});
  q.cancel(a);
  EXPECT_EQ(q.scheduled_count(), 2u);
  EXPECT_EQ(q.cancelled_count(), 1u);
}

TEST(EventQueue, SizeReflectsLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(SimTime::ns(1), [] {});
  q.schedule(SimTime::ns(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, HeapCompactsWhenDeadEntriesDominate) {
  // Regression: lazy deletion left every cancelled entry in the heap until
  // popped; under timer-heavy workloads (dynticks reprogramming on every
  // idle transition) the heap grew far beyond size(). The queue must now
  // reclaim dead entries once they exceed half the heap.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(q.schedule(SimTime::ns(i + 1), [] {}));
  }
  for (int i = 0; i < 9900; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.size(), 100u);
  // Invariant: dead weight never exceeds live entries (plus the small
  // compaction floor below which reclaiming is not worth it).
  EXPECT_LE(q.heap_entries(), 2 * q.size() + 64);
}

TEST(EventQueue, RepeatedReprogrammingStaysBounded) {
  // The dynticks pattern: schedule a deadline, cancel it, schedule the next.
  EventQueue q;
  EventId pending = q.schedule(SimTime::ns(1), [] {});
  for (int i = 2; i < 50000; ++i) {
    EXPECT_TRUE(q.cancel(pending));
    pending = q.schedule(SimTime::ns(i), [] {});
    ASSERT_LE(q.heap_entries(), 2 * q.size() + 64);
  }
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CompactionPreservesPopOrder) {
  EventQueue q;
  std::vector<EventId> doomed;
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    // Interleave survivors (record i) with victims at shuffled times.
    q.schedule(SimTime::ns(1000 + i), [&order, i] { order.push_back(i); });
    doomed.push_back(q.schedule(SimTime::ns(5000 - i), [] {}));
  }
  for (const EventId id : doomed) q.cancel(id);  // triggers compaction
  int expected = 0;
  while (!q.empty()) q.pop().fn();
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], expected++);
  }
  EXPECT_EQ(expected, 500);
}

TEST(EventQueue, CancelAllThenReuse) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(q.schedule(SimTime::ns(i + 1), [] {}));
  for (const EventId id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.heap_entries(), 64u);
  bool fired = false;
  q.schedule(SimTime::ns(7), [&] { fired = true; });
  EXPECT_EQ(q.next_time(), SimTime::ns(7));
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StressOrderingRandomTimes) {
  EventQueue q;
  std::vector<std::int64_t> times;
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto t = static_cast<std::int64_t>(x % 1000);
    q.schedule(SimTime::ns(t), [] {});
  }
  SimTime last = SimTime::zero();
  while (!q.empty()) {
    auto [when, seq, fn] = q.pop();
    EXPECT_GE(when, last);
    last = when;
  }
}

TEST(EventQueue, StaleIdAfterSlotReuseIsRejected) {
  // ABA guard: a slot freed by pop/cancel is reused for new events with a
  // bumped generation, so an old EventId pointing at the same slot must
  // neither read as pending nor cancel the new occupant.
  EventQueue q;
  const EventId old_id = q.schedule(SimTime::ns(1), [] {});
  EXPECT_TRUE(q.cancel(old_id));

  // The freed slot is recycled (LIFO free list) by the very next schedule.
  bool fired = false;
  const EventId new_id = q.schedule(SimTime::ns(2), [&] { fired = true; });
  EXPECT_NE(old_id, new_id);

  EXPECT_FALSE(q.pending(old_id));
  EXPECT_TRUE(q.pending(new_id));
  EXPECT_FALSE(q.cancel(old_id));  // must not kill the new occupant
  EXPECT_TRUE(q.pending(new_id));

  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ManyGenerationsOfReuseStayDistinct) {
  // Drive one slot through many retire/reuse cycles: every retired id must
  // stay dead, and the live one must stay cancellable, at each generation.
  EventQueue q;
  std::vector<EventId> retired;
  EventId live = q.schedule(SimTime::ns(1), [] {});
  for (int gen = 0; gen < 1000; ++gen) {
    EXPECT_TRUE(q.cancel(live));
    retired.push_back(live);
    live = q.schedule(SimTime::ns(gen + 2), [] {});
    EXPECT_EQ(q.size(), 1u);
  }
  for (const EventId id : retired) {
    EXPECT_FALSE(q.pending(id));
    EXPECT_FALSE(q.cancel(id));
  }
  EXPECT_TRUE(q.pending(live));
}

TEST(EventQueue, EqualTimesStayFifoAcrossSlotReuse) {
  // Regression for the slot-map rewrite: FIFO order at equal timestamps
  // must come from the global schedule sequence, not from slot indices —
  // recycled (lower-index) slots must not jump ahead of older events.
  EventQueue q;
  std::vector<int> order;
  // Occupy low slots, then free them so later schedules reuse them.
  std::vector<EventId> doomed;
  for (int i = 0; i < 8; ++i) doomed.push_back(q.schedule(SimTime::ns(1), [] {}));
  q.schedule(SimTime::ns(5), [&order] { order.push_back(0); });  // slot 8
  for (const EventId id : doomed) q.cancel(id);
  // These land in recycled slots 0..7 but were scheduled later.
  for (int i = 1; i <= 8; ++i) {
    q.schedule(SimTime::ns(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ProfileCountersTrackSpillsAndOccupancy) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(q.schedule(SimTime::ns(i + 1), [] {}));
  EXPECT_EQ(q.slot_high_water(), 10u);
  for (int i = 0; i < 5; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.slot_high_water(), 10u);  // high water never decays
  EXPECT_EQ(q.callback_spills(), 0u);   // small lambdas stay inline
  EXPECT_EQ(q.callback_spill_bytes(), 0u);

  // A deliberately oversized capture through the explicit escape hatch
  // must be counted.
  struct Big {
    char bytes[256] = {};
  };
  Big big;
  q.schedule(SimTime::ns(100), InlineCallback::spill([big] { (void)big; }));
  EXPECT_EQ(q.callback_spills(), 1u);
  EXPECT_GE(q.callback_spill_bytes(), sizeof(Big));
}


// ---- oracle: the queue before its vacant root and 4-ary heap ----------

/// The former EventQueue, ordering only: a binary heap of (when, seq,
/// slot) entries via std::*_heap, live slots in a LIFO-recycled slot map,
/// dead heads dropped eagerly, and a rebuild once dead entries exceed half
/// the heap (at 64 entries or more). EventQueue must match it on pop
/// order, size(), heap_entries() and compactions() after every operation.
class ReferenceQueue {
 public:
  struct Handle {
    std::uint32_t slot;
    std::uint64_t seq;
  };

  Handle schedule(SimTime when) {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    const std::uint64_t seq = next_seq_++;
    slots_[index] = Slot{seq, true};
    ++live_;
    heap_.push_back(Entry{when, seq, index});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    return Handle{index, seq};
  }

  bool cancel(Handle h) {
    Slot& s = slots_[h.slot];
    if (!s.live || s.seq != h.seq) return false;
    retire(h.slot);
    drop_dead_heads();
    if (heap_.size() >= 64 && heap_.size() > 2 * live_) {
      std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
      ++compactions_;
    }
    return true;
  }

  std::pair<SimTime, std::uint64_t> pop() {
    const Entry e = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    retire(e.slot);
    drop_dead_heads();
    return {e.when, e.seq};
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
  [[nodiscard]] SimTime next_time() const { return heap_.front().when; }

 private:
  struct Slot {
    std::uint64_t seq = 0;
    bool live = false;
  };
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  [[nodiscard]] bool live(const Entry& e) const {
    return slots_[e.slot].live && slots_[e.slot].seq == e.seq;
  }
  void retire(std::uint32_t index) {
    slots_[index].live = false;
    free_.push_back(index);
    --live_;
  }
  void drop_dead_heads() {
    while (!heap_.empty() && !live(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t compactions_ = 0;
};

/// Drives an EventQueue and a ReferenceQueue with the same operations and
/// compares them after each one. Every callback writes its seq to `ran`,
/// so a pop also proves the popped callback belongs to the popped entry.
class OracleHarness {
 public:
  /// Schedules at `when`; returns the index of the event's handles.
  std::size_t schedule(SimTime when) {
    const std::uint64_t seq = queue_.scheduled_count() + 1;
    const EventId id = queue_.schedule(when, [this, seq] { ran_ = seq; });
    handles_.push_back({id, ref_.schedule(when)});
    EXPECT_EQ(handles_.back().ref.seq, seq);
    compare();
    return handles_.size() - 1;
  }

  void cancel(std::size_t i) {
    EXPECT_EQ(queue_.cancel(handles_[i].id), ref_.cancel(handles_[i].ref));
    compare();
  }

  /// Pops from both; returns the popped time.
  SimTime pop() {
    auto [when, seq, fn] = queue_.pop();
    const auto [ref_when, ref_seq] = ref_.pop();
    EXPECT_EQ(when, ref_when);
    EXPECT_EQ(seq, ref_seq);
    fn();
    EXPECT_EQ(ran_, seq);
    compare();
    return when;
  }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t handle_count() const { return handles_.size(); }
  /// Indices of the events still pending.
  [[nodiscard]] std::vector<std::size_t> live_handles() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      if (queue_.pending(handles_[i].id)) out.push_back(i);
    }
    return out;
  }
  [[nodiscard]] std::uint64_t compactions() const { return queue_.compactions(); }

 private:
  struct Handles {
    EventId id;
    ReferenceQueue::Handle ref;
  };

  void compare() {
    EXPECT_EQ(queue_.size(), ref_.size());
    EXPECT_EQ(queue_.heap_entries(), ref_.heap_entries());
    EXPECT_EQ(queue_.compactions(), ref_.compactions());
    if (!queue_.empty()) {
      EXPECT_EQ(queue_.next_time(), ref_.next_time());
    }
  }

  EventQueue queue_;
  ReferenceQueue ref_;
  std::vector<Handles> handles_;
  std::uint64_t ran_ = 0;
};

// After a pop the root is vacant; a schedule that sorts before every
// child (here also equal to the popped time, a later seq) is written
// straight into the root.
TEST(EventQueueOracle, ScheduleBeforeEveryChildFillsTheRootInPlace) {
  OracleHarness h;
  for (int t : {10, 30, 20, 40, 50, 60}) h.schedule(SimTime::ns(t));
  h.pop();  // 10; children 20..50 are live
  h.schedule(SimTime::ns(10));
  h.schedule(SimTime::ns(15));
  while (!h.empty()) h.pop();
}

// A schedule after the root's least child: the child moves up into the
// root and the new entry sifts down from the child's place, including
// into the subtree below it and at an equal time (FIFO).
TEST(EventQueueOracle, ScheduleAfterTheLeastChildSiftsDownFromIt) {
  OracleHarness h;
  for (int t = 1; t <= 30; ++t) h.schedule(SimTime::ns(t * 10));
  h.pop();  // 10
  h.schedule(SimTime::ns(1000));
  h.pop();  // 20
  h.schedule(SimTime::ns(30));  // ties the least child, later seq
  h.pop();
  h.schedule(SimTime::ns(45));
  while (!h.empty()) h.pop();
}

// Pops with nothing scheduled between them: each refills the vacant root
// it was left before taking the next entry.
TEST(EventQueueOracle, PopAfterPopRefillsTheVacantRoot) {
  OracleHarness h;
  for (int t : {70, 10, 50, 20, 60, 30, 40, 10, 90, 80}) h.schedule(SimTime::ns(t));
  while (!h.empty()) h.pop();
  h.schedule(SimTime::ns(100));
  h.pop();
}

// Cancels while the root is vacant: the least child (so the dead heads
// behind it go too), a stale handle, and one that compacts. Each refills
// the root first, so dead-head drops and compaction match a plain heap.
TEST(EventQueueOracle, CancelWhileTheRootIsVacant) {
  OracleHarness h;
  h.schedule(SimTime::ns(1));
  const std::size_t least = h.schedule(SimTime::ns(5));
  for (int t : {7, 8, 9}) h.schedule(SimTime::ns(t));
  std::vector<std::size_t> doomed;
  for (int i = 0; i < 100; ++i) doomed.push_back(h.schedule(SimTime::ns(1000 + i)));
  h.pop();          // 1; 5 is the least child
  h.cancel(least);  // refill, then drop the dead 5
  h.cancel(least);  // stale
  // Buried under 7: 103 held, 52 live — one short of compacting.
  for (std::size_t i = 0; i <= 50; ++i) h.cancel(doomed[i]);
  h.pop();  // 7; 8 is the least child: 102 held, 51 live
  EXPECT_EQ(h.compactions(), 0u);
  h.cancel(doomed[51]);  // 102 held > 2 x 50 live
  EXPECT_EQ(h.compactions(), 1u);
  while (!h.empty()) h.pop();
}

// A pop whose least remaining entry is dead refills at once and drops
// the dead heads, as a plain heap does, keeping heap_entries() in step.
TEST(EventQueueOracle, PopWithADeadLeastChildRefillsEagerly) {
  OracleHarness h;
  const std::size_t first = h.schedule(SimTime::ns(10));
  std::vector<std::size_t> dead;
  for (int t : {20, 21, 22}) dead.push_back(h.schedule(SimTime::ns(t)));
  for (int t : {30, 40, 50}) h.schedule(SimTime::ns(t));
  for (const std::size_t i : dead) h.cancel(i);  // buried under the live 10
  h.cancel(first);  // the root: drops 10 and 20..22, root filled
  h.schedule(SimTime::ns(5));
  const std::size_t next = h.schedule(SimTime::ns(25));
  h.cancel(next);   // buried under 5
  h.pop();          // 5; the least child (25) is dead
  h.schedule(SimTime::ns(35));
  while (!h.empty()) h.pop();
}

// A pop from a one-entry heap leaves an empty heap, not a vacancy.
TEST(EventQueueOracle, PopFromAOneEntryHeap) {
  OracleHarness h;
  h.schedule(SimTime::ns(10));
  h.pop();
  h.schedule(SimTime::ns(20));
  h.schedule(SimTime::ns(15));
  h.pop();
  h.pop();
  h.schedule(SimTime::ns(30));
  h.pop();
}

// Randomized schedule/cancel/pop mixes. Each round grows the queue with
// schedules, pops and stray cancels (any handle ever handed out, so mostly
// stale ones), then cancels nine in ten live events in random order
// between further schedules and pops, which compacts several times.
// Times cluster at and just after the last popped time (ties, schedules
// into a vacant root) with a far tail.
class EventQueueOracleMix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueOracleMix, MatchesTheReferenceAfterEveryOperation) {
  Rng rng(GetParam());
  OracleHarness h;
  SimTime now = SimTime::zero();
  const auto schedule_or_pop = [&] {
    if (rng.uniform_int(0, 99) < 70 || h.empty()) {
      const std::int64_t shape = rng.uniform_int(0, 9);
      std::int64_t offset = 0;
      if (shape >= 3 && shape < 7) offset = rng.uniform_int(0, 8);
      if (shape >= 7) offset = rng.uniform_int(0, 1000);
      h.schedule(now + SimTime::ns(offset));
    } else {
      now = h.pop();
    }
  };
  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 1500; ++op) {
      if (rng.uniform_int(0, 9) == 0) {
        const auto n = static_cast<std::int64_t>(h.handle_count());
        h.cancel(static_cast<std::size_t>(rng.uniform_int(0, n - 1)));
      } else {
        schedule_or_pop();
      }
      if (::testing::Test::HasFailure()) return;
    }
    std::vector<std::size_t> victims = h.live_handles();
    for (std::size_t k = victims.size(); k > 1; --k) {  // Fisher-Yates
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
      std::swap(victims[k - 1], victims[pick]);
    }
    victims.resize(victims.size() * 9 / 10);
    for (const std::size_t v : victims) {
      h.cancel(v);  // stale if popped meanwhile
      if (rng.uniform_int(0, 3) == 0) schedule_or_pop();
      if (::testing::Test::HasFailure()) return;
    }
  }
  while (!h.empty()) h.pop();
  EXPECT_GE(h.compactions(), 6u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOracleMix,
                         ::testing::Values(1u, 2u, 3u, 7u, 42u, 99u, 1234u,
                                           20261019u));

// The 2^24-live-event and 2^40-schedule limits are PARATICK_CHECKs in
// EventQueue::schedule; filling either would take ~1 GiB of slots or
// days of schedules, so neither is exercised here.

}  // namespace
}  // namespace paratick::sim
