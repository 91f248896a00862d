// Cancellable discrete-event priority queue.
//
// Events at equal timestamps pop in schedule order (FIFO), which keeps the
// whole simulation deterministic for a given seed.
//
// Live callbacks sit in a generation-counted slot map: a flat vector of
// 64-byte slots (one cache line) recycled through a free list, no hashing
// and no per-event allocation (callbacks are sim::InlineCallback, stored
// in place). An EventId packs (generation << 32 | slot index); a stale
// handle — cancelled, fired, or from a recycled slot — fails the
// generation check and is rejected in O(1).
//
// Ordering lives in 16-byte entries {when, key}, key = seq << 24 | slot:
// because seqs are unique, (when, key) orders exactly as (when, seq).
// The entries sit in a hand-written 4-ary min-heap.
//
// pop() leaves the heap root vacant rather than refilling it at once:
// the event it returns almost always schedules its successor before the
// next pop, and that schedule then takes the root with one sift_down from
// the root's least child (none at all when it sorts before every child)
// instead of a pop-sift plus a push-sift. A pop or cancel that finds the
// root still vacant refills it first, exactly as a plain pop would have.
// The root is left vacant only when its least child — the earliest
// entry remaining — is live; otherwise pop refills at once and drops the
// dead heads.
//
// Cancellation is O(1) for buried events (lazy deletion) while dead heads
// are dropped eagerly, so the earliest entry is always live and
// next_time() is const. To keep timer-heavy workloads (dynticks
// constantly reprogramming) from growing the heap far beyond the live
// event count, the heap is compacted once dead entries outnumber live
// ones. A plain heap drops dead heads after a pop only when the least
// remaining entry is dead, and that is exactly when the root is not left
// vacant; the vacant root is not counted as held. So the set of entries
// held — and hence heap_entries() and compactions() — is the same as for
// a single binary heap over (when, seq) after every operation, and pop
// order is fixed by the (when, key) total order.
//
// The vacancy saves work only when a schedule comes next. A pop or a
// cancel that follows a pop pays the full refill sift, as before; and a
// run of cancel + schedule pairs on a near-empty heap (a deadline
// re-armed over and over) pushes and pops where a register outside the
// heap would not.
//
// Limits (PARATICK_CHECKed): 2^24 simultaneously live events and 2^40
// schedules over one queue's lifetime.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/check.hpp"
#include "sim/inline_callback.hpp"
#include "sim/types.hpp"

namespace paratick::sim {

/// Opaque handle to a scheduled event; used to cancel it.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return raw_ != 0; }
  constexpr bool operator==(const EventId&) const = default;

 private:
  friend class EventQueue;
  constexpr explicit EventId(std::uint64_t raw) : raw_(raw) {}
  std::uint64_t raw_ = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedule `fn` to fire at absolute time `when`.
  EventId schedule(SimTime when, Callback&& fn);

  /// Cancel a pending event. Returns true if it was still pending.
  bool cancel(EventId id);

  /// True if `id` refers to an event that has not yet fired or been cancelled.
  [[nodiscard]] bool pending(EventId id) const {
    const Slot* s = resolve(id);
    return s != nullptr;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Timestamp of the next live event. Queue must not be empty.
  [[nodiscard]] SimTime next_time() const {
    PARATICK_CHECK_MSG(live_ != 0, "next_time() on empty queue");
    // Invariant: the earliest entry (the root's least child while the
    // root is vacant) is live.
    check_vacancy();
    return hole_ ? heap_[best_].when : heap_.front().when;
  }

  /// Pop and return the next live event (timestamp + schedule-order
  /// sequence number + callback). The seq is the event's deterministic
  /// identity: unique, assigned at schedule time, bit-identical across
  /// runs of the same workload — what the record/replay trace stores.
  struct Popped {
    SimTime when;
    std::uint64_t seq;
    Callback fn;
  };
  Popped pop();

  /// Total events ever scheduled / cancelled / fired (for stats & tests).
  [[nodiscard]] std::uint64_t scheduled_count() const { return scheduled_; }
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_; }

  /// Entries physically held (the heap less a vacant root), live +
  /// not-yet-reclaimed dead (tests assert this stays within a constant
  /// factor of size()).
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size() - hole_; }

  // --- profile counters (see sim::EngineProfile) ---

  /// Callbacks that arrived heap-boxed via InlineCallback::spill().
  [[nodiscard]] std::uint64_t callback_spills() const { return spills_; }
  /// Total heap bytes behind those spilled callbacks.
  [[nodiscard]] std::uint64_t callback_spill_bytes() const { return spill_bytes_; }
  /// Most events simultaneously live over this queue's lifetime.
  [[nodiscard]] std::uint64_t slot_high_water() const { return high_water_; }
  /// Dead-entry heap rebuilds performed.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  struct Slot {
    Callback fn;
    std::uint64_t seq = 0;  // schedule order; validates heap entries after reuse
    std::uint32_t generation = 1;
    bool live = false;
  };
  static_assert(sizeof(Slot) == 64, "a slot should fill one cache line");

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  /// Slot indices must fit the key's low kSlotBits bits ...
  static constexpr std::size_t kMaxSlots = std::size_t{1} << kSlotBits;
  /// ... and seqs its remaining 40.
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  struct Entry {
    SimTime when;
    std::uint64_t key = 0;  // seq << kSlotBits | slot
    [[nodiscard]] std::uint64_t seq() const { return key >> kSlotBits; }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & kSlotMask);
    }
    // One select rather than a short-circuit: the heap's comparisons
    // are data-dependent, and this form compiles without branches.
    bool operator<(const Entry& o) const {
      return when != o.when ? when < o.when : key < o.key;
    }
  };
  static_assert(sizeof(Entry) == 16);

  /// Below this many entries, dead weight is negligible — skip compaction.
  static constexpr std::size_t kCompactMinEntries = 64;
  /// Children per heap node.
  static constexpr std::size_t kArity = 4;

  static constexpr EventId make_id(std::uint32_t generation, std::uint32_t index) {
    return EventId{(static_cast<std::uint64_t>(generation) << 32) | index};
  }

  /// The slot `id` refers to, or nullptr if the event already fired, was
  /// cancelled, or the slot has since been recycled (generation mismatch).
  [[nodiscard]] const Slot* resolve(EventId id) const {
    const std::uint32_t index = static_cast<std::uint32_t>(id.raw_);
    const std::uint32_t generation = static_cast<std::uint32_t>(id.raw_ >> 32);
    if (index >= slots_.size()) return nullptr;
    const Slot& s = slots_[index];
    return (s.live && s.generation == generation) ? &s : nullptr;
  }

  [[nodiscard]] bool entry_live(const Entry& e) const {
    const Slot& s = slots_[e.slot()];
    return s.live && s.seq == e.seq();
  }

  /// A vacant root has children to refill it from, the least live.
  void check_vacancy() const {
    PARATICK_DCHECK(!hole_ || (heap_.size() >= 2 && entry_live(heap_[best_])));
  }

  /// Release a slot back to the free list, invalidating outstanding ids.
  void retire_slot(std::uint32_t index);
  void drop_dead_heads();
  void maybe_compact();

  // Entries travel by value (in registers): a 16-byte reload of an entry
  // just written as two words would stall on store forwarding.
  void heap_push(Entry e);
  void heap_pop();
  /// Refill a vacant root from the heap's last entry.
  void fill_root() {
    if (hole_) {
      hole_ = false;
      heap_pop();
    }
  }
  void sift_down(std::size_t i);

  // 4-ary min-heap on (when, key); heap_[0] is stale while hole_.
  std::vector<Entry> heap_;
  /// While hole_, the index of the root's least child (live).
  std::size_t best_ = 0;
  bool hole_ = false;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t spill_bytes_ = 0;
  std::uint64_t high_water_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace paratick::sim
