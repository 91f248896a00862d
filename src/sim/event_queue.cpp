#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace paratick::sim {

EventId EventQueue::schedule(SimTime when, Callback&& fn) {
  PARATICK_CHECK_MSG(fn != nullptr, "event callback must be callable");
  if (fn.spilled()) {
    ++spills_;
    spill_bytes_ += fn.spill_bytes();
  }
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    PARATICK_CHECK_MSG(slots_.size() < kMaxSlots,
                       "event slot index space exhausted (2^24 live events)");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  PARATICK_CHECK_MSG(next_seq_ < kMaxSeq,
                     "event sequence space exhausted (2^40 schedules)");
  const std::uint64_t seq = next_seq_++;
  Slot& s = slots_[index];
  s.fn = std::move(fn);
  s.seq = seq;
  s.live = true;
  ++live_;
  if (live_ > high_water_) high_water_ = live_;
  const Entry e{when, seq << kSlotBits | index};
  if (hole_) {
    // Take the vacant root: e if it sorts before every child, else the
    // least child moves up and e sifts down from its place.
    check_vacancy();
    hole_ = false;
    if (e < heap_[best_]) {
      heap_[0] = e;
    } else {
      heap_[0] = heap_[best_];
      heap_[best_] = e;
      sift_down(best_);
    }
  } else {
    heap_push(e);
  }
  ++scheduled_;
  return make_id(s.generation, index);
}

void EventQueue::retire_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.fn.reset();
  s.live = false;
  // Bumping the generation invalidates every EventId handed out for this
  // occupancy; skip 0 on wrap so a recycled slot never reproduces the
  // all-zero (invalid) id.
  if (++s.generation == 0) s.generation = 1;
  free_.push_back(index);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  if (resolve(id) == nullptr) return false;
  // Refill first, so the dead-head drop and compaction see a whole heap.
  fill_root();
  retire_slot(static_cast<std::uint32_t>(id.raw_));
  ++cancelled_;
  drop_dead_heads();
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  // Rebuild once dead entries exceed half of those held; (when, seq)
  // ordering is a total order, so the rebuilt heap pops in exactly the
  // same sequence. Only cancel() calls this, with the root filled.
  const std::size_t held = heap_entries();
  if (held < kCompactMinEntries || held <= 2 * live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
  ++compactions_;
}

void EventQueue::drop_dead_heads() {
  while (!heap_.empty() && !entry_live(heap_.front())) heap_pop();
}

EventQueue::Popped EventQueue::pop() {
  PARATICK_CHECK_MSG(live_ != 0, "pop() on empty queue");
  check_vacancy();
  fill_root();
  const Entry e = heap_.front();
  PARATICK_DCHECK(entry_live(e));
  Popped out{e.when, e.seq(), std::move(slots_[e.slot()].fn)};
  retire_slot(e.slot());
  // Leave the root vacant when its least child — the earliest entry left
  // — is live; a dead one must be dropped now, as a plain heap would.
  const std::size_t n = heap_.size();
  if (n > 1) {
    const std::size_t end = std::min(kArity + 1, n);
    std::size_t best = 1;
    for (std::size_t c = 2; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (entry_live(heap_[best])) {
      hole_ = true;
      best_ = best;
      return out;
    }
  }
  heap_pop();
  drop_dead_heads();
  return out;
}

void EventQueue::heap_push(Entry e) {
  // Sift a hole up from the new leaf, then fill it.
  heap_.emplace_back();
  Entry* h = heap_.data();
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(e < h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void EventQueue::heap_pop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace paratick::sim
