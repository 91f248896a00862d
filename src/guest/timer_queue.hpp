// The guest's soft-timer queue: absolute-deadline callbacks in a flat
// binary heap ordered by (deadline, add order). Backs every task sleep
// (short ones at their exact deadline, long ones on a jiffy boundary)
// and the steal estimator's sampling timer, and answers the "next
// event" query of the NO_HZ / paratick idle-entry decision (paper
// Figure 1b / 3c). Once the heap and the due buffer reach their working
// size, neither add nor expire touches the allocator.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/inline_callback.hpp"
#include "sim/types.hpp"

namespace paratick::guest {

class TimerQueue {
 public:
  using Callback = sim::InlineCallback;

  void add(sim::SimTime deadline, Callback cb);

  /// Fire every timer with deadline <= now, in (deadline, add order).
  /// Due timers are collected before any fires, so a timer a callback
  /// adds waits for the next pass even if it is already due.
  void expire(sim::SimTime now);

  [[nodiscard]] std::optional<sim::SimTime> next_deadline() const;
  [[nodiscard]] std::size_t pending_count() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }

 private:
  struct Entry {
    sim::SimTime deadline;
    std::uint64_t seq;
    Callback cb;
    bool operator>(const Entry& o) const {
      if (deadline != o.deadline) return deadline > o.deadline;
      return seq > o.seq;
    }
  };
  std::vector<Entry> heap_;
  std::vector<Callback> due_;  // reused across expire passes
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace paratick::guest
