#include "guest/timer_queue.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "sim/check.hpp"

namespace paratick::guest {

void TimerQueue::add(sim::SimTime deadline, Callback cb) {
  PARATICK_CHECK_MSG(cb != nullptr, "timer callback must be callable");
  heap_.push_back(Entry{deadline, next_seq_++, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void TimerQueue::expire(sim::SimTime now) {
  PARATICK_DCHECK(due_.empty());
  while (!heap_.empty() && heap_.front().deadline <= now) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    due_.push_back(std::move(heap_.back().cb));
    heap_.pop_back();
  }
  fired_ += due_.size();
  for (auto& cb : due_) cb();
  due_.clear();
}

std::optional<sim::SimTime> TimerQueue::next_deadline() const {
  if (heap_.empty()) return std::nullopt;
  return heap_.front().deadline;
}

}  // namespace paratick::guest
