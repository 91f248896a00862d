// FIFO queue over one reusable buffer.
//
// std::deque allocates a chunk every few dozen pushes even when its depth
// stays bounded, because pops free the chunks pushes then re-allocate.
// RingQueue keeps one power-of-two ring and doubles it only when full, so
// a queue cycling at a bounded depth stops allocating once it has reached
// that depth. Used for the run queues and waiter queues of the hypervisor
// and guest kernel, where order is plain FIFO.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace paratick::sim {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() {
    PARATICK_DCHECK(size_ > 0);
    return buf_[head_];
  }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    PARATICK_DCHECK(size_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  void grow() {
    std::vector<T> next(buf_.empty() ? kInitialCapacity : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace paratick::sim
