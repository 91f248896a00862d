// The guest kernel's continuation stack: where a kernel path keeps its
// next step while a port verb it issued is in flight.
//
// Every kernel path (the task services, the interrupt path, idle entry and
// exit, the tick policies) pushes the rest of its work as a frame and then
// issues exactly one Kvm::port_* verb or returns synchronously. The verb's
// completion (hv::GuestCpuIface::port_done) and a synchronous return both
// pop the top frame and run it. A frame never holds another frame: the
// caller's continuation is already below it on the stack. An interrupt
// handler pushes above the path it interrupted and has popped back down to
// it by its port_iret; handlers run masked, so interrupts nest one level at
// most and one plain stack serves both.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "sim/check.hpp"
#include "sim/inline_callback.hpp"

namespace paratick::guest {

class KernelStack {
 public:
  /// Frames one vCPU can hold: a task op or the idle path, one interrupt
  /// handler above it, and the tick policy inside that handler. The
  /// deepest stack any bench or chaos scenario reaches is 7 frames.
  static constexpr std::size_t kCapacity = 16;

  void push(sim::InlineCallback&& frame) {
    PARATICK_CHECK_MSG(depth_ < kCapacity, "guest kernel stack overflow");
    frames_[depth_++] = std::move(frame);
  }

  /// Pop the top frame and run it.
  void ret() {
    PARATICK_CHECK_MSG(depth_ > 0, "guest kernel return with no frame to return to");
    // Move the frame out before running it: the running frame may push
    // a new frame onto the very slot it came from.
    sim::InlineCallback frame = std::move(frames_[--depth_]);
    frame();
  }

  [[nodiscard]] bool empty() const { return depth_ == 0; }

 private:
  std::array<sim::InlineCallback, kCapacity> frames_;
  std::size_t depth_ = 0;
};

}  // namespace paratick::guest
