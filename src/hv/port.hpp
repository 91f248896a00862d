// The hypervisor/guest boundary, guest side.
//
// Guest-kernel code "executes on" the Kvm::port_* verbs (hv/kvm.hpp):
// consuming CPU, touching timer hardware (which triggers VM exits),
// halting, submitting I/O. GuestCpuIface is what the hypervisor calls
// back into: boot, interrupt delivery, idle resumption and the one fixed
// completion of every synchronous verb. The hypervisor holds no guest
// callables; the guest keeps its own continuations. It stays an interface
// so the hypervisor tests can drive the run loop with a scripted stub
// guest; the tick policies are unit-tested through guest::TickCpu instead.
#pragma once

#include <cstdint>

#include "hw/interrupt.hpp"
#include "sim/types.hpp"

namespace paratick::hv {

/// Guest->host service request (paper §4.1: the guest declares its tick
/// frequency during boot through a hypercall).
struct HypercallRequest {
  enum class Kind : std::uint8_t { kDeclareTickFreq } kind = Kind::kDeclareTickFreq;
  sim::SimTime guest_tick_period = sim::SimTime::ms(4);
  bool enable_paratick = false;
};

/// The hypervisor's view of one guest CPU.
class GuestCpuIface {
 public:
  virtual ~GuestCpuIface() = default;

  /// Called once when the vCPU first enters guest mode.
  virtual void power_on() = 0;

  /// An interrupt was injected. Guest interrupts are masked until the
  /// handler calls Kvm::port_iret().
  virtual void handle_interrupt(hw::Vector v) = 0;

  /// Control returned to the idle loop after a HLT was interrupted
  /// (conceptually: the instruction after `hlt` in the idle loop).
  virtual void idle_resume() = 0;

  /// The synchronous port verb this vCPU issued last has completed and
  /// the vCPU is back in guest mode: continue the code that issued it.
  /// Called exactly once per verb, never from inside the verb itself; if
  /// an interrupt is injected at the completing VM entry, it is called
  /// after the handler's Kvm::port_iret().
  virtual void port_done() = 0;
};

}  // namespace paratick::hv
