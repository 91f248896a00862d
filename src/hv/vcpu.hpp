// The hypervisor-side representation of a virtual CPU.
//
// Mirrors the relevant parts of KVM's kvm_vcpu, including the `last_tick`
// field paratick adds (§5.1). The execution context (a paused guest code
// segment plus the context an injected interrupt preempted) is what lets the
// event-driven simulator pause guest code around VM exits. It is plain
// data: where guest code continues is a Resume value, never a callable.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/block_device.hpp"
#include "hw/cycle_ledger.hpp"
#include "hw/deadline_timer.hpp"
#include "hw/interrupt.hpp"
#include "hw/machine.hpp"
#include "sim/types.hpp"

namespace paratick::hv {

class GuestCpuIface;

using VcpuId = std::uint32_t;
inline constexpr hw::CpuId kNoCpu = static_cast<hw::CpuId>(-1);

enum class VcpuState : std::uint8_t {
  kUninitialized,
  kInGuest,      // executing guest code on a physical CPU
  kInHost,       // on a physical CPU, but in VMM context (exit handling / entry)
  kHaltPolling,  // halted but still burning its physical CPU in kvm_vcpu_halt
  kHalted,       // blocked in the host; physical CPU released
  kReady,        // runnable, waiting for a physical CPU (overcommit)
};

[[nodiscard]] constexpr std::string_view to_string(VcpuState s) {
  switch (s) {
    case VcpuState::kUninitialized: return "uninitialized";
    case VcpuState::kInGuest: return "in-guest";
    case VcpuState::kInHost: return "in-host";
    case VcpuState::kHaltPolling: return "halt-polling";
    case VcpuState::kHalted: return "halted";
    case VcpuState::kReady: return "ready";
  }
  return "?";
}

/// What guest execution continues with once the current step ends: a
/// segment's completion, a VM entry, or an iret back to an interrupted
/// context.
enum class Resume : std::uint8_t {
  kInterrupted,  // what an asynchronous exit interrupted: the suspended
                 // segment, else the idle loop (boot on the first entry)
  kPortDone,     // the port verb completed: GuestCpuIface::port_done()
  kPauseExit,    // a spin used up its PLE window: take the pause-loop exit
  kSpin,         // the pause-loop exit returned: spin Vcpu::spin_left more
};

/// A paused piece of guest execution: a partially run segment
/// (remaining > 0) that continues at `then` once it completes, or
/// (remaining == 0) just `then`.
struct SavedContext {
  sim::Cycles remaining;
  hw::CycleCategory category = hw::CycleCategory::kGuestUser;
  Resume then = Resume::kInterrupted;
};

class Vm;

class Vcpu {
 public:
  Vcpu(VcpuId id, int index_in_vm, Vm* vm, sim::Engine& engine,
       hw::DeadlineTimer::Callback on_guest_timer_fire,
       hw::DeadlineTimer::Callback on_aux_timer_fire)
      : guest_timer(engine, std::move(on_guest_timer_fire)),
        aux_timer(engine, std::move(on_aux_timer_fire)),
        id_(id),
        index_(index_in_vm),
        vm_(vm) {}

  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  [[nodiscard]] VcpuId id() const { return id_; }
  [[nodiscard]] int index_in_vm() const { return index_; }
  [[nodiscard]] Vm* vm() const { return vm_; }

  // --- scheduling ---
  VcpuState state = VcpuState::kUninitialized;
  hw::CpuId pcpu = kNoCpu;       // where it currently runs (kInGuest/kInHost)
  hw::CpuId home_pcpu = kNoCpu;  // affinity (pinned mode: always here)
  sim::SimTime last_sched_in;    // for timeslice accounting in shared mode

  // --- interrupt/injection state ---
  hw::InterruptController pending;  // vectors awaiting injection
  bool guest_irqs_enabled = true;   // guest-side IF flag (masked in handlers)

  // --- guest timer as tracked by KVM (TSC_DEADLINE intercept, §3) ---
  std::optional<sim::SimTime> guest_deadline;
  hw::DeadlineTimer guest_timer;

  // --- paratick host-side state (§5.1) ---
  bool paratick_enabled = false;
  sim::SimTime paratick_period = sim::SimTime::ms(4);
  sim::SimTime last_tick;  // the kvm_vcpu.last_tick field the paper adds
  hw::DeadlineTimer aux_timer;  // frequency-mismatch injection timer (§4.1)

  // --- execution context ---
  struct CurrentSegment {
    bool active = false;        // a completion event is outstanding
    bool suspended = false;     // paused with `remaining` cycles left
    sim::SimTime started;
    sim::Cycles total;
    sim::Cycles remaining;
    hw::CycleCategory category = hw::CycleCategory::kGuestUser;
    sim::EventId completion;
    Resume then = Resume::kPortDone;  // what follows the segment's completion
  };
  CurrentSegment current;
  /// What the handler now running preempted, restored by iret. At most
  /// one: injection needs guest_irqs_enabled and handlers run masked
  /// (back-to-back vectors reuse the frame), so nothing nests.
  std::optional<SavedContext> interrupted;
  /// Cycles a pause-loop-exiting spin still has to burn after its pause
  /// exit. One per vCPU suffices: only task code spins, never a handler.
  sim::Cycles spin_left;

  // --- halt bookkeeping ---
  sim::SimTime halt_start;
  sim::EventId halt_poll_end;
  /// Current adaptive poll window (grown/shrunk like KVM's halt_poll_ns).
  sim::SimTime halt_poll_window;
  std::uint64_t poll_hits = 0;
  std::uint64_t poll_misses = 0;

  // --- lifecycle / scheduling flags ---
  bool booted = false;       // first VM entry boots the guest
  bool in_runqueue = false;  // guards double-enqueue in shared mode

  // --- virtio completion queue (guest drains via its port) ---
  std::vector<hw::IoRequest> io_completions;

  // --- wiring ---
  GuestCpuIface* guest = nullptr;

  // --- statistics ---
  std::uint64_t injections = 0;
  hw::Vector last_injected = 0;  // the vector of the latest injection
  std::uint64_t halts = 0;
  std::uint64_t wakeups = 0;

  // --- steal-time ground truth (hypervisor side) ---
  // Runnable-but-not-running: accumulated while kReady (set at every
  // transition into kReady, folded into steal_total at schedule_in), plus
  // injected vmentry steal bursts. This is what /proc/stat steal would
  // report; the guest-side estimator is judged against it.
  sim::SimTime ready_since;
  sim::SimTime steal_total;

  [[nodiscard]] bool on_pcpu() const {
    return state == VcpuState::kInGuest || state == VcpuState::kInHost ||
           state == VcpuState::kHaltPolling;
  }

 private:
  VcpuId id_;
  int index_;
  Vm* vm_;
};

}  // namespace paratick::hv
