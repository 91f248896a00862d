// The KVM-like hypervisor: the paper's host side.
//
// Owns every vCPU's run loop: VM entries (with the paratick injection
// hook of Figure 2), VM exits with a calibrated cost model, HLT/wake
// handling (with optional halt polling), host scheduler ticks, and the
// host CPU scheduler in both pinned (paper's §6 setup) and time-shared
// (overcommit, §3.1) modes.
//
// Guest code drives the port_* verbs below to consume cycles or touch
// virtual hardware, and Kvm advances simulated time, pausing and resuming
// guest segments around exits exactly where a real VMX transition would
// preempt the guest. A verb takes no continuation: when it completes, the
// vCPU re-enters the guest through GuestCpuIface::port_done(), and the
// guest kernel keeps its own next step (guest/kernel_stack.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hv/cost_model.hpp"
#include "hv/exit_stats.hpp"
#include "hv/port.hpp"
#include "hv/vcpu.hpp"
#include "hv/vm.hpp"
#include "hw/block_device.hpp"
#include "hw/cycle_ledger.hpp"
#include "hw/deadline_timer.hpp"
#include "hw/machine.hpp"
#include "hw/vmx.hpp"
#include "sim/engine.hpp"
#include "sim/ring_queue.hpp"
#include "sim/rng.hpp"

namespace paratick::fault {
class FaultInjector;
}  // namespace paratick::fault

namespace paratick::hv {

enum class SchedMode : std::uint8_t {
  kPinned,  // one vCPU per physical CPU (the paper's evaluation setup)
  kShared,  // vCPUs time-share physical CPUs (overcommit scenarios, §3.1)
};

struct HostConfig {
  sim::Frequency host_tick_freq{250.0};
  bool halt_polling = false;                          // paper disables it (§6)
  sim::SimTime halt_poll_window = sim::SimTime::us(50);
  /// KVM-style adaptive sizing of the per-vCPU poll window: successful
  /// polls and short blocks double it, long blocks halve it.
  bool halt_poll_adaptive = false;
  bool pause_loop_exiting = false;                    // paper disables it (§6)
  sim::Cycles ple_window{8192};                       // spin length that triggers one PLE exit
  SchedMode sched_mode = SchedMode::kPinned;
  sim::SimTime timeslice = sim::SimTime::ms(6);       // shared-mode slice
  ExitCostModel exit_costs;
  HostCostModel host_costs;
  std::uint64_t seed = 42;
};

class Kvm {
 public:
  Kvm(sim::Engine& engine, hw::Machine& machine, HostConfig config);
  ~Kvm();

  Kvm(const Kvm&) = delete;
  Kvm& operator=(const Kvm&) = delete;

  /// Create a VM with `config.vcpus` virtual CPUs; assigns home pCPUs.
  Vm& create_vm(const VmConfig& config);

  /// Wire a guest CPU implementation to a vCPU (must precede power_on).
  void attach_guest(Vcpu& vcpu, GuestCpuIface* guest);

  /// Attach a block device whose completions are routed back into `vm`.
  void attach_block_device(Vm& vm, hw::BlockDevice& device);

  /// Boot every vCPU of every VM (schedules the initial VM entries).
  void power_on_all();

  /// Boot one VM's vCPUs. Legal mid-run — the live-migration destination
  /// path: the cluster layer attaches an incarnation to a running host
  /// and powers it on when the blackout window ends.
  void power_on_vm(Vm& vm);

  /// Park one VM's vCPUs for good (live-migration source): guest
  /// segments pause in place, timers disarm, physical CPUs are released
  /// to the runqueue. The VM stops generating events; its accumulated
  /// stats (exits, steal) remain collectable. In-flight continuations
  /// see kUninitialized and drop out, as do interrupt deliveries.
  void freeze_vm(Vm& vm);

  /// Install a fault injector (chaos testing). Covers steal bursts on VM
  /// entry, delayed paratick injection, and — through per-vCPU timer
  /// filters — lost/late/coalesced deadline interrupts and TSC drift.
  /// Pass nullptr to detach. The injector must outlive the Kvm.
  void set_fault_injector(fault::FaultInjector* injector);

  [[nodiscard]] const ExitStats& exits() const { return exits_; }
  [[nodiscard]] const HostConfig& config() const { return config_; }
  [[nodiscard]] hw::Machine& machine() { return machine_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }

  /// Interrupt delivery from any source (device, IPI, timers).
  void deliver_interrupt(Vcpu& vcpu, hw::Vector vector, hw::ExitCause cause_if_running);

  // ---- the guest<->host port: what guest code on `vcpu` can execute ----
  // The synchronous verbs (all but port_hlt, port_iret and the drain)
  // complete asynchronously so the simulation clock can advance, and then
  // call vcpu.guest->port_done() exactly once, never from inside the verb.
  // The guest's clock is engine().now() and its CPU number
  // Vcpu::index_in_vm().

  /// Consume `c` guest cycles attributed to `cat`. The segment may be
  /// transparently paused/resumed around VM exits.
  void port_run(Vcpu& vcpu, sim::Cycles c, hw::CycleCategory cat);
  /// Write the TSC_DEADLINE MSR (nullopt = 0 = disarm). Always costs a VM
  /// exit — the whole point of the paper.
  void port_write_tsc_deadline(Vcpu& vcpu, std::optional<sim::SimTime> deadline);
  /// Issue a hypercall (costs a VM exit).
  void port_hypercall(Vcpu& vcpu, const HypercallRequest& req);
  /// Halt until the next interrupt. Execution resumes inside
  /// GuestCpuIface::handle_interrupt.
  void port_hlt(Vcpu& vcpu);
  /// Return from interrupt: unmask and resume whatever was interrupted.
  void port_iret(Vcpu& vcpu);
  /// Submit block I/O (costs an I/O exit); completion arrives later as a
  /// kBlockDevice interrupt.
  void port_io_submit(Vcpu& vcpu, const hw::IoRequest& req);
  /// Drain completed I/O requests into `out`, replacing its contents
  /// (reading the virtio used ring — no exit). The two buffers swap, so a
  /// caller that keeps `out` reuses both.
  void port_drain_io_completions(Vcpu& vcpu, std::vector<hw::IoRequest>& out);
  /// Acknowledge a device interrupt (virtio ISR access) — costs an exit.
  void port_io_ack(Vcpu& vcpu);
  /// Send an IPI to a sibling vCPU of the same VM.
  void port_send_ipi(Vcpu& vcpu, int target_index, hw::Vector v);
  /// Model a non-timer "background" VM exit (page fault, cpuid, ...).
  void port_background_exit(Vcpu& vcpu);
  /// Busy-wait for `c` cycles (lock spinning, task code only). With
  /// pause-loop exiting enabled on the host, long spins additionally cost
  /// PLE exits.
  void port_spin(Vcpu& vcpu, sim::Cycles c);

 private:
  /// One per physical CPU. The host tick timer lives in place (filled in
  /// by the constructor), so pcpus_ is sized once, at construction, and
  /// never has to move a PcpuState.
  struct PcpuState {
    Vcpu* occupant = nullptr;
    sim::RingQueue<Vcpu*> runqueue;  // shared mode: Ready vCPUs waiting for this pCPU
    std::optional<hw::DeadlineTimer> host_tick;
    sim::SimTime tick_phase;
  };

  // --- time/cost helpers ---
  // Continuations on the exit/entry hot path are sim::InlineCallback:
  // every capture lives in the event slot, no per-exit heap allocation.
  void charge_and_then(hw::CpuId cpu, hw::CycleCategory cat, sim::Cycles c,
                       sim::InlineCallback&& then);

  // --- segment management ---
  void start_segment(Vcpu& vcpu, sim::Cycles c, hw::CycleCategory cat, Resume then);
  void pause_current(Vcpu& vcpu);
  void resume_current(Vcpu& vcpu);
  void segment_complete(Vcpu& vcpu);

  // --- the run loop ---
  /// Re-enter the guest, then continue at `then`: kInterrupted after an
  /// asynchronous exit, kPortDone or kSpin after a synchronous one.
  void vmentry(Vcpu& vcpu, Resume then);
  void do_exit(Vcpu& vcpu, hw::ExitCause cause, sim::InlineCallback&& host_work_then_entry);
  /// A synchronous port exit: exit for `cause`, run host_work(*this, vcpu)
  /// once the exit cost is paid, re-enter and complete the verb. The work
  /// takes the Kvm as an argument rather than capturing `this`, keeping
  /// the continuation (this + vCPU + the work, at most 40 bytes) within
  /// InlineCallback::kCapacity; it is the largest capture in the tree and
  /// sets that capacity.
  template <typename HostWork>
  void exit_and_reenter(Vcpu& vcpu, hw::ExitCause cause, HostWork host_work);
  /// Continue guest execution (the vCPU is in guest mode) at `then`.
  void continue_guest(Vcpu& vcpu, Resume then);
  void give_control_to_guest(Vcpu& vcpu);

  // --- scheduling ---
  void schedule_in(Vcpu& vcpu, hw::CpuId cpu);
  void release_pcpu(Vcpu& vcpu);
  void enqueue_ready(Vcpu& vcpu);
  void try_dispatch(hw::CpuId cpu);
  void wake_vcpu(Vcpu& vcpu);
  void adapt_poll_window(Vcpu& vcpu, sim::SimTime block_duration);

  // --- host tick ---
  void arm_host_tick(hw::CpuId cpu);
  void disarm_host_tick(hw::CpuId cpu);
  void on_host_tick(hw::CpuId cpu);

  // --- timers ---
  void on_guest_timer_fire(Vcpu& vcpu);
  void on_aux_timer_fire(Vcpu& vcpu);
  void maybe_arm_aux_timer(Vcpu& vcpu);
  [[nodiscard]] bool tick_freq_compatible(const Vcpu& vcpu) const;

  // --- paratick host hook (Figure 2) ---
  void paratick_entry_hook(Vcpu& vcpu);

  // --- fault injection ---
  void install_timer_faults(Vcpu& vcpu);

  // --- devices ---
  void on_block_completion(VmId vm, const hw::IoRequest& req);

  sim::Engine& engine_;
  hw::Machine& machine_;
  HostConfig config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<Vcpu*> vcpus_;                      // indexed by global vcpu id
  std::vector<PcpuState> pcpus_;
  std::vector<hw::BlockDevice*> vm_disks_;        // indexed by vm id (nullable)
  struct PendingIo {
    std::uint64_t tag;  // the cookie the device sees
    Vcpu* submitter;
    std::uint64_t guest_cookie;
  };
  /// Requests in flight on every device, looked up by tag on completion.
  /// A flat vector: a handful are in flight at once, and erasing by
  /// swapping with the last keeps it allocation-free once warm.
  std::vector<PendingIo> pending_io_;
  std::uint64_t next_io_tag_ = 1;
  ExitStats exits_;
  hw::CpuId next_pin_ = 0;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace paratick::hv
