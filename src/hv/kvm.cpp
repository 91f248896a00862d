#include "hv/kvm.hpp"

#include <algorithm>
#include <utility>

#include "fault/injector.hpp"
#include "sim/check.hpp"

namespace paratick::hv {

namespace {
/// KVM's halt_poll_ns_grow / halt_poll_ns_shrink defaults: adaptive halt
/// polling doubles the per-vCPU window after a short block and halves it
/// after a long one.
constexpr std::int64_t kHaltPollGrow = 2;
constexpr std::int64_t kHaltPollShrink = 2;
/// Host work of the exits that only cost their exit.
constexpr auto kNoHostWork = [](Kvm&, Vcpu&) {};
}  // namespace

// ---------------------------------------------------------------------------
// Construction / wiring
// ---------------------------------------------------------------------------

Kvm::Kvm(sim::Engine& engine, hw::Machine& machine, HostConfig config)
    : engine_(engine),
      machine_(machine),
      config_(config),
      rng_(config.seed),
      pcpus_(machine.cpu_count()) {
  const sim::SimTime period = config_.host_tick_freq.period();
  for (std::size_t i = 0; i < pcpus_.size(); ++i) {
    const hw::CpuId cpu = static_cast<hw::CpuId>(i);
    // Deterministic per-CPU phase: avoids lock-step host ticks across CPUs,
    // as on a real host where per-CPU ticks are not synchronized.
    pcpus_[i].tick_phase =
        sim::SimTime::ns(static_cast<std::int64_t>(rng_.next_u64() %
                                                   static_cast<std::uint64_t>(
                                                       std::max<std::int64_t>(
                                                           period.nanoseconds(), 1))));
    pcpus_[i].host_tick.emplace(engine_, [this, cpu] { on_host_tick(cpu); });
  }
}

Kvm::~Kvm() = default;

Vm& Kvm::create_vm(const VmConfig& config) {
  const VmId id = static_cast<VmId>(vms_.size());
  auto vm = std::make_unique<Vm>(id, config);
  for (int i = 0; i < config.vcpus; ++i) {
    const VcpuId vid = static_cast<VcpuId>(vcpus_.size());
    auto* raw = new Vcpu(
        vid, i, vm.get(), engine_,
        [this, vid] { on_guest_timer_fire(*vcpus_[vid]); },
        [this, vid] { on_aux_timer_fire(*vcpus_[vid]); });
    vm->vcpus_.emplace_back(raw);
    vcpus_.push_back(raw);

    // Home-CPU assignment: explicit pinning if given, else spread.
    if (static_cast<std::size_t>(i) < config.pinning.size()) {
      raw->home_pcpu = config.pinning[static_cast<std::size_t>(i)];
      PARATICK_CHECK_MSG(raw->home_pcpu < machine_.cpu_count(), "pinning out of range");
    } else {
      raw->home_pcpu = next_pin_ % static_cast<hw::CpuId>(machine_.cpu_count());
      ++next_pin_;
    }
    raw->halt_poll_window = config_.halt_poll_window;
    install_timer_faults(*raw);
    if (config_.sched_mode == SchedMode::kPinned) {
      // Pinned mode requires a dedicated physical CPU per vCPU.
      PARATICK_CHECK_MSG(vcpus_.size() <= machine_.cpu_count() ||
                             !config.pinning.empty(),
                         "pinned mode: more vCPUs than physical CPUs");
    }
  }
  vms_.push_back(std::move(vm));
  vm_disks_.resize(vms_.size(), nullptr);
  return *vms_.back();
}

void Kvm::set_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }

void Kvm::install_timer_faults(Vcpu& vcpu) {
  // Filters are always installed and no-op while fault_ is null, so the
  // injector may be attached before or after VM creation.
  vcpu.guest_timer.set_fire_filter([this](sim::SimTime now) {
    hw::DeadlineTimer::FireDecision out;
    if (fault_ == nullptr) return out;
    const auto d = fault_->on_timer_fire(now);
    using Action = fault::FaultInjector::TimerDecision::Action;
    switch (d.action) {
      case Action::kDeliver:
        break;
      case Action::kDrop:
        out.action = hw::DeadlineTimer::FireDecision::Action::kDrop;
        break;
      case Action::kDefer:
        out.action = hw::DeadlineTimer::FireDecision::Action::kDefer;
        out.defer_until = d.defer_until;
        break;
    }
    return out;
  });
  vcpu.guest_timer.set_arm_filter([this, &vcpu](sim::SimTime deadline) {
    if (fault_ == nullptr) return deadline;
    return fault_->skew_deadline(static_cast<std::uint32_t>(vcpu.home_pcpu),
                                 engine_.now(), deadline);
  });
}

void Kvm::attach_guest(Vcpu& vcpu, GuestCpuIface* guest) {
  PARATICK_CHECK(guest != nullptr);
  vcpu.guest = guest;
}

void Kvm::attach_block_device(Vm& vm, hw::BlockDevice& device) {
  vm_disks_[vm.id()] = &device;
  device.set_completion_handler(
      [this, id = vm.id()](const hw::IoRequest& req) { on_block_completion(id, req); });
}

void Kvm::power_on_all() {
  for (Vcpu* vcpu : vcpus_) {
    PARATICK_CHECK_MSG(vcpu->guest != nullptr, "vCPU has no attached guest");
    vcpu->state = VcpuState::kReady;
    vcpu->ready_since = engine_.now();
    enqueue_ready(*vcpu);
  }
  for (hw::CpuId cpu = 0; cpu < static_cast<hw::CpuId>(pcpus_.size()); ++cpu) {
    try_dispatch(cpu);
  }
}

void Kvm::power_on_vm(Vm& vm) {
  for (int i = 0; i < vm.vcpu_count(); ++i) {
    Vcpu& vcpu = vm.vcpu(i);
    PARATICK_CHECK_MSG(vcpu.guest != nullptr, "vCPU has no attached guest");
    PARATICK_CHECK_MSG(vcpu.state == VcpuState::kUninitialized,
                       "power_on_vm: vCPU already powered");
    vcpu.state = VcpuState::kReady;
    vcpu.ready_since = engine_.now();
    enqueue_ready(vcpu);
  }
  for (int i = 0; i < vm.vcpu_count(); ++i) {
    try_dispatch(vm.vcpu(i).home_pcpu);
  }
}

void Kvm::freeze_vm(Vm& vm) {
  for (int i = 0; i < vm.vcpu_count(); ++i) {
    Vcpu& vcpu = vm.vcpu(i);
    switch (vcpu.state) {
      case VcpuState::kInGuest:
        pause_current(vcpu);  // charges partial work, cancels the completion
        break;
      case VcpuState::kHaltPolling:
        engine_.cancel(vcpu.halt_poll_end);
        break;
      case VcpuState::kReady:
        // Fold the open waiting interval so steal ground truth is complete.
        vcpu.steal_total += engine_.now() - vcpu.ready_since;
        break;
      case VcpuState::kInHost:     // pending continuations check state, drop out
      case VcpuState::kHalted:
      case VcpuState::kUninitialized:
        break;
    }
    vcpu.guest_timer.disarm();
    vcpu.aux_timer.disarm();
    vcpu.guest_deadline.reset();  // keeps the timer-liveness watchdog quiet
    const bool on_cpu = vcpu.on_pcpu();
    vcpu.state = VcpuState::kUninitialized;
    if (on_cpu) release_pcpu(vcpu);  // stale runqueue entries are skipped lazily
  }
}

// ---------------------------------------------------------------------------
// Cost helpers
// ---------------------------------------------------------------------------

void Kvm::charge_and_then(hw::CpuId cpu, hw::CycleCategory cat, sim::Cycles c,
                          sim::InlineCallback&& then) {
  PARATICK_DCHECK(cpu != kNoCpu);
  auto& pcpu = machine_.cpu(cpu);
  pcpu.charge_cycles(cat, c);
  engine_.schedule_after(pcpu.frequency().time_for(c), std::move(then));
}

// ---------------------------------------------------------------------------
// Guest segment management
// ---------------------------------------------------------------------------

void Kvm::start_segment(Vcpu& vcpu, sim::Cycles c, hw::CycleCategory cat, Resume then) {
  PARATICK_CHECK(vcpu.state == VcpuState::kInGuest);
  PARATICK_CHECK_MSG(!vcpu.current.active && !vcpu.current.suspended,
                     "run() while a segment is outstanding");
  PARATICK_CHECK(c >= sim::Cycles::zero());
  auto& cur = vcpu.current;
  cur.active = true;
  cur.suspended = false;
  cur.started = engine_.now();
  cur.total = c;
  cur.remaining = c;
  cur.category = cat;
  cur.then = then;
  const auto freq = machine_.cpu(vcpu.pcpu).frequency();
  cur.completion =
      engine_.schedule_after(freq.time_for(c), [this, &vcpu] { segment_complete(vcpu); });
}

void Kvm::pause_current(Vcpu& vcpu) {
  auto& cur = vcpu.current;
  if (!cur.active) return;
  engine_.cancel(cur.completion);
  const sim::SimTime elapsed = engine_.now() - cur.started;
  const auto freq = machine_.cpu(vcpu.pcpu).frequency();
  sim::Cycles done_cycles = freq.cycles_in(elapsed);
  if (done_cycles > cur.remaining) done_cycles = cur.remaining;
  machine_.cpu(vcpu.pcpu).charge_cycles(cur.category, done_cycles);
  cur.remaining -= done_cycles;
  cur.active = false;
  cur.suspended = true;
}

void Kvm::resume_current(Vcpu& vcpu) {
  auto& cur = vcpu.current;
  PARATICK_CHECK_MSG(cur.suspended, "resume without a suspended segment");
  cur.suspended = false;
  cur.active = true;
  cur.started = engine_.now();
  const auto freq = machine_.cpu(vcpu.pcpu).frequency();
  cur.completion =
      engine_.schedule_after(freq.time_for(cur.remaining), [this, &vcpu] {
        segment_complete(vcpu);
      });
}

void Kvm::segment_complete(Vcpu& vcpu) {
  auto& cur = vcpu.current;
  PARATICK_DCHECK(cur.active);
  machine_.cpu(vcpu.pcpu).charge_cycles(cur.category, cur.remaining);
  cur.remaining = sim::Cycles::zero();
  cur.active = false;
  cur.suspended = false;
  continue_guest(vcpu, cur.then);
}

// ---------------------------------------------------------------------------
// The run loop: exits and entries
// ---------------------------------------------------------------------------

void Kvm::do_exit(Vcpu& vcpu, hw::ExitCause cause,
                  sim::InlineCallback&& host_work_then_entry) {
  PARATICK_CHECK_MSG(vcpu.state == VcpuState::kInGuest, "exit from a non-running vCPU");
  pause_current(vcpu);
  vcpu.state = VcpuState::kInHost;
  exits_.record(cause, vcpu.vm()->id());
  const sim::Cycles cost = config_.exit_costs.total_for(hw::reason_for(cause));
  charge_and_then(vcpu.pcpu, hw::CycleCategory::kExitOverhead, cost,
                  std::move(host_work_then_entry));
}

void Kvm::continue_guest(Vcpu& vcpu, Resume then) {
  switch (then) {
    case Resume::kInterrupted:
      give_control_to_guest(vcpu);
      return;
    case Resume::kPortDone:
      vcpu.guest->port_done();
      return;
    case Resume::kPauseExit:
      do_exit(vcpu, hw::ExitCause::kPauseLoop,
              [this, &vcpu] { vmentry(vcpu, Resume::kSpin); });
      return;
    case Resume::kSpin:
      port_spin(vcpu, vcpu.spin_left);
      return;
  }
}

void Kvm::give_control_to_guest(Vcpu& vcpu) {
  if (vcpu.current.suspended) {
    resume_current(vcpu);
  } else if (!vcpu.booted) {
    vcpu.booted = true;
    vcpu.guest->power_on();
  } else {
    vcpu.guest->idle_resume();
  }
}

void Kvm::vmentry(Vcpu& vcpu, Resume then) {
  if (vcpu.state == VcpuState::kUninitialized) {
    // Frozen (live migration) or powered off while an exit-path charge
    // was in flight: the host work completes, the entry finds the vCPU
    // gone and drops out. The guest path waiting on it stays parked with
    // the frozen guest.
    return;
  }
  PARATICK_CHECK(vcpu.state == VcpuState::kInHost && vcpu.pcpu != kNoCpu);
  if (fault_ != nullptr) {
    const sim::SimTime burst = fault_->steal_burst();
    if (burst > sim::SimTime::zero()) {
      // Fault: the host scheduler preempts the entry path — the vCPU sits
      // in host context while another task runs (steal time), then the
      // entry is retried. Retries redraw, so bursts can chain (geometric).
      const auto freq = machine_.cpu(vcpu.pcpu).frequency();
      machine_.cpu(vcpu.pcpu).charge_cycles(hw::CycleCategory::kHostKernel,
                                            freq.cycles_in(burst));
      vcpu.steal_total += burst;
      engine_.schedule_after(burst, [this, &vcpu, then] {
        if (vcpu.state != VcpuState::kInHost) return;
        vmentry(vcpu, then);
      });
      return;
    }
  }
  charge_and_then(
      vcpu.pcpu, hw::CycleCategory::kExitOverhead, config_.exit_costs.vmentry,
      [this, &vcpu, then] {
        // The vCPU may have been preempted/requeued while the entry cost was
        // being paid (shared mode); in that case the dispatch path will
        // re-enter later.
        if (vcpu.state != VcpuState::kInHost) return;

        paratick_entry_hook(vcpu);

        if (vcpu.guest_irqs_enabled && vcpu.pending.any_pending()) {
          const hw::Vector v = *vcpu.pending.ack();
          // Stash what the injection interrupts so iret can restore it.
          PARATICK_CHECK_MSG(!vcpu.interrupted, "injection into a running handler");
          if (vcpu.current.suspended) {
            PARATICK_CHECK(then == Resume::kInterrupted);
            vcpu.interrupted = SavedContext{vcpu.current.remaining,
                                            vcpu.current.category, vcpu.current.then};
            vcpu.current = Vcpu::CurrentSegment{};
          } else {
            vcpu.interrupted =
                SavedContext{sim::Cycles::zero(), hw::CycleCategory::kGuestUser, then};
          }
          vcpu.guest_irqs_enabled = false;
          ++vcpu.injections;
          vcpu.last_injected = v;
          // Stay in host context while the injection cost is paid so that
          // async events in this window queue instead of double-exiting.
          charge_and_then(vcpu.pcpu, hw::CycleCategory::kExitOverhead,
                          config_.exit_costs.injection, [&vcpu, v] {
                            if (vcpu.state != VcpuState::kInHost) return;  // frozen
                            vcpu.state = VcpuState::kInGuest;
                            vcpu.guest->handle_interrupt(v);
                          });
          return;
        }

        vcpu.state = VcpuState::kInGuest;
        continue_guest(vcpu, then);
      });
}

// ---------------------------------------------------------------------------
// Port operations (synchronous guest->host requests)
// ---------------------------------------------------------------------------

void Kvm::port_run(Vcpu& vcpu, sim::Cycles c, hw::CycleCategory cat) {
  start_segment(vcpu, c, cat, Resume::kPortDone);
}

template <typename HostWork>
void Kvm::exit_and_reenter(Vcpu& vcpu, hw::ExitCause cause, HostWork host_work) {
  PARATICK_CHECK(vcpu.state == VcpuState::kInGuest && !vcpu.current.active);
  do_exit(vcpu, cause, [this, &vcpu, host_work] {
    host_work(*this, vcpu);
    vmentry(vcpu, Resume::kPortDone);
  });
}

void Kvm::port_write_tsc_deadline(Vcpu& vcpu, std::optional<sim::SimTime> deadline) {
  exit_and_reenter(vcpu, hw::ExitCause::kGuestTimerArm,
                   [deadline](Kvm&, Vcpu& v) {
                     // KVM tracks the guest deadline and backs it with the
                     // preemption timer (running) or a host hrtimer
                     // (descheduled); both are the same DeadlineTimer here.
                     if (deadline) {
                       v.guest_deadline = *deadline;
                       v.guest_timer.arm(*deadline);
                     } else {
                       v.guest_deadline.reset();
                       v.guest_timer.disarm();
                     }
                   });
}

void Kvm::port_hypercall(Vcpu& vcpu, const HypercallRequest& req) {
  exit_and_reenter(vcpu, hw::ExitCause::kHypercall,
                   [req](Kvm& kvm, Vcpu& v) {
                     if (req.kind == HypercallRequest::Kind::kDeclareTickFreq) {
                       v.paratick_enabled = req.enable_paratick;
                       v.paratick_period = req.guest_tick_period;
                       v.last_tick = kvm.engine_.now();
                     }
                   });
}

void Kvm::port_hlt(Vcpu& vcpu) {
  PARATICK_CHECK(vcpu.state == VcpuState::kInGuest && !vcpu.current.active);
  PARATICK_CHECK_MSG(vcpu.guest_irqs_enabled, "hlt with interrupts masked would hang");
  ++vcpu.halts;
  do_exit(vcpu, hw::ExitCause::kHalt, [this, &vcpu] {
    if (vcpu.state != VcpuState::kInHost) return;  // frozen mid-exit (migration)
    if (vcpu.pending.any_pending()) {
      // HLT with a wake already pending: return to the guest immediately.
      vmentry(vcpu, Resume::kInterrupted);
      return;
    }
    vcpu.halt_start = engine_.now();  // block-duration anchor for adaptation
    if (config_.halt_polling && vcpu.halt_poll_window > sim::SimTime::zero()) {
      vcpu.state = VcpuState::kHaltPolling;
      vcpu.halt_start = engine_.now();
      vcpu.halt_poll_end =
          engine_.schedule_after(vcpu.halt_poll_window, [this, &vcpu] {
            // Poll window expired without a wake: pay the polled cycles and
            // go properly to sleep.
            ++vcpu.poll_misses;
            const auto freq = machine_.cpu(vcpu.pcpu).frequency();
            machine_.cpu(vcpu.pcpu).charge_cycles(
                hw::CycleCategory::kHaltPoll, freq.cycles_in(vcpu.halt_poll_window));
            vcpu.state = VcpuState::kHalted;
            machine_.cpu(vcpu.pcpu).charge_cycles(hw::CycleCategory::kHostKernel,
                                                  config_.host_costs.sched_out);
            release_pcpu(vcpu);
          });
      return;
    }
    machine_.cpu(vcpu.pcpu).charge_cycles(hw::CycleCategory::kHostKernel,
                                          config_.host_costs.sched_out);
    vcpu.state = VcpuState::kHalted;
    release_pcpu(vcpu);
  });
}

void Kvm::port_iret(Vcpu& vcpu) {
  PARATICK_CHECK(vcpu.state == VcpuState::kInGuest);
  PARATICK_CHECK_MSG(vcpu.interrupted.has_value(), "iret with no interrupted context");
  if (vcpu.pending.any_pending()) {
    // Another vector is already pending: deliver it back-to-back without
    // unmasking (like consecutive interrupt frames). Hold the vCPU in
    // host context while the injection cost is paid.
    const hw::Vector v = *vcpu.pending.ack();
    ++vcpu.injections;
    vcpu.last_injected = v;
    vcpu.state = VcpuState::kInHost;
    charge_and_then(vcpu.pcpu, hw::CycleCategory::kExitOverhead,
                    config_.exit_costs.injection, [&vcpu, v] {
                      if (vcpu.state != VcpuState::kInHost) return;  // frozen
                      vcpu.state = VcpuState::kInGuest;
                      vcpu.guest->handle_interrupt(v);
                    });
    return;
  }
  vcpu.guest_irqs_enabled = true;
  const SavedContext ctx = *vcpu.interrupted;
  vcpu.interrupted.reset();
  if (ctx.remaining > sim::Cycles::zero()) {
    auto& cur = vcpu.current;
    PARATICK_CHECK(!cur.active && !cur.suspended);
    cur.suspended = true;
    cur.remaining = ctx.remaining;
    cur.total = ctx.remaining;
    cur.category = ctx.category;
    cur.then = ctx.then;
    resume_current(vcpu);
  } else {
    continue_guest(vcpu, ctx.then);
  }
}

void Kvm::port_io_submit(Vcpu& vcpu, const hw::IoRequest& req) {
  exit_and_reenter(vcpu, hw::ExitCause::kIoKick,
                   [req](Kvm& kvm, Vcpu& v) {
                     hw::BlockDevice* disk = kvm.vm_disks_[v.vm()->id()];
                     PARATICK_CHECK_MSG(disk != nullptr, "VM has no attached block device");
                     hw::IoRequest tagged = req;
                     const std::uint64_t tag = kvm.next_io_tag_++;
                     kvm.pending_io_.push_back(PendingIo{tag, &v, req.cookie});
                     tagged.cookie = tag;
                     disk->submit(tagged);
                   });
}

void Kvm::port_drain_io_completions(Vcpu& vcpu, std::vector<hw::IoRequest>& out) {
  out.clear();
  out.swap(vcpu.io_completions);
}

void Kvm::port_io_ack(Vcpu& vcpu) {
  exit_and_reenter(vcpu, hw::ExitCause::kIoAck, kNoHostWork);
}

void Kvm::port_send_ipi(Vcpu& vcpu, int target_index, hw::Vector v) {
  // The hop is priced from the sender's pCPU, read before the exit.
  PARATICK_CHECK(vcpu.state == VcpuState::kInGuest && !vcpu.current.active);
  Vm* vm = vcpu.vm();
  PARATICK_CHECK(target_index >= 0 && target_index < vm->vcpu_count());
  Vcpu& target = vm->vcpu(target_index);
  // Cross-socket IPIs pay the interconnect hop (NUMA wake penalty).
  const hw::CpuId src = vcpu.pcpu;
  const hw::CpuId dst = target.home_pcpu;
  const sim::SimTime hop = machine_.same_socket(src, dst)
                               ? sim::SimTime::zero()
                               : machine_.spec().cross_socket_penalty;
  exit_and_reenter(vcpu, hw::ExitCause::kIpiSend,
                   [&target, hop, v](Kvm& kvm, Vcpu&) {
                     kvm.engine_.schedule_after(hop, [&kvm, &target, v] {
                       kvm.deliver_interrupt(target, v, hw::ExitCause::kWakeIpi);
                     });
                   });
}

void Kvm::port_background_exit(Vcpu& vcpu) {
  exit_and_reenter(vcpu, hw::ExitCause::kBackground, kNoHostWork);
}

void Kvm::port_spin(Vcpu& vcpu, sim::Cycles c) {
  PARATICK_CHECK_MSG(vcpu.guest_irqs_enabled, "spin inside an interrupt handler");
  if (!config_.pause_loop_exiting || c < config_.ple_window) {
    port_run(vcpu, c, hw::CycleCategory::kGuestUser);
    return;
  }
  // Burn one PLE window, take a pause exit (Resume::kPauseExit), then
  // continue spinning the rest (Resume::kSpin).
  vcpu.spin_left = c - config_.ple_window;
  start_segment(vcpu, config_.ple_window, hw::CycleCategory::kGuestUser, Resume::kPauseExit);
}

// ---------------------------------------------------------------------------
// Interrupt delivery and wakeups
// ---------------------------------------------------------------------------

void Kvm::deliver_interrupt(Vcpu& vcpu, hw::Vector vector, hw::ExitCause cause_if_running) {
  vcpu.pending.raise(vector);
  switch (vcpu.state) {
    case VcpuState::kInGuest:
      // Asynchronous interrupts always find guest code mid-segment (there
      // is no engine gap between segments in guest mode).
      PARATICK_CHECK_MSG(vcpu.current.active,
                         "interrupt delivered synchronously from guest context");
      do_exit(vcpu, cause_if_running, [this, &vcpu] { vmentry(vcpu, Resume::kInterrupted); });
      break;
    case VcpuState::kInHost:
    case VcpuState::kReady:
    case VcpuState::kUninitialized:
      break;  // will be injected at the pending/next VM entry
    case VcpuState::kHaltPolling: {
      // Poll hit: cheap wake without a schedule-out/in round trip.
      engine_.cancel(vcpu.halt_poll_end);
      ++vcpu.poll_hits;
      const sim::SimTime polled = engine_.now() - vcpu.halt_start;
      const auto freq = machine_.cpu(vcpu.pcpu).frequency();
      machine_.cpu(vcpu.pcpu).charge_cycles(hw::CycleCategory::kHaltPoll,
                                            freq.cycles_in(polled));
      vcpu.state = VcpuState::kInHost;
      ++vcpu.wakeups;
      vmentry(vcpu, Resume::kInterrupted);
      break;
    }
    case VcpuState::kHalted:
      wake_vcpu(vcpu);
      break;
  }
}

void Kvm::adapt_poll_window(Vcpu& vcpu, sim::SimTime block_duration) {
  if (!config_.halt_polling || !config_.halt_poll_adaptive) return;
  // KVM's halt_poll_ns heuristic: a block that a (max-sized) poll would
  // have absorbed grows the window; a long sleep shrinks it.
  if (block_duration <= config_.halt_poll_window) {
    const sim::SimTime grown =
        vcpu.halt_poll_window == sim::SimTime::zero()
            ? config_.halt_poll_window / 8
            : vcpu.halt_poll_window * kHaltPollGrow;
    vcpu.halt_poll_window = std::min(grown, config_.halt_poll_window);
  } else {
    vcpu.halt_poll_window = vcpu.halt_poll_window / kHaltPollShrink;
  }
}

void Kvm::wake_vcpu(Vcpu& vcpu) {
  PARATICK_CHECK(vcpu.state == VcpuState::kHalted);
  ++vcpu.wakeups;
  adapt_poll_window(vcpu, engine_.now() - vcpu.halt_start);
  vcpu.state = VcpuState::kReady;
  vcpu.ready_since = engine_.now();
  machine_.cpu(vcpu.home_pcpu).charge_cycles(hw::CycleCategory::kHostKernel,
                                             config_.host_costs.wake_vcpu);
  enqueue_ready(vcpu);
  engine_.schedule_after(config_.host_costs.wake_latency,
                         [this, cpu = vcpu.home_pcpu] { try_dispatch(cpu); });
}

// ---------------------------------------------------------------------------
// Host CPU scheduling
// ---------------------------------------------------------------------------

void Kvm::enqueue_ready(Vcpu& vcpu) {
  if (vcpu.in_runqueue) return;
  vcpu.in_runqueue = true;
  pcpus_[vcpu.home_pcpu].runqueue.push_back(&vcpu);
}

void Kvm::try_dispatch(hw::CpuId cpu) {
  auto& st = pcpus_[cpu];
  while (st.occupant == nullptr && !st.runqueue.empty()) {
    Vcpu* next = st.runqueue.front();
    st.runqueue.pop_front();
    next->in_runqueue = false;
    if (next->state != VcpuState::kReady) continue;
    schedule_in(*next, cpu);
  }
}

void Kvm::schedule_in(Vcpu& vcpu, hw::CpuId cpu) {
  auto& st = pcpus_[cpu];
  PARATICK_CHECK(st.occupant == nullptr);
  st.occupant = &vcpu;
  vcpu.pcpu = cpu;
  vcpu.state = VcpuState::kInHost;
  vcpu.last_sched_in = engine_.now();
  // schedule_in is only reachable from kReady (try_dispatch filters), so
  // the waiting interval is well-defined: it is this vCPU's steal time.
  vcpu.steal_total += engine_.now() - vcpu.ready_since;
  arm_host_tick(cpu);
  charge_and_then(cpu, hw::CycleCategory::kHostKernel, config_.host_costs.sched_in,
                  [this, &vcpu] {
                    if (vcpu.state == VcpuState::kInHost) {
                      vmentry(vcpu, Resume::kInterrupted);
                    }
                  });
}

void Kvm::release_pcpu(Vcpu& vcpu) {
  const hw::CpuId cpu = vcpu.pcpu;
  PARATICK_CHECK(cpu != kNoCpu);
  auto& st = pcpus_[cpu];
  PARATICK_CHECK(st.occupant == &vcpu);
  st.occupant = nullptr;
  vcpu.pcpu = kNoCpu;
  vcpu.aux_timer.disarm();
  disarm_host_tick(cpu);
  try_dispatch(cpu);
}

// ---------------------------------------------------------------------------
// Host scheduler tick
// ---------------------------------------------------------------------------

void Kvm::arm_host_tick(hw::CpuId cpu) {
  auto& st = pcpus_[cpu];
  const sim::SimTime period = config_.host_tick_freq.period();
  // Next absolute grid point strictly after now.
  const sim::SimTime now = engine_.now();
  const std::int64_t p = period.nanoseconds();
  const std::int64_t phase = st.tick_phase.nanoseconds();
  const std::int64_t k = (now.nanoseconds() - phase) / p + 1;
  st.host_tick->arm(sim::SimTime::ns(phase + k * p));
}

void Kvm::disarm_host_tick(hw::CpuId cpu) { pcpus_[cpu].host_tick->disarm(); }

void Kvm::on_host_tick(hw::CpuId cpu) {
  auto& st = pcpus_[cpu];
  if (st.occupant == nullptr) return;  // raced with release; stay disarmed
  arm_host_tick(cpu);
  Vcpu& occ = *st.occupant;
  if (occ.state != VcpuState::kInGuest) {
    // Host context is already active; the tick costs host work, no exit.
    machine_.cpu(cpu).charge_cycles(hw::CycleCategory::kHostKernel,
                                    config_.host_costs.tick_work);
    return;
  }
  do_exit(occ, hw::ExitCause::kHostTick, [this, &occ, cpu] {
    charge_and_then(cpu, hw::CycleCategory::kHostKernel, config_.host_costs.tick_work,
                    [this, &occ, cpu] {
                      if (occ.state != VcpuState::kInHost) return;  // frozen
                      auto& state = pcpus_[cpu];
                      const bool slice_expired =
                          engine_.now() - occ.last_sched_in >= config_.timeslice;
                      if (config_.sched_mode == SchedMode::kShared &&
                          !state.runqueue.empty() && slice_expired) {
                        // Preempt: the guest segment stays suspended inside the
                        // vCPU until it is scheduled back in.
                        machine_.cpu(cpu).charge_cycles(hw::CycleCategory::kHostKernel,
                                                        config_.host_costs.sched_out);
                        occ.state = VcpuState::kReady;
                        occ.ready_since = engine_.now();
                        enqueue_ready(occ);
                        release_pcpu(occ);
                        return;
                      }
                      vmentry(occ, Resume::kInterrupted);
                    });
  });
}

// ---------------------------------------------------------------------------
// Guest timers
// ---------------------------------------------------------------------------

void Kvm::on_guest_timer_fire(Vcpu& vcpu) {
  vcpu.guest_deadline.reset();
  if (vcpu.state == VcpuState::kHalted) {
    // The vCPU is descheduled: its deadline is backed by a host hrtimer on
    // its home CPU. If another guest is running there, it takes the
    // interrupt as a VM exit — the §3.1 "suspended for a descheduled
    // vCPU's tick" effect.
    machine_.cpu(vcpu.home_pcpu).charge_cycles(hw::CycleCategory::kHostKernel,
                                               config_.host_costs.hrtimer_fire);
    Vcpu* other = pcpus_[vcpu.home_pcpu].occupant;
    if (other != nullptr && other != &vcpu && other->state == VcpuState::kInGuest) {
      do_exit(*other, hw::ExitCause::kGuestTimerHostFire,
              [this, other] { vmentry(*other, Resume::kInterrupted); });
    }
  }
  // A running guest takes KVM's preemption-timer exit, cheaper than a
  // full LAPIC-timer intercept (§3).
  deliver_interrupt(vcpu, hw::vectors::kLocalTimer, hw::ExitCause::kGuestTimerFire);
}

// ---------------------------------------------------------------------------
// Paratick host side (paper Figure 2 + §4.1 frequency mismatch)
// ---------------------------------------------------------------------------

bool Kvm::tick_freq_compatible(const Vcpu& vcpu) const {
  const std::int64_t host_p = config_.host_tick_freq.period().nanoseconds();
  const std::int64_t guest_p = vcpu.paratick_period.nanoseconds();
  return host_p <= guest_p && guest_p % host_p == 0;
}

void Kvm::paratick_entry_hook(Vcpu& vcpu) {
  if (!vcpu.paratick_enabled) return;
  const sim::SimTime now = engine_.now();
  if (vcpu.pending.pending(hw::vectors::kLocalTimer)) {
    // A guest-programmed timer interrupt is about to be injected; Linux
    // performs basic timekeeping on any interrupt, so treat it as the tick
    // (the §5.1 heuristic).
    vcpu.last_tick = now;
  } else if (now - vcpu.last_tick >= vcpu.paratick_period) {
    if (fault_ != nullptr && fault_->delay_tick_injection()) {
      // Fault: the host misses this injection point. last_tick stays stale,
      // so the paratick is raised (late) at the next entry hook — delayed,
      // never lost, matching the §5 stale-tick tolerance argument.
    } else {
      vcpu.pending.raise(hw::vectors::kParatick);
      vcpu.last_tick = now;
    }
  }
  maybe_arm_aux_timer(vcpu);
}

void Kvm::maybe_arm_aux_timer(Vcpu& vcpu) {
  if (tick_freq_compatible(vcpu)) {
    vcpu.aux_timer.disarm();
    return;
  }
  // Host ticks alone cannot provide injection points at the guest's rate:
  // back the guest tick with the preemption timer (§4.1). A stale
  // last_tick (fault-delayed injection) would put the deadline in the
  // past; back the *next* slot instead so the delayed tick rides the next
  // natural entry or the next backstop, never an immediate-refire loop.
  sim::SimTime next = vcpu.last_tick + vcpu.paratick_period;
  if (next <= engine_.now()) next = engine_.now() + vcpu.paratick_period;
  vcpu.aux_timer.arm(next);
}

void Kvm::on_aux_timer_fire(Vcpu& vcpu) {
  if (vcpu.state != VcpuState::kInGuest) return;  // idle vCPUs get no virtual ticks
  do_exit(vcpu, hw::ExitCause::kAuxParatickTimer,
          [this, &vcpu] { vmentry(vcpu, Resume::kInterrupted); });
}

// ---------------------------------------------------------------------------
// Virtio-blk backend
// ---------------------------------------------------------------------------

void Kvm::on_block_completion(VmId vm, const hw::IoRequest& req) {
  (void)vm;
  auto it = std::find_if(pending_io_.begin(), pending_io_.end(),
                         [&req](const PendingIo& p) { return p.tag == req.cookie; });
  PARATICK_CHECK_MSG(it != pending_io_.end(), "completion for unknown I/O tag");
  Vcpu* submitter = it->submitter;
  hw::IoRequest original = req;
  original.cookie = it->guest_cookie;
  *it = pending_io_.back();
  pending_io_.pop_back();
  submitter->io_completions.push_back(original);
  deliver_interrupt(*submitter, hw::vectors::kBlockDevice,
                    hw::ExitCause::kDeviceCompletion);
}

}  // namespace paratick::hv
