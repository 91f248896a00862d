#include "core/system.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "fault/injector.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

namespace {
/// How long an armed guest timer may stay past its deadline before the
/// timer-liveness check declares the interrupt lost. Must exceed the
/// worst benign delivery delay (late/coalesce faults, steal bursts).
constexpr sim::SimTime kWatchdogTimerGrace = sim::SimTime::ms(5);
}  // namespace

System::System(SystemSpec spec)
    : spec_(std::move(spec)),
      machine_(spec_.machine),
      kvm_(engine_, machine_, spec_.host) {
  PARATICK_CHECK_MSG(!spec_.vms.empty(), "system needs at least one VM");

  engine_.set_observer(spec_.observer);
  engine_.set_watchdog(this);

  if (spec_.fault.any()) {
    fault_ = std::make_unique<fault::FaultInjector>(spec_.fault, spec_.fault_seed);
    kvm_.set_fault_injector(fault_.get());
  }

  for (const VmSpec& vspec : spec_.vms) attach_vm(vspec);
}

std::size_t System::attach_vm(const VmSpec& vspec) {
  hv::VmConfig vconf;
  vconf.vcpus = vspec.vcpus;
  vconf.pinning = vspec.pinning;
  hv::Vm& vm = kvm_.create_vm(vconf);

  guest::GuestConfig gconf = vspec.guest;
  gconf.fault = fault_.get();
  kernels_.push_back(std::make_unique<guest::GuestKernel>(kvm_, vm, gconf));
  completions_.emplace_back();

  if (vspec.attach_disk) {
    disks_.push_back(std::make_unique<hw::BlockDevice>(
        engine_, vspec.disk, sim::Rng{spec_.host.seed ^ (vm.id() * 0x9E37ull + 7)}));
    kvm_.attach_block_device(vm, *disks_.back());
    if (fault_) {
      disks_.back()->set_fault_hook([this](const hw::IoRequest&) {
        const auto d = fault_->on_io_start();
        return hw::BlockDevice::FaultOutcome{d.fail, d.latency_factor};
      });
    }
  } else {
    disks_.push_back(nullptr);
  }

  if (vspec.setup) vspec.setup(*kernels_.back());
  return kernels_.size() - 1;
}

std::size_t System::attach_vm_live(const VmSpec& vspec) {
  PARATICK_CHECK_MSG(powered_, "attach_vm_live() before power_on()");
  const std::size_t index = attach_vm(vspec);
  wire_completion(index);
  kvm_.power_on_vm(*kvm_.vms()[index]);
  return index;
}

void System::freeze_vm(std::size_t vm_index) {
  PARATICK_CHECK_MSG(vm_index < kernels_.size(), "freeze_vm: no such VM");
  kvm_.freeze_vm(*kvm_.vms()[vm_index]);
}

System::~System() = default;

metrics::RunResult System::run() {
  power_on();
  engine_.run_until(spec_.max_duration);
  return finish();
}

void System::power_on() {
  PARATICK_CHECK_MSG(!powered_, "System may only be powered on once");
  powered_ = true;

  // Completion wiring: when every VM that owns tasks is done, stop.
  for (std::size_t i = 0; i < kernels_.size(); ++i) wire_completion(i);

  if (spec_.wall_limit_sec > 0.0) engine_.set_wall_limit(spec_.wall_limit_sec);
  kvm_.power_on_all();
}

metrics::RunResult System::finish() {
  PARATICK_CHECK_MSG(powered_, "System::finish() before power_on()");
  sweep(engine_);  // final sweep: catch violations after the last event
  return collect();
}

void System::wire_completion(std::size_t vm_index) {
  kernels_[vm_index]->set_on_all_done([this, vm_index] {
    completions_[vm_index] = engine_.now();
    bool all = true;
    for (std::size_t j = 0; j < kernels_.size(); ++j) {
      if (kernels_[j]->task_count() > 0 && !completions_[j]) all = false;
    }
    if (all && spec_.stop_when_done) engine_.stop();
  });
}

void System::sweep(const sim::Engine& engine) {
  const auto breach = [&engine](const char* check, const std::string& message) {
    throw sim::SimError(sim::SimError::Kind::kWatchdog, check, "", 0, message,
                        engine.now(), engine.events_executed());
  };

  for (const auto& vm : kvm_.vms()) {
    for (int i = 0; i < vm->vcpu_count(); ++i) {
      const hv::Vcpu& v = vm->vcpu(i);
      if (v.guest_deadline &&
          *v.guest_deadline + kWatchdogTimerGrace < engine.now()) {
        breach("timer-liveness",
               "vCPU " + std::to_string(v.id()) + " guest timer deadline " +
                   sim::to_string(*v.guest_deadline) + " still armed at " +
                   sim::to_string(engine.now()) + " — timer interrupt lost");
      }
    }
  }

  const hv::ExitStats& exits = kvm_.exits();
  std::uint64_t by_vm = 0;
  for (const auto& vm : kvm_.vms()) by_vm += exits.total_for_vm(vm->id());
  if (by_vm != exits.total()) {
    breach("exit-accounting", "per-VM exit counts sum to " + std::to_string(by_vm) +
                                  " but total is " + std::to_string(exits.total()));
  }
}

metrics::RunResult System::collect() const {
  metrics::RunResult r;
  r.wall = engine_.now();
  r.events_executed = engine_.events_executed();
  const sim::EngineProfile prof = engine_.profile();
  r.events_scheduled = prof.events_scheduled;
  r.events_cancelled = prof.events_cancelled;
  r.callback_spills = prof.callback_spills;
  r.callback_spill_bytes = prof.callback_spill_bytes;
  r.slot_high_water = prof.slot_high_water;
  r.queue_compactions = prof.compactions;
  r.engine_wall_ns = prof.wall_ns;
  if (fault_) r.faults = fault_->stats();

  // Combined ledger; idle = wall - busy, per CPU.
  hw::CycleLedger combined;
  for (const auto& cpu : machine_.cpus()) {
    combined.merge(cpu.ledger());
    const sim::Cycles wall_cycles = cpu.frequency().cycles_in(r.wall);
    const sim::Cycles busy = cpu.ledger().busy_total();
    if (wall_cycles > busy) {
      combined.charge(hw::CycleCategory::kIdle, wall_cycles - busy);
    }
  }
  r.cycles = combined;

  const hv::ExitStats& exits = kvm_.exits();
  r.exits_total = exits.total();
  r.exits_timer_related = exits.timer_related();
  for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
    r.exits_by_cause[c] = exits.count(static_cast<hw::ExitCause>(c));
  }

  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    metrics::VmResult vr;
    const auto vm_id = static_cast<std::uint32_t>(i);
    vr.exits_total = exits.total_for_vm(vm_id);
    std::uint64_t timer = 0;
    for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
      const auto cause = static_cast<hw::ExitCause>(c);
      vr.exits_by_cause[c] = exits.count_for_vm(vm_id, cause);
      if (hw::is_timer_related(cause)) timer += vr.exits_by_cause[c];
    }
    vr.exits_timer_related = timer;
    vr.completion_time = completions_[i];
    vr.policy = kernels_[i]->aggregated_policy_stats();
    vr.tick_intervals_us = kernels_[i]->aggregated_tick_intervals_us();
    for (int t = 0; t < kernels_[i]->task_count(); ++t) {
      vr.task_blocks += kernels_[i]->task(t).blocks;
      vr.task_wakes += kernels_[i]->task(t).wakes;
    }
    vr.wakeup_latency_us = kernels_[i]->wakeup_latency_us();
    vr.wakeup_latency_hist_us = kernels_[i]->wakeup_latency_hist_us();
    vr.io_errors = kernels_[i]->io_errors();
    // Steal ground truth: folded waiting intervals plus whatever interval
    // is still open for vCPUs sitting in the runqueue at collection time.
    const hv::Vm& vm = *kvm_.vms()[i];
    for (int v = 0; v < vm.vcpu_count(); ++v) {
      const hv::Vcpu& vc = vm.vcpu(v);
      vr.steal_time += vc.steal_total;
      if (vc.state == hv::VcpuState::kReady) {
        vr.steal_time += engine_.now() - vc.ready_since;
      }
    }
    if (kernels_[i]->steal_estimator_enabled()) {
      vr.steal_estimate = kernels_[i]->steal_estimate();
    }
    r.vms.push_back(vr);
  }
  return r;
}

}  // namespace paratick::core
