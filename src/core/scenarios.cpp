#include "core/scenarios.hpp"

#include "guest/kernel.hpp"
#include "sim/check.hpp"
#include "workload/fio.hpp"
#include "workload/micro.hpp"

namespace paratick::core {

fault::FaultConfig default_chaos_faults() {
  fault::FaultConfig f;
  f.timer_drop_prob = 0.01;
  f.timer_late_prob = 0.05;
  f.timer_coalesce_prob = 0.02;
  f.tsc_drift_ppm = 50.0;
  f.io_error_prob = 0.01;
  f.io_spike_prob = 0.02;
  f.steal_burst_prob = 0.02;
  f.tick_delay_prob = 0.10;
  f.softirq_spurious_prob = 0.02;
  f.softirq_drop_prob = 0.01;
  return f;
}

namespace {

constexpr const char* kFaultKnobs[] = {
    "timer-drop",      "timer-late",     "timer-late-max-us",
    "timer-coalesce",  "coalesce-window-us",
    "tsc-drift-ppm",   "io-error",       "io-spike",
    "io-spike-factor", "steal",          "steal-burst-max-us",
    "tick-delay",      "softirq-spurious", "softirq-drop",
};

constexpr const char* kScenarios[] = {"timer-storm", "sync-storm", "io-storm",
                                      "tick-loss", "overcommit"};

}  // namespace

std::vector<CliFlag> fault_knob_flags(
    std::vector<std::pair<std::string, double>>& overrides) {
  std::vector<CliFlag> flags;
  for (const char* knob : kFaultKnobs) {
    const std::string name = std::string("--fault-") + knob;
    flags.push_back({name, "X", "override this chaos fault knob",
                     [&overrides, knob, name](const std::string& v) {
                       overrides.emplace_back(
                           knob, parse_double_flag(name.c_str(), v));
                     }});
  }
  return flags;
}

void set_fault_knob(fault::FaultConfig& cfg, const std::string& knob,
                    double value) {
  const auto us = [value] {
    return sim::SimTime::ns(static_cast<std::int64_t>(value * 1e3));
  };
  if (knob == "timer-drop") {
    cfg.timer_drop_prob = value;
  } else if (knob == "timer-late") {
    cfg.timer_late_prob = value;
  } else if (knob == "timer-late-max-us") {
    cfg.timer_late_max = us();
  } else if (knob == "timer-coalesce") {
    cfg.timer_coalesce_prob = value;
  } else if (knob == "coalesce-window-us") {
    cfg.timer_coalesce_window = us();
  } else if (knob == "tsc-drift-ppm") {
    cfg.tsc_drift_ppm = value;
  } else if (knob == "io-error") {
    cfg.io_error_prob = value;
  } else if (knob == "io-spike") {
    cfg.io_spike_prob = value;
  } else if (knob == "io-spike-factor") {
    cfg.io_spike_factor = value;
  } else if (knob == "steal") {
    cfg.steal_burst_prob = value;
  } else if (knob == "steal-burst-max-us") {
    cfg.steal_burst_max = us();
  } else if (knob == "tick-delay") {
    cfg.tick_delay_prob = value;
  } else if (knob == "softirq-spurious") {
    cfg.softirq_spurious_prob = value;
  } else if (knob == "softirq-drop") {
    cfg.softirq_drop_prob = value;
  } else {
    PARATICK_CHECK_MSG(false, "unknown fault knob");
  }
}

std::span<const char* const> chaos_scenario_names() { return kScenarios; }

bool is_chaos_scenario(std::string_view name) {
  for (const char* s : kScenarios) {
    if (name == s) return true;
  }
  return false;
}

SweepConfig build_chaos_scenario(std::string_view name) {
  SweepConfig cfg;
  cfg.fault = default_chaos_faults();
  cfg.watchdog = true;
  cfg.bench_name = "bench_chaos";
  cfg.scenario = std::string(name);
  cfg.root_seed = 20260806;

  if (name == "timer-storm") {
    // Timer-subsystem churn: a tick-storm task re-arms the wheel/hrtimer
    // layers thousands of times while timer interrupts are being dropped,
    // delayed and coalesced under it.
    cfg.base.machine = hw::MachineSpec::small(2);
    cfg.base.vcpus = 2;
    cfg.base.max_duration = sim::SimTime::ms(500);
    cfg.base.setup = [](guest::GuestKernel& k) {
      workload::TickStormSpec storm;
      storm.iterations = 2000;
      workload::install_tick_storm(k, storm);
    };
    cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  } else if (name == "sync-storm") {
    // Blocking-sync storm under steal bursts and delayed paravirtual
    // ticks — the paper's W3 shape, where lost wakeups show up as
    // watchdog timer-liveness breaches.
    cfg.base.machine = hw::MachineSpec::small(4);
    cfg.base.vcpus = 4;
    cfg.base.max_duration = sim::SimTime::ms(100);
    cfg.base.stop_when_done = false;
    cfg.base.setup = [](guest::GuestKernel& k) {
      workload::SyncStormSpec storm;
      storm.threads = 4;
      storm.duration = sim::SimTime::ms(100);
      workload::install_sync_storm(k, storm);
    };
    cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
                 guest::TickMode::kParatick};
  } else if (name == "io-storm") {
    // Synchronous block I/O against a device that injects errors and
    // latency spikes; exercises the guest's error-completion path.
    cfg.base.machine = hw::MachineSpec::small(1);
    cfg.base.vcpus = 1;
    cfg.base.attach_disk = true;
    cfg.base.setup = [](guest::GuestKernel& k) {
      workload::FioSpec spec;
      spec.ops = 800;
      workload::install_fio(k, spec);
    };
    cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  } else if (name == "tick-loss") {
    // The §5 split outcome as a runnable artifact: every hardware timer
    // interrupt is lost. A busy dynticks guest arms the deadline timer
    // for its tick and hangs when the fire is dropped (watchdog breach);
    // paratick arms no hardware timer — its tick rides VM entries — so
    // the same faulted host completes the run.
    cfg.fault = fault::FaultConfig{};
    cfg.fault.timer_drop_prob = 1.0;
    cfg.base.machine = hw::MachineSpec::small(1);
    cfg.base.vcpus = 1;
    cfg.base.max_duration = sim::SimTime::ms(200);
    cfg.base.setup = [](guest::GuestKernel& k) {
      workload::PureComputeSpec compute;
      compute.total_cycles = 100'000'000;
      compute.chunks = 100;
      workload::install_pure_compute(k, compute);
    };
    cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  } else if (name == "overcommit") {
    // Double scheduling under pressure: the overcommit axis shrinks the
    // machine so vCPUs outnumber pCPUs (the host auto-switches to shared
    // scheduling), and on top of that every VM entry can be preempted by
    // a long steal burst with the paravirtual tick arriving late. Lost
    // wakeups in the blocking-sync workload surface as watchdog
    // timer-liveness breaches; paratick's entry-coupled tick must keep
    // firing even when entries themselves are the scarce resource.
    cfg.fault = fault::FaultConfig{};
    cfg.fault.steal_burst_prob = 0.15;
    cfg.fault.steal_burst_max = sim::SimTime::us(2000);
    cfg.fault.tick_delay_prob = 0.25;
    cfg.base.machine = hw::MachineSpec::small(4);
    cfg.base.vcpus = 4;
    cfg.base.max_duration = sim::SimTime::ms(100);
    cfg.base.stop_when_done = false;
    cfg.base.setup = [](guest::GuestKernel& k) {
      workload::SyncStormSpec storm;
      storm.threads = 4;
      storm.duration = sim::SimTime::ms(100);
      workload::install_sync_storm(k, storm);
    };
    cfg.overcommit = {1.0, 2.0};
    cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  } else {
    PARATICK_CHECK_MSG(false, "unknown chaos scenario");
  }
  return cfg;
}

}  // namespace paratick::core
