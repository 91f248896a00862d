#include "core/experiment.hpp"

namespace paratick::core {

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t index) {
  // splitmix64 over the (root, index) pair; same finalizer Rng seeding uses.
  std::uint64_t z = root + (index + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SystemSpec make_system_spec(const ExperimentSpec& exp, guest::TickMode mode) {
  SystemSpec spec;
  spec.machine = exp.machine;
  spec.host = exp.host;
  spec.max_duration = exp.max_duration;
  spec.stop_when_done = exp.stop_when_done;
  spec.fault = exp.fault;
  spec.fault_seed =
      exp.fault_seed != 0 ? exp.fault_seed : derive_seed(exp.guest_seed, 0x66617531);
  spec.wall_limit_sec = exp.wall_limit_sec;
  spec.observer = exp.observer;

  const int copies = exp.scenario.effective_copies();
  if (exp.scenario.sched_mode) {
    spec.host.sched_mode = *exp.scenario.sched_mode;
  } else if (static_cast<std::uint32_t>(exp.vcpus) *
                 static_cast<std::uint32_t>(copies) >
             exp.machine.total_cpus()) {
    spec.host.sched_mode = hv::SchedMode::kShared;
  }

  for (int copy = 0; copy < copies; ++copy) {
    VmSpec vm;
    vm.vcpus = exp.vcpus;
    vm.guest.tick_mode = mode;
    vm.guest.tick_freq = exp.guest_tick_freq;
    vm.guest.costs = exp.guest_costs;
    // A single VM keeps the seed verbatim (bit-compat with existing runs).
    vm.guest.seed = copies == 1
                        ? exp.guest_seed
                        : derive_seed(exp.guest_seed, static_cast<std::uint64_t>(copy));
    vm.setup = exp.scenario.vm_setups.empty()
                   ? exp.setup
                   : exp.scenario.vm_setups[static_cast<std::size_t>(copy)];
    vm.attach_disk = exp.attach_disk;
    vm.disk = exp.disk;
    spec.vms.push_back(std::move(vm));
  }
  return spec;
}

metrics::RunResult run_mode(const ExperimentSpec& exp, guest::TickMode mode) {
  // Scenario factory: topologies beyond one host (the cluster layer) run
  // the materialized spec themselves; everything above this dispatch —
  // planning, seeds, backends, exports — is shared unchanged.
  if (exp.scenario.run) return exp.scenario.run(exp, mode);
  System system(make_system_spec(exp, mode));
  return system.run();
}

AbResult run_paratick_vs_dynticks(const ExperimentSpec& exp) {
  AbResult r{run_mode(exp, guest::TickMode::kDynticksIdle),
             run_mode(exp, guest::TickMode::kParatick),
             {}};
  r.comparison = metrics::compare(r.baseline, r.treatment);
  return r;
}

}  // namespace paratick::core
