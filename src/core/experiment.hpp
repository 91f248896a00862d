// Experiment helpers: run the same workload under different tick modes
// and compare, the way every table/figure of the paper is produced.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "metrics/run_metrics.hpp"

namespace paratick::core {

/// Derive the `index`-th independent child seed from `root` (splitmix64
/// over (root, index)). A pure function, so seed assignment in sweeps never
/// depends on execution order or thread count.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root, std::uint64_t index);

struct ExperimentSpec;

/// The scenario dimension of an experiment: how many VMs run which
/// workloads under which scheduling mode — and, for topologies beyond a
/// single host, a factory that runs the materialized spec itself. Folded
/// out of the old ad-hoc ExperimentSpec fields so the single-host grids
/// and the cluster grids share one shape.
struct ScenarioSpec {
  /// Identical VM copies (consolidation / Table 1 W2+W4 shapes). With more
  /// than one copy, each VM's seed is derive_seed(guest_seed, copy).
  int vm_copies = 1;
  /// Per-copy workload overrides; when non-empty it wins over the
  /// experiment's `setup` and its size wins over `vm_copies`.
  std::vector<std::function<void(guest::GuestKernel&)>> vm_setups;
  /// Explicit scheduling mode; default: the host config's mode, upgraded
  /// to shared when the VMs' vCPUs outnumber the physical CPUs.
  std::optional<hv::SchedMode> sched_mode;
  /// Scenario factory: when set, run_mode() hands the fully materialized
  /// experiment (machine sized by the overcommit axis, seeds derived) to
  /// this callable instead of building a plain single-host System. The
  /// cluster layer plugs in here; the sweep pipeline above is unchanged.
  std::function<metrics::RunResult(const ExperimentSpec&, guest::TickMode)> run;

  [[nodiscard]] int effective_copies() const {
    return vm_setups.empty() ? (vm_copies > 0 ? vm_copies : 1)
                             : static_cast<int>(vm_setups.size());
  }
};

/// A reusable experiment: everything but the tick mode is fixed.
struct ExperimentSpec {
  hw::MachineSpec machine = hw::MachineSpec::small(1);
  hv::HostConfig host;
  int vcpus = 1;  // per VM
  sim::Frequency guest_tick_freq{250.0};
  guest::GuestCostModel guest_costs;
  std::function<void(guest::GuestKernel&)> setup;
  bool attach_disk = false;
  hw::BlockDeviceSpec disk = hw::BlockDeviceSpec::sata_ssd();
  sim::SimTime max_duration = sim::SimTime::sec(30);
  std::uint64_t guest_seed = 1234;
  /// VM-copy / workload-placement / scheduling dimension, plus the
  /// optional factory that runs the materialized spec (cluster layer).
  ScenarioSpec scenario;
  bool stop_when_done = true;

  /// Chaos injection (see SystemSpec). fault_seed 0 = derive from
  /// guest_seed, so single runs stay reproducible without extra plumbing.
  fault::FaultConfig fault;
  std::uint64_t fault_seed = 0;
  double wall_limit_sec = 0.0;
  /// Engine dispatch-loop observer (see SystemSpec::observer).
  sim::EventObserver* observer = nullptr;
};

/// Build a one-VM SystemSpec for `mode` from the experiment template.
[[nodiscard]] SystemSpec make_system_spec(const ExperimentSpec& exp,
                                          guest::TickMode mode);

/// Run the experiment under `mode` and return the collected metrics.
[[nodiscard]] metrics::RunResult run_mode(const ExperimentSpec& exp,
                                          guest::TickMode mode);

/// Paper-style A/B: dynticks baseline vs paratick treatment.
struct AbResult {
  metrics::RunResult baseline;   // dynticks idle (vanilla)
  metrics::RunResult treatment;  // paratick
  metrics::Comparison comparison;
};
[[nodiscard]] AbResult run_paratick_vs_dynticks(const ExperimentSpec& exp);

}  // namespace paratick::core
