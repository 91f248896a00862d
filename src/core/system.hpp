// The library's top-level public API: describe a virtualized system
// (machine, host configuration, VMs with tick modes and workloads), run
// it, and collect the paper's metrics.
//
// Typical use (see examples/quickstart.cpp):
//
//   core::SystemSpec spec;
//   spec.machine = hw::MachineSpec::small(4);
//   core::VmSpec vm;
//   vm.vcpus = 4;
//   vm.guest.tick_mode = guest::TickMode::kParatick;
//   vm.setup = [](guest::GuestKernel& k) {
//     workload::install_parsec(k, workload::parsec_profile("fluidanimate"), 4);
//   };
//   spec.vms.push_back(vm);
//   core::System system(spec);
//   metrics::RunResult result = system.run();
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "guest/kernel.hpp"
#include "hv/kvm.hpp"
#include "hw/block_device.hpp"
#include "hw/machine.hpp"
#include "metrics/run_metrics.hpp"
#include "sim/engine.hpp"
#include "sim/watchdog.hpp"

namespace paratick::fault {
class FaultInjector;
}  // namespace paratick::fault

namespace paratick::core {

struct VmSpec {
  int vcpus = 1;
  guest::GuestConfig guest;  // tick mode, tick frequency, kernel costs
  /// Installs the workload (tasks, barriers) into the freshly built kernel.
  std::function<void(guest::GuestKernel&)> setup;
  bool attach_disk = false;
  hw::BlockDeviceSpec disk = hw::BlockDeviceSpec::sata_ssd();
  std::vector<hw::CpuId> pinning;  // optional explicit vCPU placement
};

struct SystemSpec {
  hw::MachineSpec machine = hw::MachineSpec::small(1);
  hv::HostConfig host;
  std::vector<VmSpec> vms;
  /// Hard cap on simulated time (open-ended workloads run this long).
  sim::SimTime max_duration = sim::SimTime::sec(30);
  /// Stop as soon as every VM that has tasks finished them.
  bool stop_when_done = true;

  /// Chaos injection: fault rates (all zero = inert, no injector built)
  /// and the seed of the fault plan. The sweep layer derives fault_seed
  /// purely from (root_seed, run_index) so chaos grids replay exactly.
  fault::FaultConfig fault;
  std::uint64_t fault_seed = 0;

  /// Wall-clock budget for run(); > 0 makes the engine throw
  /// SimError{kTimeout} when exceeded (hung-run detection).
  double wall_limit_sec = 0.0;

  /// Observer attached to the engine's dispatch loop for the lifetime of
  /// the run — the record/replay layer's hook (core/record_replay). Must
  /// outlive the System. Purely observational: attaching one never
  /// changes what the engine executes.
  sim::EventObserver* observer = nullptr;
};

/// A System is its own engine's invariant watchdog (sim/watchdog.hpp),
/// attached at construction and swept every Watchdog::kPeriod of simulated
/// time plus once more by finish(). Its checks:
///   - timer-liveness: no vCPU's guest timer deadline stays armed more
///     than a 5 ms grace past its expiry (a lost timer interrupt);
///   - exit-accounting: the per-VM exit counts sum to the exit total.
/// Sweeps schedule nothing and allocate nothing unless a check fails, so
/// every run is checked without changing its results.
class System : private sim::Watchdog {
 public:
  explicit System(SystemSpec spec);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Run the simulation and collect metrics. Call once. Equivalent to
  /// power_on() + engine().run_until(spec.max_duration) + finish().
  metrics::RunResult run();

  /// First phase of run(): wire completion stops, arm the wall-clock
  /// budget and power on every VM — without executing
  /// a single event. Used by drivers that own the event loop themselves
  /// (sim::ParallelEngine runs many Systems' engines in rounds of one
  /// lookahead);
  /// call finish() once the external driver is done.
  void power_on();

  /// Second phase of run(): final watchdog sweep plus metric collection.
  metrics::RunResult finish();

  /// Attach one more VM to an already powered-on system and boot it — the
  /// cluster layer's live-migration destination path. Same wiring as
  /// construction (kernel, completion hook, optional disk); returns the
  /// new VM's index. Only legal after power_on().
  std::size_t attach_vm_live(const VmSpec& vspec);

  /// Park a VM for good (live-migration source): its vCPUs freeze in
  /// place and stop generating events; collected metrics keep everything
  /// accumulated up to the freeze. See hv::Kvm::freeze_vm.
  void freeze_vm(std::size_t vm_index);

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] hw::Machine& machine() { return machine_; }
  [[nodiscard]] hv::Kvm& kvm() { return kvm_; }
  [[nodiscard]] guest::GuestKernel& kernel(std::size_t vm_index) {
    return *kernels_[vm_index];
  }
  [[nodiscard]] std::size_t vm_count() const { return kernels_.size(); }
  [[nodiscard]] hw::BlockDevice* disk(std::size_t vm_index) {
    return disks_[vm_index].get();
  }
  /// The chaos injector, or nullptr when SystemSpec::fault is inert.
  [[nodiscard]] fault::FaultInjector* fault_injector() { return fault_.get(); }

 private:
  /// The per-VM slice of construction, reusable mid-run: create the hv VM,
  /// build the guest kernel, wire disk + fault hooks, run the workload
  /// setup. Returns the VM index.
  std::size_t attach_vm(const VmSpec& vspec);
  void wire_completion(std::size_t vm_index);
  metrics::RunResult collect() const;
  void sweep(const sim::Engine& engine) override;

  SystemSpec spec_;
  sim::Engine engine_;
  hw::Machine machine_;
  std::unique_ptr<fault::FaultInjector> fault_;
  hv::Kvm kvm_;
  std::vector<std::unique_ptr<guest::GuestKernel>> kernels_;
  std::vector<std::unique_ptr<hw::BlockDevice>> disks_;
  std::vector<std::optional<sim::SimTime>> completions_;
  bool powered_ = false;
};

}  // namespace paratick::core
