// Ablation of §3.1's overcommit claim: with physical CPUs time-shared
// between vCPUs, periodic-tick guests drown the host in exits for idle
// vCPUs. Sweeps the VM count (8 pCPUs, 8-vCPU copies, so overcommit =
// copies) with mostly-idle sync VMs and reports exits and useful-work
// throughput for the three policies.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp. The grid key's overcommit column is derived from the
// materialized spec, so the exported rows self-describe the ratio.
#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

constexpr int kVmCounts[] = {1, 2, 3, 4};

std::string variant_name(int vms) { return metrics::format("vms=%d", vms); }

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(8);
  cfg.base.vcpus = 8;
  cfg.base.max_duration = sim::SimTime::sec(2);
  cfg.base.stop_when_done = false;
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::SyncStormSpec storm;
    storm.threads = 8;
    storm.sync_rate_hz = 200.0;
    storm.duration = sim::SimTime::sec(2);
    storm.load = 0.2;  // mostly idle: the consolidation case of §3.1
    workload::install_sync_storm(k, storm);
  };
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kParatick};
  for (const int vms : kVmCounts) {
    // 8N vCPUs on 8 pCPUs: >1 copy auto-upgrades the host to shared
    // scheduling (see ScenarioSpec::sched_mode).
    cfg.variants.push_back({variant_name(vms), [vms](core::ExperimentSpec& exp) {
                              exp.scenario.vm_copies = vms;
                            }});
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  metrics::Table t({"VMs", "overcommit", "policy", "total exits", "useful Mcycles"});
  constexpr auto kGuestUser = static_cast<std::size_t>(hw::CycleCategory::kGuestUser);
  for (const int vms : kVmCounts) {
    for (auto mode : {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
                      guest::TickMode::kParatick}) {
      const auto* cell = res.find(variant_name(vms), mode);
      t.add_row({metrics::format("%d", vms), metrics::format("%dx", vms),
                 std::string(guest::to_string(mode)),
                 bench::mean_ci(cell->exits_total),
                 bench::mean_ci(cell->cycles[kGuestUser], 1, 1e6)});
    }
  }
  return bench::report(
      cli, res, "==== Ablation: overcommit (8 pCPUs, 8-vCPU VMs at 20% load) ====",
      {{"", t,
        "\nPeriodic exits grow linearly with the VM count while useful cycles\n"
        "stay flat; paratick's exit count is load-, not tick-, driven (§3.1).\n"}});
}
