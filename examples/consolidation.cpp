// Cloud-consolidation scenario (§3.1): hosts time-share their physical
// CPUs between several mostly-idle VMs — the common overcommit case the
// paper argues periodic ticks handle terribly. Compares total exits and
// useful throughput for all three tick policies with 4 VMs x 8 vCPUs on
// 8 pCPUs per host, running the policies in parallel on the sweep
// runner.
//
// Now built on the cluster layer (core/cluster): `--hosts 1` (the
// default) is the original single-host scenario — core::Cluster drives
// that one System's engine directly, adding no events — while
// `--hosts N` scales the same workload out to N hosts under one
// simulated clock, optionally with steal-aware rebalancing. Numbers
// differ from the pre-cluster version of this example because per-VM
// guest seeds are now derived from the cluster seed stream (stable in
// the VM's global index, so they no longer shift when hosts are added).
//
// Build & run: cmake --build build && ./build/examples/consolidation
// Flags: --hosts N, --rebalance-period MS (0 = off, the default),
// plus the shared sweep CLI
// (-j N, --repeat N, --seed S, --sweep-csv P, ...; see --help).
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/cluster/cluster.hpp"
#include "core/sweep.hpp"
#include "metrics/report.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

constexpr int kVmsPerHost = 4;
constexpr sim::SimTime kDuration = sim::SimTime::sec(2);

struct Opts {
  int hosts = 1;
  sim::SimTime rebalance_period;  // zero = place once, never rebalance
};

std::vector<core::CliFlag> consolidation_flags(Opts& opts) {
  return {
      {"--hosts", "N", "hosts in the cluster (default 1)",
       [&opts](const std::string& v) {
         opts.hosts = static_cast<int>(core::parse_u64_flag("--hosts", v, 64, 10, 1));
       }},
      {"--rebalance-period", "MS", "rebalance barrier period, 0 = off (default 0)",
       [&opts](const std::string& v) {
         opts.rebalance_period = sim::SimTime::from_seconds(
             core::parse_double_flag("--rebalance-period", v, 0.0) / 1e3);
       }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Opts opts;
  const core::SweepCli cli =
      core::SweepCli::parse(argc, argv, consolidation_flags(opts));

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(8);  // per host
  cfg.base.vcpus = 8;
  cfg.base.scenario.vm_copies = kVmsPerHost;
  cfg.base.max_duration = kDuration;
  cfg.base.stop_when_done = false;
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kParatick};
  cfg.root_seed = 500;
  // Every grid cell runs one core::Cluster; the host boundary is the
  // parallel-engine partition boundary.
  cfg.base.scenario.run = [opts](const core::ExperimentSpec& exp,
                                 guest::TickMode mode) {
    core::ClusterSpec cs = core::cluster_spec_for(exp, mode, opts.hosts);
    cs.guest.steal.enabled = opts.rebalance_period > sim::SimTime::zero();
    cs.rebalance_period = opts.rebalance_period;
    // 4 VMs with individually tuned light, bursty service loads, keyed
    // by global index so a VM keeps its personality across migrations.
    cs.workload = [](guest::GuestKernel& k, int g) {
      workload::SyncStormSpec storm;
      storm.threads = 4;
      storm.sync_rate_hz = 100.0 + 50.0 * (g % kVmsPerHost);
      storm.duration = kDuration;
      storm.load = 0.15;
      workload::install_sync_storm(k, storm);
    };
    core::Cluster cluster(std::move(cs));
    return cluster.run().merged;
  };
  cli.apply(cfg);
  if (const char* flag = core::unsupported_cluster_flag(cfg)) {
    std::fprintf(stderr, "consolidation: %s is not supported for cluster runs\n",
                 flag);
    return 2;
  }

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  cli.export_results(res);

  std::printf("%d host(s) x 4 VMs x 8 vCPUs on 8 pCPUs (4x overcommit), "
              "light bursty load, 2 s\n\n",
              opts.hosts);
  metrics::Table t({"policy", "total exits", "timer-related", "exit overhead Mcycles",
                    "host Mcycles"});
  const auto mcycles = [](const core::SweepCellSummary& cell, hw::CycleCategory c) {
    return metrics::format(
        "%.1f", cell.cycles[static_cast<std::size_t>(c)].mean() / 1e6);
  };
  for (const auto& cell : res.cells) {
    t.add_row({std::string(guest::to_string(cell.key.mode)),
               metrics::format("%.0f", cell.exits_total.mean()),
               metrics::format("%.0f", cell.exits_timer.mean()),
               mcycles(cell, hw::CycleCategory::kExitOverhead),
               mcycles(cell, hw::CycleCategory::kHostKernel)});
  }
  t.print();
  std::puts("\nPeriodic guests interrupt the host for every idle vCPU's tick; dynticks\n"
            "pays per idle transition; paratick needs (almost) nothing (§3, §4.2).");
  return 0;
}
