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
// Flags: --hosts N, --rebalance-period MS (0 = off, the default), plus
// the shared sweep CLI: -j N, --engine-threads N, --repeat N, --seed S,
// --sweep-csv P, --sweep-json P, --quiet
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/cluster/cluster.hpp"
#include "core/sweep.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

constexpr int kVmsPerHost = 4;
constexpr sim::SimTime kDuration = sim::SimTime::sec(2);

struct Opts {
  int hosts = 1;
  sim::SimTime rebalance_period;  // zero = place once, never rebalance
};

Opts parse_opts(const std::vector<std::string>& args) {
  Opts opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&](const char* flag) -> const std::string& {
      PARATICK_CHECK_MSG(i + 1 < args.size(), flag);
      return args[++i];
    };
    if (args[i] == "--hosts") {
      opts.hosts =
          static_cast<int>(core::parse_u64_flag("--hosts", value("--hosts"), 64));
      PARATICK_CHECK_MSG(opts.hosts >= 1, "--hosts must be >= 1");
    } else if (args[i] == "--rebalance-period") {
      opts.rebalance_period = sim::SimTime::from_seconds(
          core::parse_double_flag("--rebalance-period",
                                  value("--rebalance-period"), 0.0) /
          1e3);
    } else {
      PARATICK_CHECK_MSG(false, ("unknown consolidation flag: " + args[i]).c_str());
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);
  Opts opts;
  try {
    opts = parse_opts(cli.positional);
  } catch (const sim::SimError& e) {
    std::fprintf(stderr, "consolidation: %s\n", e.what());
    return 2;
  }

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
  // parallel-engine partition boundary, so --engine-threads spreads a
  // multi-host cell across threads without changing a single byte.
  cfg.base.scenario.run = [opts, engine_threads = cli.engine_threads](
                              const core::ExperimentSpec& exp,
                              guest::TickMode mode) {
    core::ClusterSpec cs = core::cluster_spec_for(exp, mode, opts.hosts);
    cs.guest.steal.enabled = opts.rebalance_period > sim::SimTime::zero();
    cs.engine_threads = engine_threads;
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
  cli.export_results(res, "consolidation");

  std::printf("%d host(s) x 4 VMs x 8 vCPUs on 8 pCPUs (4x overcommit), "
              "light bursty load, 2 s\n\n",
              opts.hosts);
  metrics::Table t({"policy", "total exits", "timer-related", "exit overhead Mcycles",
                    "host Mcycles"});
  for (const auto& cell : res.cells) {
    // cell.first carries replica 0's full RunResult (cycle ledger included).
    const metrics::RunResult& r = cell.first;
    t.add_row(
        {std::string(guest::to_string(cell.key.mode)),
         metrics::format("%.0f", cell.exits_total.mean()),
         metrics::format("%.0f", cell.exits_timer.mean()),
         metrics::format("%.1f",
                         (double)r.cycles.total(hw::CycleCategory::kExitOverhead).count() / 1e6),
         metrics::format("%.1f",
                         (double)r.cycles.total(hw::CycleCategory::kHostKernel).count() / 1e6)});
  }
  t.print();
  std::puts("\nPeriodic guests interrupt the host for every idle vCPU's tick; dynticks\n"
            "pays per idle transition; paratick needs (almost) nothing (§3, §4.2).");
  return 0;
}
