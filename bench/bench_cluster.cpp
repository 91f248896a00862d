// Consolidation at cluster scale: N hosts × M tenant VMs of bursty
// diurnal traffic, steal-aware rebalancing, and the paratick-vs-dynticks
// timer-overhead gap per overcommit ratio.
//
// Each grid cell runs a core::Cluster — one System per host, coupled
// through the parallel engine with the host boundary as the partition
// boundary, while -j fans cells out across the grid. This is the
// parallel engine's determinism gate: -j leaves every exported byte
// unchanged (the cluster-smoke CI job cmp's them), with
// migrations and telemetry crossing partitions. The overcommit axis
// resizes the per-host machine exactly like the single-host benches, so
// rows self-describe the vCPU:pCPU ratio.
//
// Flags: `bench_cluster --help` lists the cluster flags (--hosts,
// --vms-per-host, --overcommit, rebalancing, migration and telemetry
// knobs) and the shared sweep CLI. With
// --telemetry-period-us U, hosts 1..N-1 stream a load report to host 0
// every U us, each delivered --telemetry-latency-us later; that latency,
// when below the migration blackout, becomes the engine's lookahead.
// Cluster runs take no
// trace recorder, faults or wall-clock limit: --record-trace, --chaos,
// --fault-* and --run-timeout exit 2 before the sweep starts. Every host
// runs the invariant watchdog, as every core::System does.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/cli_parse.hpp"
#include "core/cluster/cluster.hpp"
#include "core/sweep.hpp"
#include "workload/tenant_traffic.hpp"

using namespace paratick;

namespace {

struct ClusterOpts {
  std::vector<int> hosts = {2, 4};
  int vms_per_host = 4;
  std::vector<double> overcommit = {1.0, 2.0};
  sim::SimTime rebalance_period = sim::SimTime::ms(10);
  sim::SimTime migration_blackout = sim::SimTime::us(500);
  std::int64_t migration_dirty_mcycles = 2;
  sim::SimTime duration = sim::SimTime::ms(100);
  sim::SimTime telemetry_period;  // zero = no telemetry star
  sim::SimTime telemetry_latency = sim::SimTime::us(50);
};

/// The bench's own flags, parsed strictly into `opts` (exit 2 on garbage).
std::vector<core::CliFlag> cluster_flags(ClusterOpts& opts) {
  const auto us = [](const char* flag, sim::SimTime& out, std::uint64_t min,
                     std::uint64_t max) {
    return [flag, &out, min, max](const std::string& v) {
      out = sim::SimTime::us(
          static_cast<std::int64_t>(core::parse_u64_flag(flag, v, max, 10, min)));
    };
  };
  const auto ms = [](const char* flag, sim::SimTime& out, double min) {
    return [flag, &out, min](const std::string& v) {
      out = sim::SimTime::from_seconds(core::parse_double_flag(flag, v, min) / 1e3);
    };
  };
  return {
      {"--hosts", "N", "single hosts-axis point (default: 2 and 4)",
       [&opts](const std::string& v) {
         opts.hosts = {static_cast<int>(core::parse_u64_flag("--hosts", v, 64, 10, 1))};
       }},
      core::uint_flag("--vms-per-host", "M", "VMs per host (default 4)",
                      opts.vms_per_host, 1, 256),
      {"--overcommit", "X", "single overcommit point (default: 1 and 2)",
       [&opts](const std::string& v) {
         opts.overcommit = {core::parse_double_flag("--overcommit", v, 0.01)};
       }},
      {"--rebalance-period", "MS", "rebalance barrier period, 0 = off (default 10)",
       ms("--rebalance-period", opts.rebalance_period, 0.0)},
      {"--migration-blackout-us", "U", "stop-and-copy blackout (default 500)",
       us("--migration-blackout-us", opts.migration_blackout, 1, 1'000'000)},
      core::uint_flag("--migration-dirty-mcycles", "C",
                      "dirty-page copy cost per end (default 2)",
                      opts.migration_dirty_mcycles, 0, 1'000'000),
      {"--duration-ms", "MS", "simulated time per run (default 100)",
       ms("--duration-ms", opts.duration, 0.001)},
      {"--telemetry-period-us", "U", "load-report period to host 0, 0 = off (default 0)",
       us("--telemetry-period-us", opts.telemetry_period, 0, 1'000'000'000)},
      {"--telemetry-latency-us", "U", "delay of each telemetry report (default 50)",
       us("--telemetry-latency-us", opts.telemetry_latency, 0, 1'000'000'000)},
  };
}

/// The cross-field checks made after the parse; nullptr = consistent.
const char* opts_error(const ClusterOpts& opts) {
  if (opts.telemetry_period > sim::SimTime::zero()) {
    if (opts.telemetry_latency <= sim::SimTime::zero()) {
      return "--telemetry-latency-us must be >= 1";
    }
    if (opts.telemetry_period < opts.telemetry_latency) {
      return "--telemetry-period-us below --telemetry-latency-us would queue "
             "unbounded in-flight reports";
    }
  }
  return nullptr;
}

/// The scenario factory one hosts-axis variant plugs into the sweep: the
/// materialized experiment (machine sized by the overcommit axis, per-run
/// seed derived) becomes a ClusterSpec.
std::function<metrics::RunResult(const core::ExperimentSpec&, guest::TickMode)>
make_cluster_runner(int hosts, const ClusterOpts& opts) {
  return [hosts, opts](const core::ExperimentSpec& exp, guest::TickMode mode) {
    core::ClusterSpec cs = core::cluster_spec_for(exp, mode, hosts);
    // The guests' own estimators feed the scheduler AND the exported
    // estimator-error metric (steal_est_err columns).
    cs.guest.steal.enabled = true;
    cs.telemetry_period = opts.telemetry_period;
    cs.telemetry_latency = opts.telemetry_latency;
    cs.rebalance_period = opts.rebalance_period;
    cs.migration_blackout = opts.migration_blackout;
    cs.migration_dirty_cycles =
        sim::Cycles{opts.migration_dirty_mcycles * 1'000'000};
    cs.workload = [until = exp.max_duration,
                   seed = exp.guest_seed](guest::GuestKernel& k, int g) {
      workload::TenantTrafficSpec traffic;
      traffic.workers = 2;
      traffic.until = until;
      // Per-tenant flash-crowd placement, pure in (run seed, global VM).
      traffic.seed = core::derive_seed(seed, 0x74726166u + static_cast<std::uint64_t>(g));
      workload::install_tenant_traffic(k, traffic);
    };
    core::Cluster cluster(std::move(cs));
    return cluster.run().merged;
  };
}

std::string variant_name(int hosts) { return metrics::format("hosts=%d", hosts); }

}  // namespace

int main(int argc, char** argv) {
  ClusterOpts opts;
  const core::SweepCli cli = core::SweepCli::parse(argc, argv, cluster_flags(opts));
  if (const char* error = opts_error(opts)) {
    std::fprintf(stderr, "bench_cluster: %s\n", error);
    return 2;
  }

  core::SweepConfig cfg;
  cfg.base.vcpus = 2;
  cfg.base.machine = hw::MachineSpec::small(
      static_cast<std::uint32_t>(2 * opts.vms_per_host));
  cfg.base.scenario.vm_copies = opts.vms_per_host;
  cfg.base.max_duration = opts.duration;
  cfg.base.stop_when_done = false;
  cfg.overcommit = opts.overcommit;
  cfg.root_seed = 4242;
  for (const int hosts : opts.hosts) {
    cfg.variants.push_back(
        {variant_name(hosts), [hosts, &opts](core::ExperimentSpec& exp) {
           exp.scenario.run = make_cluster_runner(hosts, opts);
         }});
  }
  cli.apply(cfg);
  if (const char* flag = core::unsupported_cluster_flag(cfg)) {
    std::fprintf(stderr, "bench_cluster: %s is not supported for cluster runs\n",
                 flag);
    return 2;
  }

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  metrics::Table t({"hosts", "overcommit", "policy", "total exits",
                    "timer exits", "steal ms", "est err ms", "wake p99 us"});
  for (const auto& cell : res.cells) {
    t.add_row({cell.key.variant, metrics::format("%g", cell.key.overcommit),
               std::string(guest::to_string(cell.key.mode)),
               bench::mean_ci(cell.exits_total),
               bench::mean_ci(cell.exits_timer),
               bench::mean_ci(cell.steal_ms, 2),
               bench::mean_ci(cell.steal_est_err_ms, 2),
               metrics::format("%.1f", cell.wake_hist_us.percentile(99.0))});
  }

  // The paper's question at cluster scale: how much timer overhead does
  // paratick shave per overcommit ratio?
  std::string note = "\nparatick vs dynticks (timer-related exits):\n";
  for (const auto& base : res.cells) {
    if (base.key.mode != guest::TickMode::kDynticksIdle) continue;
    for (const auto& treat : res.cells) {
      if (treat.key.mode != guest::TickMode::kParatick ||
          treat.key.variant != base.key.variant ||
          treat.key.overcommit != base.key.overcommit) {
        continue;
      }
      const metrics::Comparison c = core::SweepResult::compare_cells(base, treat);
      note += metrics::format("  %s oc=%g: exits %+.1f%%, timer exits %+.1f%%\n",
                              base.key.variant.c_str(), base.key.overcommit,
                              c.exit_delta_pct, c.timer_exit_delta_pct);
    }
  }
  note += "\nSteal columns: hv ground truth summed over tenant VMs; est err\n"
          "is the guests' platform-agnostic estimator minus that truth —\n"
          "the signal the consolidation scheduler actually acted on.\n";
  return bench::report(
      cli, res,
      metrics::format("==== Cluster consolidation: hosts x %d tenant VMs/host, "
                      "%.0f ms, rebalance %.1f ms ====",
                      opts.vms_per_host, opts.duration.milliseconds(),
                      opts.rebalance_period.milliseconds()),
      {{"", t, note}});
}
