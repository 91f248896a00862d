// Consolidation at cluster scale: N hosts × M tenant VMs of bursty
// diurnal traffic, steal-aware rebalancing, and the paratick-vs-dynticks
// timer-overhead gap per overcommit ratio.
//
// Each grid cell runs a core::Cluster — one System per host, coupled
// through the parallel engine with the host boundary as the partition
// boundary, so --engine-threads N parallelizes the cell across hosts
// while -j fans cells out across the grid. This is the parallel engine's
// determinism gate: --engine-threads, --lookahead-mode, -j and --dispatch
// leave every exported byte unchanged (the cluster-smoke CI job cmp's
// them), with migrations and telemetry crossing partitions. The
// overcommit axis resizes the per-host machine exactly like the
// single-host benches, so rows self-describe the vCPU:pCPU ratio.
//
// Cluster flags (strict numeric parsing, exit 2 on garbage):
//   --hosts N                  single hosts-axis point (default: 2 and 4)
//   --vms-per-host M           VMs per host (default 4)
//   --overcommit X             single overcommit point (default: 1 and 2)
//   --rebalance-period MS      steal-aware rebalance barrier period in ms;
//                              0 disables rebalancing (default 10)
//   --migration-blackout-us U  stop-and-copy blackout (default 500)
//   --migration-dirty-mcycles C dirty-page copy cost per end (default 2)
//   --duration-ms MS           simulated time per run (default 100)
//   --telemetry-period-us U    hosts 1..N-1 stream a load report to host 0
//                              every U us over a dedicated low-latency
//                              link; 0 disables the star (default 0). The
//                              heterogeneous-link topology is where
//                              --lookahead-mode topology beats global.
//   --telemetry-latency-us U   declared latency of those links (default 50)
// Plus the shared sweep CLI (core/sweep.hpp): -j, --engine-threads,
// --lookahead-mode, --repeat, --seed, --dispatch, --sweep-csv/json,
// --history-dir, ... Cluster runs take no trace recorder, faults,
// watchdog or wall-clock limit: --record-trace, --chaos, --fault-*,
// --watchdog and --run-timeout exit 2 before the sweep starts.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/cli_parse.hpp"
#include "core/cluster/cluster.hpp"
#include "core/sweep.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"
#include "workload/tenant_traffic.hpp"

using namespace paratick;

namespace {

[[noreturn]] void usage_error(const std::string& msg) {
  PARATICK_CHECK_MSG(false, msg.c_str());
  std::abort();  // unreachable; PARATICK_CHECK_MSG throws
}

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

/// Consume the bench's own flags from the sweep CLI's positional residue.
/// Anything left over is an unknown flag — reject it loudly instead of
/// silently benchmarking a different cluster than the user asked for.
ClusterOpts parse_cluster_opts(const std::vector<std::string>& args) {
  ClusterOpts opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&](const char* flag) -> const std::string& {
      if (i + 1 >= args.size()) {
        usage_error(std::string(flag) + " requires a value");
      }
      return args[++i];
    };
    if (a == "--hosts") {
      opts.hosts = {static_cast<int>(core::parse_u64_flag("--hosts", value(a.c_str()), 64))};
      if (opts.hosts.front() < 1) usage_error("--hosts must be >= 1");
    } else if (a == "--vms-per-host") {
      opts.vms_per_host = static_cast<int>(
          core::parse_u64_flag("--vms-per-host", value(a.c_str()), 256));
      if (opts.vms_per_host < 1) usage_error("--vms-per-host must be >= 1");
    } else if (a == "--overcommit") {
      opts.overcommit = {
          core::parse_double_flag("--overcommit", value(a.c_str()), 0.01)};
    } else if (a == "--rebalance-period") {
      opts.rebalance_period = sim::SimTime::from_seconds(
          core::parse_double_flag("--rebalance-period", value(a.c_str()), 0.0) /
          1e3);
    } else if (a == "--migration-blackout-us") {
      opts.migration_blackout = sim::SimTime::us(static_cast<std::int64_t>(
          core::parse_u64_flag("--migration-blackout-us", value(a.c_str()),
                               1'000'000)));
    } else if (a == "--migration-dirty-mcycles") {
      opts.migration_dirty_mcycles = static_cast<std::int64_t>(
          core::parse_u64_flag("--migration-dirty-mcycles", value(a.c_str()),
                               1'000'000));
    } else if (a == "--duration-ms") {
      opts.duration = sim::SimTime::from_seconds(
          core::parse_double_flag("--duration-ms", value(a.c_str()), 0.001) /
          1e3);
    } else if (a == "--telemetry-period-us") {
      opts.telemetry_period = sim::SimTime::us(static_cast<std::int64_t>(
          core::parse_u64_flag("--telemetry-period-us", value(a.c_str()),
                               1'000'000'000)));
    } else if (a == "--telemetry-latency-us") {
      opts.telemetry_latency = sim::SimTime::us(static_cast<std::int64_t>(
          core::parse_u64_flag("--telemetry-latency-us", value(a.c_str()),
                               1'000'000'000)));
    } else {
      usage_error("unknown bench_cluster flag: " + a);
    }
  }
  if (opts.migration_blackout <= sim::SimTime::zero()) {
    usage_error("--migration-blackout-us must be >= 1");
  }
  if (opts.telemetry_period > sim::SimTime::zero()) {
    if (opts.telemetry_latency <= sim::SimTime::zero()) {
      usage_error("--telemetry-latency-us must be >= 1");
    }
    if (opts.telemetry_period < opts.telemetry_latency) {
      usage_error(
          "--telemetry-period-us below --telemetry-latency-us would queue "
          "unbounded in-flight reports");
    }
  }
  return opts;
}

/// The scenario factory one hosts-axis variant plugs into the sweep: the
/// materialized experiment (machine sized by the overcommit axis, per-run
/// seed derived) becomes a ClusterSpec.
std::function<metrics::RunResult(const core::ExperimentSpec&, guest::TickMode)>
make_cluster_runner(int hosts, const ClusterOpts& opts, unsigned engine_threads,
                    sim::LookaheadMode lookahead_mode) {
  return [hosts, opts, engine_threads, lookahead_mode](
             const core::ExperimentSpec& exp, guest::TickMode mode) {
    core::ClusterSpec cs = core::cluster_spec_for(exp, mode, hosts);
    // The guests' own estimators feed the scheduler AND the exported
    // estimator-error metric (steal_est_err columns).
    cs.guest.steal.enabled = true;
    cs.engine_threads = engine_threads;
    cs.lookahead_mode = lookahead_mode;
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
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);
  ClusterOpts opts;
  try {
    opts = parse_cluster_opts(cli.positional);
  } catch (const sim::SimError& e) {
    std::fprintf(stderr, "bench_cluster: %s\n", e.what());
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
        {variant_name(hosts), [hosts, &opts, &cli](core::ExperimentSpec& exp) {
           exp.scenario.run = make_cluster_runner(
               hosts, opts, cli.engine_threads, cli.lookahead_mode);
         }});
  }
  cli.apply(cfg);
  if (const char* flag = core::unsupported_cluster_flag(cfg)) {
    std::fprintf(stderr, "bench_cluster: %s is not supported for cluster runs\n",
                 flag);
    return 2;
  }

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  cli.export_results(res, "bench_cluster");

  if (!cli.csv) {
    std::printf("==== Cluster consolidation: hosts x %d tenant VMs/host, "
                "%.0f ms, rebalance %.1f ms ====\n",
                opts.vms_per_host, opts.duration.milliseconds(),
                opts.rebalance_period.milliseconds());
    std::printf("(%zu runs, %.2fs wall on %u threads, engine-threads %u)\n\n",
                res.runs.size(), res.wall_seconds, res.threads_used,
                cli.engine_threads);
  }

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
  if (cli.csv) {
    std::fputs(t.to_csv().c_str(), stdout);
    return 0;
  }
  t.print();

  // The paper's question at cluster scale: how much timer overhead does
  // paratick shave per overcommit ratio?
  std::printf("\nparatick vs dynticks (timer-related exits):\n");
  for (const auto& base : res.cells) {
    if (base.key.mode != guest::TickMode::kDynticksIdle) continue;
    for (const auto& treat : res.cells) {
      if (treat.key.mode != guest::TickMode::kParatick ||
          treat.key.variant != base.key.variant ||
          treat.key.overcommit != base.key.overcommit) {
        continue;
      }
      const metrics::Comparison c = core::SweepResult::compare_cells(base, treat);
      std::printf("  %s oc=%g: exits %+.1f%%, timer exits %+.1f%%\n",
                  base.key.variant.c_str(), base.key.overcommit,
                  c.exit_delta_pct, c.timer_exit_delta_pct);
    }
  }
  std::printf("\nSteal columns: hv ground truth summed over tenant VMs; est err\n"
              "is the guests' platform-agnostic estimator minus that truth —\n"
              "the signal the consolidation scheduler actually acted on.\n");
  return 0;
}
