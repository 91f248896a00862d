// Chaos sweeps: run a registered fault-injection scenario across tick
// modes with crash-isolated runs, an invariant watchdog, and replay
// bundles for every failure (ROADMAP: deterministic chaos layer).
//
// Scenarios (core/scenarios.cpp): timer-storm, sync-storm, io-storm.
// The default chaos fault mix is applied automatically; individual
// rates can be overridden with --fault-<knob> X, e.g.
//
//   bench_chaos timer-storm --repeat 4 --fault-timer-drop 0.05
//               --failure-dir results/failures
//
// The sweep completes the full grid even when runs fail: failed
// replicas are reported per cell as "degraded" and excluded from the
// aggregates. Each failure writes a replay bundle under --failure-dir
// (default results/failures) which `bench_replay <bundle.json>`
// re-executes deterministically to the same failing event.
//
// Exit code 0 even with degraded cells — chaos failures are data, not
// bench errors. Shared CLI flags in core/sweep.hpp.
#include <cstdio>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "core/sweep.hpp"
#include "metrics/report.hpp"

using namespace paratick;

int main(int argc, char** argv) {
  const auto names = core::chaos_scenario_names();
  const core::SweepCli cli = core::SweepCli::parse(
      argc, argv, {},
      {{"scenario", std::vector<std::string>(names.begin(), names.end()), true}});
  const std::string& scenario = cli.positional[0];

  core::SweepConfig cfg = core::build_chaos_scenario(scenario);
  cli.apply(cfg);
  if (cfg.failure_dir.empty()) cfg.failure_dir = "results/failures";

  const core::SweepResult res = cli.run_sweep(std::move(cfg));

  if (cli.csv) {
    std::fputs(res.to_csv().c_str(), stdout);
  } else {
    std::printf("chaos scenario %s: %zu runs (%zu ok, %zu failed, %zu cells"
                " degraded), %.2fs on %u threads\n",
                scenario.c_str(), res.runs.size(), res.ok_run_count(),
                res.failed_runs().size(), res.degraded_cell_count(),
                res.wall_seconds, res.threads_used);
    std::printf("%-42s %8s %8s %8s %10s %10s\n", "cell", "ok", "failed",
                "timedout", "exits", "wake_us");
    for (const auto& cell : res.cells) {
      std::printf("%-42s %8llu %8llu %8llu %10.0f %10.3f%s\n",
                  cell.key.label().c_str(),
                  static_cast<unsigned long long>(cell.exits_total.count()),
                  static_cast<unsigned long long>(cell.replicas_failed),
                  static_cast<unsigned long long>(cell.replicas_timed_out),
                  cell.exits_total.mean(), cell.wakeup_latency_us.mean(),
                  cell.degraded() ? "  DEGRADED" : "");
    }
    for (const core::SweepRun* run : res.failed_runs()) {
      const core::RunFailure& f = *run->failure;
      std::printf("failure run=%zu %s: %s %s%s%s [sim t=%lldns]%s%s\n",
                  run->run_index, res.cells[run->cell].key.label().c_str(),
                  core::RunFailure::kind_name(f.kind), f.expr.c_str(),
                  f.message.empty() ? "" : " — ", f.message.c_str(),
                  static_cast<long long>(f.sim_time_ns),
                  run->bundle_path.empty() ? "" : " bundle=",
                  run->bundle_path.c_str());
    }
  }
  cli.export_results(res, "bench_chaos_" + scenario);
  return 0;
}
