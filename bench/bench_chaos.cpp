// Chaos sweeps: run a registered fault-injection scenario across tick
// modes with crash-isolated runs and replay bundles for every failure.
// The invariant watchdog that catches lost timer interrupts runs in
// every core::System; chaos needs no flag for it.
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
// The report names every degraded cell like any sweep bench's, but the
// exit code stays 0 — chaos failures are data, not bench errors. Shared
// CLI flags in core/sweep.hpp.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "core/sweep.hpp"

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

  metrics::Table t({"cell", "ok", "failed", "timed out", "exits", "wake us"});
  for (const auto& cell : res.cells) {
    t.add_row({cell.key.label(), std::to_string(cell.exits_total.count()),
               std::to_string(cell.replicas_failed),
               std::to_string(cell.replicas_timed_out),
               metrics::format("%.0f", cell.exits_total.mean()),
               metrics::format("%.3f", cell.wakeup_latency_us.mean())});
  }
  std::string failures;
  for (const core::SweepRun* run : res.failed_runs()) {
    const core::RunFailure& f = *run->failure;
    failures += metrics::format(
        "failure run=%zu %s: %s %s%s%s [sim t=%lldns]%s%s\n", run->run_index,
        res.cells[run->cell].key.label().c_str(),
        core::RunFailure::kind_name(f.kind), f.expr.c_str(),
        f.message.empty() ? "" : " — ", f.message.c_str(),
        static_cast<long long>(f.sim_time_ns),
        run->bundle_path.empty() ? "" : " bundle=", run->bundle_path.c_str());
  }
  // Degraded cells are this bench's data: drop the report's status.
  (void)bench::report(
      cli, res,
      metrics::format("chaos scenario %s (%zu ok, %zu failed, %zu cells degraded)",
                      scenario.c_str(), res.ok_run_count(),
                      res.failed_runs().size(), res.degraded_cell_count()),
      {{"", t, failures}});
  return 0;
}
