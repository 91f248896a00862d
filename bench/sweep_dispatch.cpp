// Standalone dispatcher for distributed sweeps: drive any SweepCli bench
// binary through the fault-tolerant dispatcher (core/dispatch) without
// the bench opting in.
//
//   sweep_dispatch [dispatch/export flags] -- <bench command line...>
//
//   sweep_dispatch --workers 3 --sweep-csv table1.csv
//       -- ./bench/bench_table1 --repeat 4 --seed 7
//
//   sweep_dispatch --workers 4 --dispatch-cmd 'ssh -T node{cmd}' ...
//
// Everything left of `--` configures the dispatcher and the exports;
// everything right of it is the worker command, relaunched with the
// hidden --worker-plan / --worker-slice flags appended. The grid itself
// lives inside the bench binary (variants are C++ closures), so the plan
// is probed once via --worker-plan and every worker's #plan header is
// validated against it — fleet hosts running a skewed binary or flags are
// rejected before any record merges.
//
// Exit codes: 0 when the sweep completes (including with degraded cells —
// exhausting --max-retries is graceful degradation, not failure), 1 on
// coordinator faults (broken worker command, plan skew), 2 on bad usage
// (--help lists the flags).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/dispatch/dispatch.hpp"
#include "core/sweep.hpp"
#include "sim/error.hpp"

using namespace paratick;

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(
      argc, argv, {},
      {{.name = "command", .required = true, .repeats = true,
        .after_dashdash = true}});
  const std::vector<std::string>& worker_cmd = cli.positional;

  try {
    auto transport = std::make_unique<core::dispatch::CommandWorkerTransport>(
        worker_cmd, cli.dispatch_cmd);
    // Probe the plan up front so a broken command fails before any worker
    // fleet spins up.
    const core::dispatch::PlanInfo plan = transport->plan();

    core::dispatch::DispatchOptions opts;
    opts.workers = cli.dispatch_workers;
    opts.max_retries = cli.max_retries;
    opts.checkpoint_path =
        core::resolve_output_path(cli.output_dir, cli.checkpoint_path);
    opts.bench_name = plan.bench;
    opts.progress = cli.progress;
    opts.test_kill_after = cli.dispatch_test_kill;

    core::dispatch::SweepDispatcher dispatcher(std::move(transport), opts);
    const core::SweepResult res = dispatcher.run();
    const auto& st = dispatcher.stats();

    if (cli.csv) {
      std::fputs(res.to_csv().c_str(), stdout);
    } else {
      std::printf(
          "dispatched %zu runs over %zu workers in %.2fs: %zu ok, %zu "
          "failed, %zu cells degraded\n",
          res.runs.size(), st.workers_launched, res.wall_seconds,
          res.ok_run_count(), res.failed_runs().size(),
          res.degraded_cell_count());
      if (st.workers_died + st.leases_expired + st.steals + st.retries > 0) {
        std::printf(
            "  fault log: %zu worker deaths, %zu expired leases, %zu "
            "steals, %zu retries, %zu duplicate records, %zu runs "
            "degraded, %zu resumed from checkpoint\n",
            st.workers_died, st.leases_expired, st.steals, st.retries,
            st.duplicate_records, st.runs_degraded, st.runs_resumed);
      }
    }
    cli.export_results(
        res, plan.bench.empty() ? std::string{"sweep_dispatch"} : plan.bench);
  } catch (const sim::SimError& e) {
    std::fprintf(stderr, "sweep_dispatch: %s\n", e.msg().c_str());
    return 1;
  }
  return 0;
}
