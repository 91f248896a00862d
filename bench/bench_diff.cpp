// Bench trajectory regression gate: compare two sweep history snapshots
// (SweepResult::to_json() documents, e.g. results/history/<bench>/<sha>.json)
// and exit nonzero when any per-cell metric mean shifted beyond a
// stddev-aware threshold. Wired into CI against the committed baseline;
// see EXPERIMENTS.md ("Refreshing the bench baseline").
//
// Usage: bench_diff <baseline.json> <current.json> [flags]; --help
// lists the thresholds (--z, --rel-min, --ks: finite and >= 0), --metric,
// --allow-grid-drift and --quiet.
//
// Exit codes: 0 clean, 1 regression, 2 usage or unreadable/corrupt input
// (with a hint to regenerate the baseline — see EXPERIMENTS.md).
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/history.hpp"

using namespace paratick;

int main(int argc, char** argv) {
  core::DiffConfig cfg;
  bool quiet = false;
  const std::vector<std::string> paths = core::parse_cli(
      argc, argv,
      {core::double_flag("--z", "T", "Welch z-score threshold (default 4.0)",
                         cfg.z_threshold),
       core::double_flag("--rel-min", "R", "relative-change floor (default 0.001)",
                         cfg.rel_min),
       core::double_flag("--ks", "D", "wake_us histogram KS threshold (default 0.15)",
                         cfg.ks_threshold),
       {"--metric", "M", "compare only metric M (repeatable; wake_us_hist = KS)",
        [&cfg](const std::string& v) { cfg.metrics.push_back(v); }},
       core::switch_flag("--allow-grid-drift", "added/removed cells don't fail",
                         cfg.grid_must_match, false),
       core::switch_flag("--quiet", "findings only, no summary on success", quiet)},
      {{"baseline.json", {}, true}, {"current.json", {}, true}});
  const char* baseline_path = paths[0].c_str();
  const char* current_path = paths[1].c_str();

  // A missing or corrupt snapshot is an infrastructure problem, not a
  // regression: report what is wrong and how to fix it, and exit 2 so CI
  // can distinguish the two cases.
  std::string error;
  const auto baseline = core::try_load_snapshot(baseline_path, &error);
  if (!baseline) {
    std::fprintf(stderr,
                 "bench_diff: bad baseline snapshot — %s\n"
                 "bench_diff: regenerate it by running the bench with "
                 "--repeat N --history-dir results/history and committing "
                 "the snapshot as baseline.json (see EXPERIMENTS.md, "
                 "\"Refreshing the bench baseline\")\n",
                 error.c_str());
    return 2;
  }
  const auto current = core::try_load_snapshot(current_path, &error);
  if (!current) {
    std::fprintf(stderr,
                 "bench_diff: bad current snapshot — %s\n"
                 "bench_diff: re-run the bench with --history-dir to produce "
                 "a fresh snapshot\n",
                 error.c_str());
    return 2;
  }
  const core::DiffResult diff = core::diff_snapshots(*baseline, *current, cfg);

  if (!diff.clean() || !quiet) {
    std::fputs(core::describe(diff, cfg).c_str(), diff.clean() ? stdout : stderr);
  }
  if (!diff.clean()) {
    std::fprintf(stderr, "bench_diff: REGRESSION — %s vs %s\n", current_path,
                 baseline_path);
    return 1;
  }
  return 0;
}
