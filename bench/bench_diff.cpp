// Bench trajectory regression gate: compare two --sweep-json snapshots
// (e.g. the committed results/history/<bench>/baseline.json and a fresh
// run) and exit nonzero when any per-cell metric mean shifted beyond a
// stddev-aware threshold. Wired into CI; see EXPERIMENTS.md ("Refreshing
// the bench baseline").
//
// Usage: bench_diff <baseline.json> <current.json> [flags]; --help
// lists the thresholds (--z, --rel-min: finite and >= 0), --metric and
// --quiet.
//
// Exit codes: 0 clean, 1 regression (a shifted metric, grid drift, a lost
// metric, or a current cell with failed replicas), 2 usage, a --metric
// the baseline lacks, or unreadable/corrupt input (with a hint to
// regenerate the baseline — see EXPERIMENTS.md).
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/history.hpp"
#include "sim/error.hpp"

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
       {"--metric", "M", "compare only metric M (repeatable; wake_us_hist = KS)",
        [&cfg](const std::string& v) { cfg.metrics.push_back(v); }},
       core::switch_flag("--quiet", "findings only, no summary on success", quiet)},
      {{"baseline.json", {}, true}, {"current.json", {}, true}});
  const char* baseline_path = paths[0].c_str();
  const char* current_path = paths[1].c_str();

  // A missing or corrupt snapshot is an infrastructure problem, not a
  // regression: report what is wrong and how to fix it, and exit 2 so CI
  // can distinguish the two cases. The errors name the path.
  core::Snapshot baseline, current;
  try {
    baseline = core::load_snapshot(baseline_path);
  } catch (const sim::SimError& e) {
    std::fprintf(stderr,
                 "bench_diff: bad baseline snapshot — %s\n"
                 "bench_diff: regenerate it by running the bench with "
                 "--repeat N --sweep-json results/history/<bench>/baseline.json "
                 "and committing it (see EXPERIMENTS.md, "
                 "\"Refreshing the bench baseline\")\n",
                 e.msg().c_str());
    return 2;
  }
  try {
    current = core::load_snapshot(current_path);
  } catch (const sim::SimError& e) {
    std::fprintf(stderr,
                 "bench_diff: bad current snapshot — %s\n"
                 "bench_diff: re-run the bench with --sweep-json to produce "
                 "a fresh snapshot\n",
                 e.msg().c_str());
    return 2;
  }
  core::DiffResult diff;
  try {
    diff = core::diff_snapshots(baseline, current, cfg);
  } catch (const sim::SimError& e) {
    std::fprintf(stderr, "bench_diff: --metric: %s\n", e.msg().c_str());
    return 2;
  }

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
