// Replay failure bundles written by a chaos sweep (core/replay.hpp):
// rebuild the sweep config from each bundle's scenario, re-execute the
// recorded run index, and verify the failure reproduces — same kind,
// same failing expression, same simulated timestamp. Every kind runs
// in-process, the way the sweep ran it.
//
// When the producing sweep ran with --record-trace, the bundle carries
// an event trace of the failed run and the replay is checked against it
// event-by-event (core/record_replay): a reproduction must match every
// recorded (time, event, state digest) triple, not just the final error.
// The first event that stops matching is printed as FIRST DIVERGENCE.
//
// Usage: bench_replay <bundle.json | failure-dir>... [flags]; --help
// lists them. --fault-<knob> X overrides one fault rate before replaying —
// the canonical way to force a divergence on purpose and see where
// behavior first changed.
//
// A directory argument is scanned recursively for *.json bundles
// (<dir>/<bench>[/<scenario>]/run<idx>.json). Bundles written before the plan-header
// format (core/replay.hpp) are refused with an error naming their path.
// So is a bundle whose plan no longer matches its scenario's grid, or
// whose recorded seed differs from the one derived for its run: its
// index would re-run a different simulation.
//
// Exit codes: 0 every failure reproduced exactly (and every checked
// trace matched), 1 at least one replay diverged, 2 bad or stale bundle /
// unregistered scenario / nothing to replay.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/record_replay/record_replay.hpp"
#include "core/record_replay/trace.hpp"
#include "core/replay.hpp"
#include "core/scenarios.hpp"
#include "sim/error.hpp"

using namespace paratick;
namespace rr = paratick::core::record_replay;

namespace {

struct Options {
  bool quiet = false;
  std::string trace_override;
  std::vector<std::pair<std::string, double>> fault_overrides;
  std::vector<std::string> paths;
};

// Collect bundle files from an explicit file or a failure directory.
// Directories are walked recursively (covers the per-bench and
// per-scenario subdirectories), in sorted order for deterministic output.
std::vector<std::string> collect_bundles(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  if (!fs::is_directory(path)) {
    out.push_back(path);
    return out;
  }
  for (const auto& entry : fs::recursive_directory_iterator(path)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The trace path recorded in a bundle is relative to the sweep's CWD;
// when that does not resolve, fall back to the trace's canonical spot
// next to the bundle itself (<bundle_dir>/run<idx>.trace).
std::string resolve_trace_path(const std::string& bundle_path,
                               const core::ReplayBundle& bundle) {
  namespace fs = std::filesystem;
  const std::string& recorded = bundle.run.trace_path;
  if (fs::exists(recorded)) return recorded;
  const fs::path sibling =
      fs::path(bundle_path).parent_path() /
      ("run" + std::to_string(bundle.run.run_index) + ".trace");
  if (fs::exists(sibling)) return sibling.string();
  return recorded;  // let the loader report the original path
}

// A SimError's own message (no CHECK site); what() for anything else.
std::string error_text(const std::exception& e) {
  const auto* sim_error = dynamic_cast<const sim::SimError*>(&e);
  return sim_error != nullptr ? sim_error->msg() : e.what();
}

// 0 reproduced, 1 diverged, 2 machinery error.
int replay_one(const std::string& path, const Options& opt) {
  core::ReplayBundle bundle;
  try {
    bundle = core::load_replay_bundle(path);
  } catch (const sim::SimError& e) {
    std::fprintf(stderr, "bench_replay: cannot load %s: %s\n", path.c_str(),
                 e.msg().c_str());
    return 2;
  }
  if (!core::is_chaos_scenario(bundle.scenario)) {
    std::fprintf(stderr,
                 "bench_replay: bundle %s scenario \"%s\" is not a registered "
                 "chaos scenario; replay it programmatically with "
                 "core::replay_run() and the producing sweep's config\n",
                 path.c_str(), bundle.scenario.c_str());
    return 2;
  }
  // Fault overrides mutate the bundle's own fault identity (replay_run
  // re-applies it over the scenario config): the replay then legitimately
  // diverges wherever behavior first changed.
  for (const auto& [knob, value] : opt.fault_overrides) {
    core::set_fault_knob(bundle.fault, knob, value);
  }

  if (!opt.quiet) {
    const core::RunFailure& f = *bundle.run.failure;
    std::printf("replaying %s: scenario=%s cell=%s run=%zu seed=%016llx\n"
                "recorded: %s \"%s\" at sim t=%lldns (event #%llu)\n",
                path.c_str(), bundle.scenario.c_str(),
                bundle.plan.cells[bundle.run.cell].label().c_str(),
                bundle.run.run_index,
                static_cast<unsigned long long>(bundle.run.seed),
                core::RunFailure::kind_name(f.kind), f.expr.c_str(),
                static_cast<long long>(f.sim_time_ns),
                static_cast<unsigned long long>(f.events_executed));
  }

  const std::string trace_path =
      !opt.trace_override.empty() ? opt.trace_override
                                  : bundle.run.trace_path.empty()
                                        ? std::string{}
                                        : resolve_trace_path(path, bundle);

  // No trace (the sweep did not record one): plain disposition replay.
  if (trace_path.empty()) {
    core::SweepRun replayed;
    try {
      replayed = core::replay_bundle(bundle);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_replay: cannot replay %s: %s\n",
                   path.c_str(), error_text(e).c_str());
      return 2;
    }
    std::string detail;
    const bool ok = core::reproduces(bundle, replayed, &detail);
    std::printf("%s: %s: %s\n", ok ? "REPRODUCED" : "DIVERGED", path.c_str(),
                detail.c_str());
    return ok ? 0 : 1;
  }

  rr::EventTrace trace;
  try {
    trace = rr::load_trace_file(trace_path);
  } catch (const sim::SimError& e) {
    std::fprintf(stderr, "bench_replay: cannot load trace %s: %s\n",
                 trace_path.c_str(), e.msg().c_str());
    return 2;
  }

  try {
    const rr::ReplayCheckResult checked = rr::check_replay(
        core::build_chaos_scenario(bundle.scenario), bundle, trace);
    if (checked.divergence) {
      const rr::Divergence& d = *checked.divergence;
      std::printf("DIVERGED: %s: replay stopped matching its trace\n"
                  "FIRST DIVERGENCE at event #%llu: %s\n",
                  path.c_str(), static_cast<unsigned long long>(d.index),
                  d.describe().c_str());
      return 1;
    }
    std::string detail;
    const bool ok = core::reproduces(bundle, checked.run, &detail);
    std::printf("%s: %s: %s (trace verified: %llu events match)\n",
                ok ? "REPRODUCED" : "DIVERGED", path.c_str(), detail.c_str(),
                static_cast<unsigned long long>(checked.events_checked));
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_replay: cannot replay %s: %s\n", path.c_str(),
                 error_text(e).c_str());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<core::CliFlag> flags = {
      core::switch_flag("--quiet", "suppress per-bundle detail", opt.quiet),
      core::text_flag("--trace", "P",
                      "use trace file P instead of the bundle's (one bundle)",
                      opt.trace_override),
  };
  for (core::CliFlag& f : core::fault_knob_flags(opt.fault_overrides)) {
    flags.push_back(std::move(f));
  }
  opt.paths = core::parse_cli(argc, argv, flags,
                              {{"bundle.json|failure-dir", {}, true, true}});

  std::vector<std::string> bundles;
  for (const std::string& arg : opt.paths) {
    const std::vector<std::string> found = collect_bundles(arg);
    if (found.empty()) {
      std::fprintf(stderr, "bench_replay: no bundles under %s\n", arg.c_str());
      return 2;
    }
    bundles.insert(bundles.end(), found.begin(), found.end());
  }
  if (!opt.trace_override.empty() && bundles.size() != 1) {
    std::fprintf(stderr,
                 "--trace overrides the trace of exactly one bundle; got %zu\n",
                 bundles.size());
    return 2;
  }

  int worst = 0;
  std::size_t reproduced = 0;
  for (const std::string& path : bundles) {
    const int rc = replay_one(path, opt);
    if (rc == 0) ++reproduced;
    worst = std::max(worst, rc);
  }
  if (bundles.size() > 1) {
    std::printf("replayed %zu bundles: %zu reproduced, %zu diverged/failed\n",
                bundles.size(), reproduced, bundles.size() - reproduced);
  }
  return worst;
}
