// Replay bundles: everything needed to re-execute one failed sweep run.
//
// Because a sweep run is a pure function of (SweepConfig, run_index) —
// seeds and fault plans are derived, never drawn from the schedule — a
// failure reproduces from the config identity plus the index. A bundle is
// a plan header, the fault knobs and one failed run:
//
//   {"kind": "paratick-replay-bundle",
//    "plan": {"kind": "paratick-dispatch-plan", "bench": ..., "root_seed":
//             ..., "repeat": ..., "total_runs": ..., "cells": [...]},
//    "scenario": ..., "fault": {...},
//    "run": {"run_index": ..., "cell": ..., "replica": ..., "seed": ...,
//            "executed": ..., "ok": ..., "host_seconds": ...,
//            "failure": {...}}}
//
// so `bench_replay` can re-run the exact failing simulation to the same
// event and verify the error matches. No wall-clock value enters a
// bundle: a sweep at any -j writes the same bytes as a -j1 one. The
// plan's kind string and the run's "executed", "ok" and "host_seconds"
// keys are kept byte for byte so bundles written by earlier builds still
// load; replay reads none of the three run keys.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "fault/fault.hpp"

namespace paratick::core {

/// The producing sweep's identity: the bundle's run is read against it,
/// and a replay's grid must match it.
struct PlanInfo {
  std::string bench;
  std::uint64_t root_seed = 0;
  int repeat = 1;
  std::size_t total_runs = 0;       // cells.size() * repeat
  std::vector<SweepCellKey> cells;  // full grid, grid order
};

struct ReplayBundle {
  PlanInfo plan;         // the producing sweep's identity and grid
  std::string scenario;  // registered chaos scenario; "" = not replayable
                         // standalone (caller must supply the SweepConfig)
  fault::FaultConfig fault;
  /// The failed run: index, derived seed, failure record and, with
  /// --record-trace, the path of its event trace (core/record_replay).
  SweepRun run;
};

/// Serialize / write a bundle for a failed run of `cfg`. Returns the file
/// path: <dir>/<bench-or-sweep>/run<index>.json (directories are created).
[[nodiscard]] std::string to_json(const ReplayBundle& b);
[[nodiscard]] std::string write_replay_bundle(const SweepConfig& cfg,
                                              const SweepRun& run,
                                              const std::string& dir);

/// Parse / load a bundle. Throws sim::SimError on malformed documents
/// (a missing or non-numeric number names its key), on a plan whose
/// total_runs is not cells * repeat, on a run outside the bundle's plan
/// and on a run that did not fail; load includes the path in the error
/// message.
[[nodiscard]] ReplayBundle parse_replay_bundle(const std::string& json_text);
[[nodiscard]] ReplayBundle load_replay_bundle(const std::string& path);

/// Re-execute the bundle's run against an explicit sweep config. The
/// bundle's identity fields (root seed, repeat, faults)
/// override the config's, so the run is exactly the one that failed.
/// Throws sim::SimError naming the grid size or the first differing cell
/// when the config's grid no longer matches the bundle's plan, or when
/// the run's derived seed differs from the recorded one: the index would
/// name a different run.
[[nodiscard]] SweepRun replay_run(SweepConfig cfg, const ReplayBundle& b);

/// Re-execute using the registered chaos-scenario registry
/// (core/scenarios.hpp). PARATICK_CHECKs if the scenario is unknown.
[[nodiscard]] SweepRun replay_bundle(const ReplayBundle& b);

/// Did the replay reproduce the recorded failure? Compares failure kind,
/// expression and simulated timestamp; fills `detail` with a
/// human-readable verdict either way (pass nullptr to skip).
[[nodiscard]] bool reproduces(const ReplayBundle& b, const SweepRun& replayed,
                              std::string* detail);

}  // namespace paratick::core
