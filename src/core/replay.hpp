// Replay bundles: everything needed to re-execute one failed sweep run.
//
// Because a sweep run is a pure function of (SweepConfig, run_index) —
// seeds and fault plans are derived, never drawn from the schedule — a
// failure reproduces from just the config identity plus the index. The
// bundle serializes that identity (scenario name, root seed, repeat,
// fault knobs) together with the observed failure, so `bench_replay`
// can re-run the exact failing simulation to the same event and verify
// the error matches bit-for-bit.
#pragma once

#include <string>

#include "core/sweep.hpp"
#include "fault/fault.hpp"

namespace paratick::core {

struct ReplayBundle {
  std::string bench;     // producing binary, e.g. "bench_chaos"
  std::string scenario;  // registered chaos scenario; "" = not replayable
                         // standalone (caller must supply the SweepConfig)
  std::uint64_t root_seed = 0;
  int repeat = 1;
  std::size_t run_index = 0;
  std::uint64_t seed = 0;  // derived run seed, for cross-checking
  std::string cell_label;  // human-readable cell identity
  bool watchdog = false;
  fault::FaultConfig fault;
  RunFailure failure;  // the failure observed by the original sweep
  /// Event trace of the failed run (--record-trace); "" = none recorded.
  /// bench_replay uses it to verify a reproduction event-by-event and to
  /// report the first divergent event (core/record_replay).
  std::string trace_path;
};

/// Serialize / write a bundle for a failed run of `cfg`. Returns the file
/// path: <dir>/<bench-or-sweep>-run<index>.json (directories are created).
[[nodiscard]] std::string to_json(const ReplayBundle& b);
[[nodiscard]] std::string write_replay_bundle(const SweepConfig& cfg,
                                              const SweepRun& run,
                                              const std::string& dir,
                                              const std::string& cell_label = "");

/// Parse / load a bundle. PARATICK_CHECKs (throws sim::SimError) on
/// malformed documents; load includes the path in the error message.
[[nodiscard]] ReplayBundle parse_replay_bundle(const std::string& json_text);
[[nodiscard]] ReplayBundle load_replay_bundle(const std::string& path);

/// Re-execute the bundle's run against an explicit sweep config. The
/// bundle's identity fields (root seed, repeat, faults, watchdog)
/// override the config's, so the run is exactly the one that failed.
/// kCrash bundles run as a one-index dispatch on a forked worker
/// (core/dispatch); every other kind runs in-process.
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
