// Run-record wire format and the dispatcher's partial-snapshot checkpoint.
//
// run_record_to_json() is an exact-round-trip serialization of one
// executed run — accumulator states with exact (%.17g) doubles, histogram
// buckets, cycle ledgers — and is the record line a dispatch worker
// streams back to the coordinator (core/dispatch/protocol.hpp). Because
// the coordinator folds parsed records through the same
// aggregate_sweep_runs() as local execution, a dispatched sweep's CSV/JSON
// is byte-identical to a single-process -jN run.
//
// A *partial snapshot* is a JSON document in the style of the history
// snapshots (core/history.hpp) carrying the sweep identity plus every
// completed run record. The dispatcher writes one atomically as its
// --checkpoint and resumes from it after a restart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace paratick::core {

/// The completed runs of one sweep plus the identity needed to validate a
/// resume (same grid, same seed universe).
struct PartialSnapshot {
  std::string bench;            // producing binary; may be empty
  std::uint64_t root_seed = 0;
  int repeat = 1;
  std::size_t total_runs = 0;   // of the FULL sweep, not the runs held
  std::vector<SweepCellKey> cells;  // full grid, for validation + labels
  std::vector<SweepRun> runs;       // completed runs, run-index order
};

/// Exact-round-trip serialization of one executed run (identity, failure
/// record, full RunResult): the dispatch protocol's record line and the
/// unit of a partial snapshot.
[[nodiscard]] std::string run_record_to_json(const SweepRun& run);
[[nodiscard]] SweepRun parse_run_record(const std::string& text);

[[nodiscard]] std::string to_json(const PartialSnapshot& p);
/// Write to `path` atomically and return the path written.
std::string write_partial_snapshot(const PartialSnapshot& p, const std::string& path);

/// Parse / load a partial snapshot. PARATICK_CHECKs (throws sim::SimError)
/// on malformed documents; load_partial_snapshot names the offending file.
/// Fields older writers emitted (a "shard" object, "backend") are ignored.
[[nodiscard]] PartialSnapshot parse_partial_snapshot(const std::string& text);
[[nodiscard]] PartialSnapshot load_partial_snapshot(const std::string& path);

}  // namespace paratick::core
