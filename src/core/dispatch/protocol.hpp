// Wire protocol between the sweep dispatcher and its workers.
//
// A worker streams newline-framed lines to the coordinator (its stdout,
// or a pipe for forked workers):
//
//   #plan {...}   first line: the sweep identity + cell grid this worker
//                 derived from its own flags (one JSON object). The
//                 coordinator refuses workers whose plan disagrees with
//                 its own — catching skew between fleet hosts before any
//                 records are merged.
//   #run N        announcement: about to execute run index N. This is
//                 what lets the coordinator attribute an unclean death to
//                 exactly the in-flight run (retry it with a penalty) and
//                 re-enqueue the untouched tail penalty-free.
//   {...}         one completed run: the exact-round-trip record of
//                 core/sweep_shard.hpp (also a checkpoint's run entry).
//   #hb           heartbeat from a worker-side timer thread — proves
//                 liveness while a long run is executing, so leases only
//                 expire on genuinely wedged or dead workers.
//   #end          slice finished (complete or truncated); clean exit next.
//
// The coordinator owns one control line (worker stdin):
//
//   #limit N      work stealing: execute only the first N entries of the
//                 originally assigned slice, then stop. N only ever
//                 decreases. The race where the worker is already past N
//                 when the line lands is benign: both worker and thief
//                 execute the contested index, the records are
//                 bit-identical (runs are pure in (root_seed, index)),
//                 and the coordinator keeps the first one.
//
// Only '#'-prefixed tags and '{'-prefixed records are meaningful; other
// lines are ignored so transports may inject banners (ssh MOTDs must
// still be avoided — use ssh -T and a quiet shell).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace paratick::core::dispatch {

/// The sweep identity a coordinator and its workers must agree on before
/// any record is accepted: everything the merge layer validates, minus
/// the executed runs.
struct PlanInfo {
  std::string bench;
  std::uint64_t root_seed = 0;
  int repeat = 1;
  std::size_t total_runs = 0;
  std::vector<SweepCellKey> cells;  // full grid, grid order
};

/// Expand cfg's grid (SweepPlan::make) into its identity header.
[[nodiscard]] PlanInfo plan_info_for(const SweepConfig& cfg);

/// Single-line JSON (de)serialization of the identity header.
[[nodiscard]] std::string to_json(const PlanInfo& p);
[[nodiscard]] PlanInfo parse_plan_info(const std::string& text);

/// Do two headers describe the same sweep? Fills `why` (may be null)
/// with the first mismatching field.
[[nodiscard]] bool plans_match(const PlanInfo& a, const PlanInfo& b,
                               std::string* why);

/// Compact encoding of a run-index set: "0-5,9,12-14" — ascending,
/// inclusive ranges. decode PARATICK_CHECKs on malformed input and on any
/// index at or past `run_count`, the plan's run count.
[[nodiscard]] std::string encode_slice(const std::vector<std::size_t>& indices);
[[nodiscard]] std::vector<std::size_t> decode_slice(const std::string& text,
                                                    std::size_t run_count);

}  // namespace paratick::core::dispatch
