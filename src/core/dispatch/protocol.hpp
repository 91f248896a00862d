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
//   {...}         one completed run: the exact-round-trip record of
//                 core/sweep_shard.hpp (also a checkpoint's run entry).
//                 It must be the run the worker was assigned.
//   #hb           heartbeat from a worker-side timer thread — proves
//                 liveness while a long run is executing, so leases only
//                 expire on genuinely wedged or dead workers.
//
// The coordinator owns one control line (worker stdin), and work flows
// only over it:
//
//   #run N        execute run index N, stream its record, then wait for
//                 the next line. A worker holds at most one assignment,
//                 so the coordinator always knows which run a dying
//                 worker was on. EOF means no more work: exit 0.
//
// Only '#'-prefixed tags and '{'-prefixed records are meaningful on the
// worker stream; other lines are ignored so transports may inject banners
// (ssh MOTDs must still be avoided — use ssh -T and a quiet shell).
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

/// The coordinator's assignment line for run `idx` (no newline).
[[nodiscard]] std::string assignment_line(std::size_t idx);

/// Parse one assignment line. Throws sim::SimError naming "#run" when the
/// line is not "#run N" with N a decimal index below `run_count`, the
/// plan's run count.
[[nodiscard]] std::size_t parse_assignment(const std::string& line,
                                           std::size_t run_count);

}  // namespace paratick::core::dispatch
