// The sweep schema: every JSON document a sweep writes for another
// process or a later run is a plan header plus run records.
//
//   plan     the sweep identity (bench, root seed, repeat, run count and
//            the cell grid): the "plan" of a replay bundle.
//   record   one executed run, exact round trip: identity, failure
//            record and full RunResult (accumulator states with %.17g
//            doubles, histogram buckets, cycle ledgers): a replay
//            bundle's failed run.
//
// A record is only ever read against a plan: the parser rejects a run
// whose index or cell lies outside it. The plan's kind string
// ("paratick-dispatch-plan") and the record's "executed" key are kept
// byte for byte so bundles written by earlier builds still load.
//
// The replay bundle (core/replay.hpp) adds the fault knobs to a plan and
// one failed run's record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/sweep.hpp"

namespace paratick::core {

/// The sweep identity a record is read against and a bundle and its
/// replayer must agree on.
struct PlanInfo {
  std::string bench;
  std::uint64_t root_seed = 0;
  int repeat = 1;
  std::size_t total_runs = 0;       // cells.size() * repeat
  std::vector<SweepCellKey> cells;  // full grid, grid order
};

/// Expand cfg's grid (SweepPlan::make) into its identity header.
[[nodiscard]] PlanInfo plan_info_for(const SweepConfig& cfg);

/// Do two headers describe the same sweep? Fills `why` (may be null)
/// with the first mismatching field.
[[nodiscard]] bool plans_match(const PlanInfo& a, const PlanInfo& b,
                               std::string* why);

/// Single-line JSON of the identity header. The parser throws
/// sim::SimError on a malformed header, including one whose run count is
/// not cells * repeat.
[[nodiscard]] std::string to_json(const PlanInfo& p);
[[nodiscard]] PlanInfo parse_plan_info(const json::Value& doc);

/// Single-line JSON of one executed run. The parser throws sim::SimError
/// on a malformed record and on one whose run index or cell lies outside
/// `plan`.
[[nodiscard]] std::string run_record_to_json(const SweepRun& run);
[[nodiscard]] SweepRun parse_run_record(const json::Value& doc,
                                        const PlanInfo& plan);

}  // namespace paratick::core
