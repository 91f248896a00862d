// Wire protocol between the sweep dispatcher and its workers.
//
// A worker streams newline-framed lines to the coordinator (its stdout,
// or a pipe for forked workers):
//
//   #plan {...}   first line: the sweep identity + cell grid this worker
//                 derived from its own flags, the plan header of
//                 core/run_record.hpp. The coordinator refuses workers
//                 whose plan disagrees with its own — catching skew
//                 between fleet hosts before any records are merged.
//   {...}         one completed run: the run record of
//                 core/run_record.hpp (also a checkpoint's run entry and
//                 a replay bundle's failed run). It must be the run the
//                 worker was assigned.
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

#include <cstddef>
#include <string>

namespace paratick::core::dispatch {

/// The coordinator's assignment line for run `idx` (no newline).
[[nodiscard]] std::string assignment_line(std::size_t idx);

/// Parse one assignment line. Throws sim::SimError naming "#run" when the
/// line is not "#run N" with N a decimal index below `run_count`, the
/// plan's run count.
[[nodiscard]] std::size_t parse_assignment(const std::string& line,
                                           std::size_t run_count);

}  // namespace paratick::core::dispatch
