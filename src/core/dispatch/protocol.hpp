// Wire protocol between the sweep dispatcher and its forked workers.
//
// A worker streams newline-framed lines to the coordinator over a pipe:
//
//   {...}         one completed run: the run record of
//                 core/run_record.hpp (also a replay bundle's failed
//                 run). It must be the run the worker was assigned.
//   #hb           heartbeat from a worker-side timer thread — proves
//                 liveness while a long run is executing, so leases only
//                 expire on genuinely wedged or dead workers.
//
// Any other line breaks the protocol. The coordinator owns one control
// line per worker, and work flows only over it:
//
//   #run N        execute run index N, stream its record, then wait for
//                 the next line. A worker holds at most one assignment,
//                 so the coordinator always knows which run a dying
//                 worker was on. EOF means no more work: exit 0.
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
