// Worker side of the dispatch protocol: execute a slice of a sweep plan
// in order, streaming the line protocol of core/dispatch/protocol.hpp.
//
// A worker is deliberately dumb: it owns no retry, lease or steal logic.
// It announces each run before executing it, streams the exact-round-trip
// record after, keeps a heartbeat alive from a timer thread so the
// coordinator's lease never expires under a long-but-healthy run, and
// honors `#limit` truncations (work stealing) between runs. Failed runs
// get their replay bundle written worker-side — the worker has the full
// SweepConfig, the coordinator may not (command transports).
#pragma once

#include <cstddef>
#include <vector>

#include "core/sweep.hpp"

namespace paratick::core::dispatch {

/// Execute `indices` of cfg's plan in order, streaming the dispatch
/// protocol to `out_fd`. `ctl_fd` (pass -1 for none) carries the
/// coordinator's `#limit` lines; EOF on it means the coordinator is gone
/// and the worker stops taking new work. Replay bundles for failed runs
/// go under cfg.failure_dir, as in a local sweep. Returns 0 on a clean
/// (possibly truncated) finish, 1 if the output pipe died mid-stream.
int run_worker_slice(const SweepConfig& cfg,
                     const std::vector<std::size_t>& indices, int out_fd,
                     int ctl_fd);

}  // namespace paratick::core::dispatch
