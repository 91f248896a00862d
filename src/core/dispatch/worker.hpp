// Worker side of the dispatch protocol: take run assignments from the
// coordinator one at a time, streaming the line protocol of
// core/dispatch/protocol.hpp.
//
// A worker is deliberately dumb: it owns no lease or scheduling logic. It
// runs each `#run N` it reads, streams the exact-round-trip record back,
// and keeps a heartbeat alive from a timer thread so the coordinator's
// lease never expires under a long-but-healthy run. Failed runs get their
// replay bundle written worker-side, as in a local sweep.
#pragma once

#include "core/sweep.hpp"

namespace paratick::core::dispatch {

/// Serve cfg's plan: read `#run N` assignments from `ctl_fd`, execute each
/// and stream the dispatch protocol to `out_fd`. Replay bundles for failed
/// runs go under cfg.failure_dir, as in a local sweep. Returns 0 on EOF
/// of `ctl_fd` (no more work), 1 if the output pipe died mid-stream.
/// Throws sim::SimError naming "#run" on a malformed or out-of-plan
/// assignment.
int run_worker(const SweepConfig& cfg, int ctl_fd, int out_fd);

}  // namespace paratick::core::dispatch
