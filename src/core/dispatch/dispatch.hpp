// Sweep dispatcher: forked workers, pull-based run assignment, leases and
// one-run crash attribution.
//
// The coordinator owns the full run-index space of one sweep plan and
// hands runs to workers launched through a WorkerTransport, one at a
// time: a worker gets its next `#run N` only after delivering the record
// of the last, so load balances at the finest grain. Supervision is a
// single-threaded poll() loop over the workers' protocol streams
// (core/dispatch/protocol.hpp):
//
//   lease       any protocol traffic (records, #hb heartbeats) renews a
//               worker's lease; a worker silent for lease_sec (30 s) is
//               presumed wedged and SIGKILLed.
//   attribution each worker holds at most one assignment, so a worker
//               that dies, breaks the protocol or loses its lease while
//               holding one costs exactly that run: it becomes a kCrash
//               record naming the cause (signal, exit status, protocol
//               error or lease expiry), bundle_writer writes its replay
//               bundle, and its cell degrades — the sweep still
//               completes. Runs are deterministic in their seed, so the
//               run is not retried: it would die again.
//
// Because every record round-trips exactly (%.17g) and merge order is
// run-index order through the same aggregate_sweep_runs() as local
// execution, a dispatch in which no worker dies holding a run produces
// CSV/JSON byte-identical to a single-process -jN sweep, however many
// idle workers were killed along the way.
//
// The dispatcher is also the crash-replay path: replay_run() re-executes a
// kCrash bundle as a one-index dispatch on one forked worker, so the run
// is recorded and replayed through the same mechanism.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "core/dispatch/transport.hpp"
#include "core/sweep.hpp"

namespace paratick::core::dispatch {

struct DispatchOptions {
  /// Worker processes; 0 = hardware_concurrency, as for -j.
  unsigned workers = 2;
  /// Lease: a worker with no protocol traffic for this long is presumed
  /// wedged and killed. Must be comfortably above the worker heartbeat.
  double lease_sec = 30.0;
  bool progress = false;
  /// Write the replay bundle of a run lost with its worker (set
  /// run.bundle_path). Workers write bundles for the failed runs they
  /// complete; this covers the runs they die on.
  std::function<void(SweepRun&)> bundle_writer;
  /// Test hook: SIGKILL the worker that delivered the Nth record (once).
  std::size_t test_kill_after = 0;
};

struct DispatchStats {
  std::size_t workers_launched = 0;
  std::size_t workers_died = 0;  // unclean exits (signal / rc != 0)
  std::size_t leases_expired = 0;
  std::size_t runs_crashed = 0;  // lost with the worker that held them
  std::size_t records_received = 0;
};

/// Execute the transport's plan to completion: every run, or only
/// `indices` when given — the other slots keep their identity but stay
/// unexecuted, invisible to aggregation. `stats` (may be null) receives
/// the supervision counters. Throws sim::SimError only on
/// coordinator-level faults (a worker that cannot be launched, an index
/// outside the plan) — worker failures degrade, they don't throw.
[[nodiscard]] SweepResult dispatch_sweep(
    WorkerTransport& transport, const DispatchOptions& opts,
    DispatchStats* stats = nullptr,
    const std::optional<std::vector<std::size_t>>& indices = std::nullopt);

}  // namespace paratick::core::dispatch
