// Fault-tolerant sweep dispatcher: lease-based slice ownership, work
// stealing, retry with backoff, and graceful degradation.
//
// The coordinator owns the full run-index space of one sweep plan and
// hands contiguous slices to workers launched through a WorkerTransport.
// Supervision is a single-threaded poll() loop over the workers' protocol
// streams (core/dispatch/protocol.hpp):
//
//   lease       any protocol traffic (records, #run announcements, #hb
//               heartbeats) renews a worker's lease; a worker silent for
//               lease_sec (30 s) is presumed wedged, SIGKILLed, and its
//               unfinished work re-enqueued.
//   attribution an unclean death charges exactly the announced in-flight
//               run (retry with exponential backoff + deterministic
//               jitter); the untouched tail re-enqueues penalty-free at
//               the queue front.
//   stealing    when the queue is empty but slots are free, the idle slot
//               steals the back half of the busiest worker's remaining
//               slice (a #limit line truncates the victim). The victim
//               may already be past the limit when it lands — both sides
//               then execute the contested run, and since runs are pure
//               in (root_seed, run_index) the duplicate records are
//               identical; the coordinator keeps the first.
//   degradation a run whose attempts exceed --max-retries is recorded as
//               a kCrash failure naming the last worker death (signal,
//               exit status or lease expiry; identity reconstructed from
//               the plan, replay bundle synthesized via bundle_writer) and
//               its cell degrades — the sweep completes with exit 0.
//   checkpoint  completed records are periodically persisted as an atomic
//               partial snapshot; a restarted dispatcher resumes from it
//               and only re-executes the missing indices.
//
// Because every record round-trips exactly (%.17g) and merge order is
// run-index order through the same aggregate_sweep_runs() as local
// execution, a fully-completed dispatch produces CSV/JSON byte-identical
// to a single-host -jN sweep — whatever was killed along the way.
//
// The dispatcher is also the crash-replay path: replay_run() re-executes a
// kCrash bundle as a one-index dispatch (one forked worker, no retries),
// so the run is recorded and replayed through the same mechanism.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dispatch/transport.hpp"
#include "core/sweep.hpp"

namespace paratick::core::dispatch {

struct DispatchOptions {
  unsigned workers = 2;
  /// Extra attempts per run after the first; exceeding it degrades the
  /// run to a kCrash record instead of failing the sweep.
  std::size_t max_retries = 2;
  /// Lease: a worker with no protocol traffic for this long is presumed
  /// wedged and killed. Must be comfortably above the worker heartbeat.
  double lease_sec = 30.0;
  /// Base of the exponential retry backoff (doubles per failed attempt,
  /// with +0..50% deterministic jitter to de-synchronize a fleet).
  double retry_backoff_sec = 0.25;
  /// Crash-safe progress snapshot ("" = none): completed records are
  /// periodically written here as an atomic partial snapshot, and an
  /// existing matching snapshot is resumed from on startup.
  std::string checkpoint_path;
  /// Stamped into checkpoint snapshots.
  std::string bench_name;
  bool progress = false;
  /// Synthesize artifacts for a degraded run (write a replay bundle, set
  /// run.bundle_path). Workers write bundles for runs they complete; this
  /// covers runs no worker ever managed to finish.
  std::function<void(SweepRun&)> bundle_writer;
  /// Test hook: SIGKILL the worker that delivered the Nth record (once).
  std::size_t test_kill_after = 0;
};

class SweepDispatcher {
 public:
  struct Stats {
    std::size_t workers_launched = 0;
    std::size_t workers_died = 0;      // unclean exits (signal / rc != 0)
    std::size_t leases_expired = 0;
    std::size_t steals = 0;
    std::size_t stolen_indices = 0;
    std::size_t retries = 0;           // penalized re-enqueues
    std::size_t duplicate_records = 0; // steal-race double executions
    std::size_t runs_degraded = 0;     // retries exhausted
    std::size_t records_received = 0;
    std::size_t runs_resumed = 0;      // taken from a checkpoint snapshot
  };

  SweepDispatcher(std::unique_ptr<WorkerTransport> transport,
                  DispatchOptions opts);

  SweepDispatcher(const SweepDispatcher&) = delete;
  SweepDispatcher& operator=(const SweepDispatcher&) = delete;

  /// Execute the transport's plan to completion (one-shot): every run, or
  /// only `indices` when given — the other slots keep their identity but
  /// stay unexecuted, invisible to aggregation. Throws sim::SimError only
  /// on coordinator-level faults (transport broken, worker plan mismatch,
  /// an index outside the plan) — worker failures degrade, they don't
  /// throw.
  [[nodiscard]] SweepResult run(
      const std::optional<std::vector<std::size_t>>& indices = std::nullopt);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::unique_ptr<WorkerTransport> transport_;
  DispatchOptions opts_;
  Stats stats_;
  bool ran_ = false;
};

}  // namespace paratick::core::dispatch
