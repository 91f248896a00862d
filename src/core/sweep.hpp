// Deterministic sweep pipeline: plan -> execute -> merge.
//
// Every table and figure of the paper is an A/B sweep over tick modes,
// tick frequencies, vCPU counts, overcommit ratios and seed replicas.
// The pipeline is split into three decoupled layers:
//
//   1. planning (core/sweep_plan.hpp): pure expansion of the grid into
//      (cell, run_index, seed) work items;
//   2. execution: SweepRunner runs the plan on an in-process thread pool
//      (-j N), the one way runs fan out; a run that throws becomes a
//      failure record (try/catch isolation, no process boundary);
//   3. merge: fold the executed runs, in run-index order, into per-cell
//      summaries via Accumulator::merge.
//
// Determinism guarantee: each run's seed is a pure function of
// (root_seed, run_index) — derived with a splitmix64 jump, never from the
// schedule — and aggregation happens in run-index order after all runs
// finish. Results are therefore bit-identical for any `-j` value.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "metrics/run_metrics.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace paratick::core {

/// A named point on the workload axis of a sweep: mutates the base
/// ExperimentSpec (install a different workload, resize the machine, ...).
struct SweepVariant {
  std::string name;
  std::function<void(ExperimentSpec&)> apply;  // null = base spec as-is
};

/// The sweep grid. Empty numeric axes inherit the base spec's value, so a
/// config with only `modes` set is a plain A/B comparison. The full grid is
/// variants x modes x tick_freqs_hz x vcpu_counts x overcommit x repeat.
struct SweepConfig {
  ExperimentSpec base;
  std::vector<SweepVariant> variants;    // default: one unnamed variant
  std::vector<guest::TickMode> modes = {guest::TickMode::kDynticksIdle,
                                        guest::TickMode::kParatick};
  std::vector<double> tick_freqs_hz;     // empty: inherit base
  std::vector<int> vcpu_counts;          // empty: inherit base (machine untouched)
  /// vCPU:pCPU ratios; the machine is resized to ceil(total_vcpus / ratio)
  /// single-socket pCPUs and the host switches to shared scheduling when
  /// ratio > 1. Empty: inherit the base machine.
  std::vector<double> overcommit;
  int repeat = 1;                        // seed replicas per cell
  std::uint64_t root_seed = 1;
  unsigned threads = 0;                  // 0 = hardware_concurrency
  bool progress = false;                 // per-run timing lines on stderr

  /// Chaos injection: applied to every run when any rate is nonzero. The
  /// per-run fault plan seed is derived purely from (root_seed, run_index),
  /// so chaos sweeps stay bit-identical at any -j.
  fault::FaultConfig fault;
  /// Directory for replay bundles of failed runs; empty = don't write.
  /// Bundles and traces go to failure_artifact_stem() (core/sweep_plan).
  std::string failure_dir;
  /// Per-run wall-clock timeout in seconds; > 0 makes hung runs fail with
  /// kTimeout. Wall-clock dependent, so timed-out runs are not replayable
  /// to the same event.
  double run_timeout_sec = 0.0;
  /// Identity stamped into replay bundles so bench_replay can rebuild the
  /// sweep: the bench name and (for registered chaos scenarios) the
  /// scenario name. See core/scenarios.hpp.
  std::string bench_name;
  std::string scenario;

  /// Record a full event trace of every run (core/record_replay): one
  /// compact record per executed engine event. Traces of failed runs are
  /// written next to their replay bundles as
  /// <failure_dir>/<bench>[/<scenario>]/run<idx>.trace and referenced from
  /// the bundle, so bench_replay can verify a reproduction event-by-event
  /// and report the first divergent event. Recording is observational —
  /// results and exports stay byte-identical to an unrecorded sweep.
  bool record_trace = false;
  /// Attach an external engine observer to a run (replay checking).
  /// Single-run use only (execute_run): SweepRunner::run() refuses it,
  /// since the thread pool would share it across concurrent engines. It
  /// cannot be combined with record_trace (the plan refuses both).
  sim::EventObserver* observer = nullptr;
};

/// Identity of one grid cell (everything except the replica axis).
struct SweepCellKey {
  std::string variant;
  guest::TickMode mode = guest::TickMode::kDynticksIdle;
  double tick_freq_hz = 0.0;
  int vcpus = 0;
  double overcommit = 0.0;

  [[nodiscard]] std::string label() const;

  bool operator==(const SweepCellKey&) const = default;
};

/// Why a run produced no result (crash-isolated failure record).
struct RunFailure {
  enum class Kind : std::uint8_t {
    kCheck,      // PARATICK_CHECK invariant failed (SimError)
    kWatchdog,   // watchdog invariant breach (SimError)
    kTimeout,    // per-run wall-clock budget exceeded (SimError)
    kException,  // any other std::exception
    kDivergence, // a replayed run stopped matching its recorded trace
  };
  Kind kind = Kind::kException;
  std::string expr;     // failing expression / watchdog check name
  std::string file;
  int line = 0;
  std::string message;
  std::int64_t sim_time_ns = -1;  // -1 = thrown outside engine context
  std::uint64_t events_executed = 0;

  [[nodiscard]] static const char* kind_name(Kind k);
  /// Inverse of kind_name; throws sim::SimError naming `name` on anything
  /// else.
  [[nodiscard]] static Kind kind_from_name(const std::string& name);

  bool operator==(const RunFailure&) const = default;
};

/// One simulation run (cell x replica).
struct SweepRun {
  std::size_t cell = 0;  // index into SweepResult::cells
  std::size_t run_index = 0;
  int replica = 0;
  std::uint64_t seed = 0;
  /// Set once the run has executed. Every run of a SweepResult has; the
  /// flag is kept because perfbench's harness reads it, and a replay
  /// bundle keeps its "executed" key so older bundles still load.
  bool executed = false;
  bool ok = false;
  metrics::RunResult result;             // valid only when executed && ok
  std::optional<RunFailure> failure;     // set when executed && !ok
  std::string bundle_path;               // replay bundle, when one was written
  std::string trace_path;                // event trace, when one was written
  double host_seconds = 0.0;  // wall-clock cost of this run
};

/// Replica-aggregated view of one cell, filled only by SweepRunner::run's
/// merge step — the one place runs become numbers. Scalar
/// metrics get one Accumulator sample per surviving run; per-VM
/// distributions are merged across surviving replicas and VMs with
/// Accumulator::merge. A failed run adds nothing but a degradation count.
struct SweepCellSummary {
  SweepCellKey key;
  sim::Accumulator exits_total;
  sim::Accumulator exits_timer;
  sim::Accumulator busy_cycles;
  sim::Accumulator exec_time_ms;  // only runs whose workload completed
  sim::Accumulator wakeup_latency_us;
  // Engine self-profile, deterministic counters only (see EngineProfile):
  // exported to the JSON snapshot so regressions in the DES hot path
  // (a capture spilling to the heap, queue occupancy blow-ups) gate in CI.
  sim::Accumulator events_executed;
  sim::Accumulator cb_spills;
  sim::Accumulator cb_spill_bytes;
  sim::Accumulator slot_high_water;
  sim::Accumulator compactions;
  // Parallel-engine round counters (metrics::RunResult::par_*), all-zero
  // for single-engine scenarios. to_json() exports them only for cells
  // that actually ran the partitioned engine, so single-engine sweep
  // snapshots (and their committed bench baselines) are byte-for-byte
  // unchanged.
  sim::Accumulator par_windows;
  sim::Accumulator par_windows_skipped;
  /// Hypervisor-side steal time summed over a run's VMs, in milliseconds
  /// (runnable-but-not-running plus injected vmentry steal bursts).
  sim::Accumulator steal_ms;
  /// Guest steal-estimator error vs hv ground truth, in milliseconds
  /// (estimate - truth, summed over the run's estimator-enabled VMs).
  /// Empty unless the scenario arms the estimator (GuestConfig::steal).
  sim::Accumulator steal_est_err_ms;
  /// Wake-to-run latency distribution merged over surviving replicas and
  /// VMs — the tail the bench_diff KS gate compares.
  sim::LogHistogram wake_hist_us;
  // Drill-down for the ablation tables. Fixed-size, and printed by no
  // export (to_csv, to_json), so adding one changes no committed file.
  std::array<sim::Accumulator, hw::kExitCauseCount> exits_by_cause;
  std::array<sim::Accumulator, hw::kCycleCategoryCount> cycles;
  /// Per run, summed over the run's VMs: ticks handled, paratick virtual
  /// ticks, and wake-latency samples.
  sim::Accumulator ticks;
  sim::Accumulator virtual_ticks;
  sim::Accumulator wakes;
  /// Intervals between consecutive ticks, merged over replicas and VMs.
  sim::Accumulator tick_intervals_us;
  metrics::RunResult first;  // first surviving replica, for drill-down
  /// Crash isolation: replicas that failed / timed out (subset of
  /// failed). Every aggregate above covers survivors only; a sweep bench
  /// names each degraded cell and exits 1 (bench/bench_common.hpp).
  std::uint64_t replicas_failed = 0;
  std::uint64_t replicas_timed_out = 0;

  [[nodiscard]] bool degraded() const { return replicas_failed > 0; }
};

struct SweepResult {
  std::vector<SweepCellSummary> cells;  // grid order (deterministic)
  std::vector<SweepRun> runs;           // run-index order (deterministic)
  double wall_seconds = 0.0;
  unsigned threads_used = 1;

  /// Runs whose `executed` flag is set: all of them. perfbench's harness
  /// counts runs through this.
  [[nodiscard]] std::size_t executed_run_count() const;

  /// First cell matching variant + mode (for single-freq/vcpu sweeps).
  [[nodiscard]] const SweepCellSummary* find(const std::string& variant,
                                             guest::TickMode mode) const;

  /// Runs that failed, run-index order.
  [[nodiscard]] std::vector<const SweepRun*> failed_runs() const;
  [[nodiscard]] std::size_t ok_run_count() const;
  /// Cells with at least one failed replica.
  [[nodiscard]] std::size_t degraded_cell_count() const;

  /// Paper-style comparison between two cells' replica means.
  [[nodiscard]] static metrics::Comparison compare_cells(
      const SweepCellSummary& baseline, const SweepCellSummary& treatment);
  [[nodiscard]] metrics::Comparison compare(const std::string& variant,
                                            guest::TickMode baseline,
                                            guest::TickMode treatment) const;

  /// One row per cell: key columns + mean/stddev of each metric. Both
  /// exports are pure functions of the cells, so sweeps at any -j produce
  /// byte-identical files.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig cfg);

  /// Plan the grid, execute every run on the in-process thread pool
  /// (cfg.threads workers), and aggregate. Reusable.
  [[nodiscard]] SweepResult run() const;

  /// Execute exactly one run of the grid by index — the replay primitive:
  /// seeds, fault plan and cell spec are all pure in (config, run_index),
  /// so this reproduces what the full sweep did for that index.
  [[nodiscard]] SweepRun execute_run(std::size_t run_index) const;

 private:
  SweepConfig cfg_;
};

/// Shared CLI for the sweep-driven bench/example binaries: threads,
/// replicas, seed, exports and chaos flags, listed with one help
/// line each by `<binary> --help`. -j N sizes the thread pool.
struct SweepCli {
  unsigned threads = 0;
  int repeat = 1;
  std::optional<std::uint64_t> root_seed;
  bool csv = false;
  bool progress = true;
  std::string sweep_csv;
  std::string sweep_json;
  bool profile = false;
  bool chaos = false;
  std::string failure_dir;
  bool record_trace = false;
  double run_timeout_sec = 0.0;
  /// (--fault-<knob>, value) pairs in CLI order; applied over --chaos
  /// defaults so individual rates can be overridden.
  std::vector<std::pair<std::string, double>> fault_overrides;
  std::vector<std::string> positional;

  /// Parse the shared flags plus the binary's own `extra` flags and
  /// positional `slots` (core/cli_parse.hpp: usage errors exit 2,
  /// --help exits 0).
  [[nodiscard]] static SweepCli parse(int argc, char** argv,
                                      std::vector<CliFlag> extra = {},
                                      const std::vector<CliSlot>& slots = {});

  /// Copy the flags onto a config (root_seed only if given on the CLI).
  void apply(SweepConfig& cfg) const;

  /// The one-call driver entry point: plan + execute cfg on the local
  /// thread pool. The returned result feeds the bench's normal table
  /// rendering and exports.
  [[nodiscard]] SweepResult run_sweep(SweepConfig cfg) const;

  /// Honor --sweep-csv/--sweep-json (and --profile) if present.
  void export_results(const SweepResult& result) const;
};

}  // namespace paratick::core
