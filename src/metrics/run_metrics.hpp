// Result collection and A/B comparison for simulation runs.
//
// Mirrors the paper's three metrics (§6): VM exits, system throughput
// (CPU cycles consumed), and application execution time.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "guest/tick_policy.hpp"
#include "sim/stats.hpp"
#include "hw/cycle_ledger.hpp"
#include "hw/vmx.hpp"
#include "sim/types.hpp"

namespace paratick::metrics {

struct VmResult {
  std::uint64_t exits_total = 0;
  std::uint64_t exits_timer_related = 0;
  std::array<std::uint64_t, hw::kExitCauseCount> exits_by_cause{};
  std::optional<sim::SimTime> completion_time;  // workload execution time
  guest::TickPolicy::Stats policy;
  /// Intervals between consecutive ticks handled, merged over the VM's
  /// CPUs — virtual-tick delivery jitter under paratick.
  sim::Accumulator tick_intervals_us;
  std::uint64_t task_blocks = 0;
  std::uint64_t task_wakes = 0;
  sim::Accumulator wakeup_latency_us;
  sim::LogHistogram wakeup_latency_hist_us;
  std::uint64_t io_errors = 0;  // injected device errors seen by the guest
  /// Hypervisor-side steal ground truth: time the VM's vCPUs spent
  /// runnable-but-descheduled plus injected entry steal bursts.
  sim::SimTime steal_time;
  /// Guest-side platform-agnostic steal estimate (engaged only when the
  /// guest kernel runs the estimator); judged against steal_time.
  std::optional<sim::SimTime> steal_estimate;

  bool operator==(const VmResult&) const = default;
};

struct RunResult {
  sim::SimTime wall;                 // simulated time covered by the run
  hw::CycleLedger cycles;            // combined over all physical CPUs
  std::uint64_t exits_total = 0;
  std::uint64_t exits_timer_related = 0;
  std::array<std::uint64_t, hw::kExitCauseCount> exits_by_cause{};
  std::vector<VmResult> vms;
  std::uint64_t events_executed = 0;
  fault::FaultStats faults;  // all-zero when no injector was attached

  // Engine hot-path self-profile (sim::EngineProfile). Everything here is
  // a pure function of the workload — bit-identical across -j values,
  // backends and machines — except engine_wall_ns, which is host
  // wall-clock and must stay out of deterministic exports.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t callback_spills = 0;
  std::uint64_t callback_spill_bytes = 0;
  std::uint64_t slot_high_water = 0;
  std::uint64_t queue_compactions = 0;
  std::uint64_t engine_wall_ns = 0;

  // Parallel-engine round counters (sim::ParallelProfile), zero for
  // single-engine runs.
  std::uint64_t par_windows = 0;
  std::uint64_t par_windows_skipped = 0;
  // Always 0, and in no export: kept only because the benchmark harness
  // (perfbench/) names them. The next change that owns perfbench deletes
  // them.
  std::uint64_t par_barriers_elided = 0;
  std::uint64_t par_horizon_max_ns = 0;

  [[nodiscard]] sim::Cycles busy_cycles() const { return cycles.busy_total(); }
  [[nodiscard]] std::optional<sim::SimTime> completion_time() const;

  /// Exit rate over the run, 1/s.
  [[nodiscard]] double exits_per_second() const;

  bool operator==(const RunResult&) const = default;
};

/// Relative improvement of `treatment` over `baseline`, using the
/// paper's sign conventions: exits/execution time negative = fewer/faster,
/// throughput positive = more work per cycle.
struct Comparison {
  double exit_delta_pct = 0.0;        // (treat/base - 1) * 100, negative good
  double timer_exit_delta_pct = 0.0;
  double throughput_gain_pct = 0.0;   // (base_cycles/treat_cycles - 1) * 100
  double exec_time_delta_pct = 0.0;   // (treat/base - 1) * 100, negative good
};

[[nodiscard]] Comparison compare(const RunResult& baseline, const RunResult& treatment);

/// Average a set of comparisons (paper Tables 2-4 aggregate rows).
[[nodiscard]] Comparison average(const std::vector<Comparison>& cs);

[[nodiscard]] std::string describe(const Comparison& c);

}  // namespace paratick::metrics
