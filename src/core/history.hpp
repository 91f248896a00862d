// Bench trajectory history: parse SweepResult::to_json() snapshots (a
// bench's --sweep-json export, bench_microbench's --json) and diff two of
// them to catch metric regressions across PRs (ROADMAP: "Bench JSON
// trajectory"). Each gated bench commits its snapshot as
// results/history/<bench>/baseline.json.
//
// The diff is stddev-aware: with --repeat replicas each cell carries a
// mean and stddev per metric, so a shift is flagged only when its z-score
// (Welch standard error from both snapshots) clears a threshold AND the
// relative change clears a floor — deterministic same-seed re-runs diff
// clean, injected mean shifts exit nonzero (bench/bench_diff.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace paratick::core {

/// One "mean/stddev/n" metric object of a snapshot cell. Metrics that do
/// not export a sample count (exits/timer_exits/busy_cycles) inherit the
/// cell's replica count.
struct SnapshotMetric {
  std::string name;
  double mean = 0.0;
  double stddev = 0.0;
  std::uint64_t n = 0;
};

struct SnapshotCell {
  std::string variant;
  std::string mode;
  double tick_freq_hz = 0.0;
  int vcpus = 0;
  double overcommit = 0.0;
  std::uint64_t replicas = 0;  // surviving replicas
  std::uint64_t failed = 0;    // replicas that failed (0 in older snapshots)
  std::vector<SnapshotMetric> metrics;
  /// wake_us LogHistogram bucket counts (empty in pre-histogram snapshots
  /// and in cells that recorded no wakeups; the KS gate skips a baseline
  /// cell without them).
  std::vector<std::uint64_t> wake_hist;

  /// Grid identity (everything except the measured values): the join key
  /// used by diff_snapshots.
  [[nodiscard]] std::string key() const;
  [[nodiscard]] const SnapshotMetric* metric(const std::string& name) const;
};

struct Snapshot {
  std::vector<SnapshotCell> cells;
};

/// Parse a SweepResult::to_json() document. Raises PARATICK_CHECK on
/// malformed input (the format is produced by this repo, so strictness is
/// a feature: a truncated upload should fail the gate loudly). Host
/// fields (wall time, threads) are not read.
[[nodiscard]] Snapshot parse_snapshot(const std::string& json);
/// Read and parse a snapshot file; the error of a missing, unreadable or
/// corrupt file names the path.
[[nodiscard]] Snapshot load_snapshot(const std::string& path);

/// Kolmogorov–Smirnov distance above which the wake_us histograms of a
/// cell count as a distribution regression — catches tail blowups that
/// leave the mean untouched. Cells without histograms are skipped.
inline constexpr double kKsThreshold = 0.15;

struct DiffConfig {
  /// Welch z-score above which a mean shift counts as a regression.
  double z_threshold = 4.0;
  /// Relative-change floor: shifts below this fraction of the baseline
  /// mean never flag, whatever the z-score (absorbs FP/format jitter and
  /// zero-stddev single-replica cells).
  double rel_min = 1e-3;
  /// Include filter by metric name; empty = compare every metric. Name
  /// "wake_us_hist" enables the KS gate. Lets CI gate host-dependent
  /// metrics (events_per_sec) at a different threshold than the
  /// deterministic counters by running the diff twice.
  std::vector<std::string> metrics;

  [[nodiscard]] bool includes(const std::string& name) const {
    if (metrics.empty()) return true;
    for (const auto& m : metrics) {
      if (m == name) return true;
    }
    return false;
  }
};

struct DiffFinding {
  /// kMetricRemoved: a compared cell lacks a metric of its baseline cell
  /// (or the baseline's wake_us histogram), so the gate cannot check it.
  /// kDegraded: a current cell lost replicas, so its numbers cover fewer
  /// runs than the baseline's — a finding whatever they say.
  enum class Kind { kShift, kCellAdded, kCellRemoved, kMetricRemoved,
                    kDistribution, kDegraded };
  Kind kind = Kind::kShift;
  std::string cell;    // SnapshotCell::key()
  std::string metric;  // empty for cell findings
  double baseline_mean = 0.0;
  double current_mean = 0.0;
  double z = 0.0;        // +inf encoded as a large sentinel when se == 0;
                         // for kDistribution this is the KS distance
  double rel_delta = 0.0;  // (current - baseline) / |baseline|
  std::uint64_t failed = 0;    // kDegraded: failed replicas of the cell
  std::uint64_t replicas = 0;  // kDegraded: replicas the cell ran
};

struct DiffResult {
  std::vector<DiffFinding> findings;
  std::size_t cells_compared = 0;
  std::size_t metrics_compared = 0;

  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Diff `current` against `baseline`. Throws sim::SimError when
/// cfg.metrics names a metric that no baseline cell has.
[[nodiscard]] DiffResult diff_snapshots(const Snapshot& baseline,
                                        const Snapshot& current,
                                        const DiffConfig& cfg = {});

/// Human-readable report of a diff (one line per finding + a summary).
[[nodiscard]] std::string describe(const DiffResult& diff, const DiffConfig& cfg);

}  // namespace paratick::core
