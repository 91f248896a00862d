// Statistics primitives: counters, Welford accumulators, log-scale
// histograms. Used by the metrics layer and directly by benches.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace paratick::sim {

/// Running mean / variance / min / max without storing samples (Welford).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  /// Half-width of the 95% confidence interval of the mean (Student's t
  /// for small n, 1.96 asymptotically). 0 when fewer than two samples —
  /// callers print a bare mean instead of a meaningless ±NaN.
  [[nodiscard]] double ci95_half_width() const;

  /// Merge another accumulator into this one (parallel-combine form).
  void merge(const Accumulator& other);

  /// Raw Welford state, read by the benchmark harness (perfbench/) to
  /// digest a run's accumulators bit for bit.
  struct State {
    std::uint64_t n = 0;
    double mean = 0.0, m2 = 0.0, sum = 0.0, min = 0.0, max = 0.0;
  };
  [[nodiscard]] State state() const { return {n_, mean_, m2_, sum_, min_, max_}; }

  bool operator==(const Accumulator&) const = default;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Power-of-two bucketed histogram for latency-like quantities.
/// Bucket i (i >= 1) covers [2^i, 2^(i+1)); bucket 0 is the catch-all
/// [0, 2) (sub-1.0 samples included), reported with midpoint 1.
class LogHistogram {
 public:
  void add(double x);

  /// Merge another histogram into this one (bucket-wise sum), so per-run
  /// histograms can be combined across sweep replicas.
  void merge(const LogHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] double percentile(double p) const;  // p in [0, 100]
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  bool operator==(const LogHistogram&) const = default;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

}  // namespace paratick::sim
