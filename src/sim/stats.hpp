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

  /// Raw Welford state, for exact serialization into run records (replay
  /// bundles). Round-tripping through state()/from_state reproduces the
  /// accumulator bit-for-bit, so a replayed record equals the recorded one.
  struct State {
    std::uint64_t n = 0;
    double mean = 0.0, m2 = 0.0, sum = 0.0, min = 0.0, max = 0.0;
  };
  [[nodiscard]] State state() const { return {n_, mean_, m2_, sum_, min_, max_}; }
  [[nodiscard]] static Accumulator from_state(const State& s) {
    Accumulator a;
    a.n_ = s.n;
    a.mean_ = s.mean;
    a.m2_ = s.m2;
    a.sum_ = s.sum;
    a.min_ = s.min;
    a.max_ = s.max;
    return a;
  }

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

  /// Rebuild a histogram from exported bucket counts (the inverse of
  /// buckets(), for deserializing run records).
  [[nodiscard]] static LogHistogram from_buckets(std::vector<std::uint64_t> buckets) {
    LogHistogram h;
    h.buckets_ = std::move(buckets);
    h.total_ = 0;
    for (const std::uint64_t b : h.buckets_) h.total_ += b;
    return h;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

}  // namespace paratick::sim
