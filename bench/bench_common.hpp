// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/report.hpp"
#include "metrics/run_metrics.hpp"
#include "sim/stats.hpp"

namespace paratick::bench {

/// "mean ±hw" table cell: the ±95% confidence half-width appears only
/// when the accumulator has >= 2 samples (--repeat), so single runs show
/// a bare mean instead of ±0 noise (and never ±NaN).
inline std::string mean_ci(const sim::Accumulator& a, int precision = 0) {
  if (a.count() < 2) return metrics::format("%.*f", precision, a.mean());
  return metrics::format("%.*f ±%.*f", precision, a.mean(),
                         precision > 0 ? precision : 1, a.ci95_half_width());
}

/// Paper-vs-measured aggregate row (used by EXPERIMENTS.md).
struct PaperRow {
  const char* label;
  double paper_exits_pct;
  double paper_throughput_pct;
  double paper_time_pct;
};

inline void print_aggregate(const char* title, const PaperRow& paper,
                            const metrics::Comparison& measured) {
  std::printf("\n%s\n", title);
  metrics::Table t({"source", "VM exits", "System throughput", "Execution time"});
  t.add_row({"paper", metrics::pct(paper.paper_exits_pct),
             metrics::pct(paper.paper_throughput_pct), metrics::pct(paper.paper_time_pct)});
  t.add_row({"measured", metrics::pct(measured.exit_delta_pct),
             metrics::pct(measured.throughput_gain_pct),
             metrics::pct(measured.exec_time_delta_pct)});
  t.print();
}

/// Per-benchmark relative row (the bars of Figures 4/5/6).
inline std::vector<std::string> figure_row(const std::string& name,
                                           const metrics::Comparison& c) {
  return {name, metrics::pct(c.exit_delta_pct), metrics::pct(c.throughput_gain_pct),
          metrics::pct(c.exec_time_delta_pct)};
}

}  // namespace paratick::bench
