// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <algorithm>
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

/// One positional argument a bench accepts: what it selects, and the
/// names that select something.
struct PositionalSlot {
  const char* what;  // "benchmark", "size", ...
  std::vector<std::string> names;
};

/// Checks the bench's positionals: the i-th must be one of slots[i].names
/// and there may be no more of them than slots. On a mismatch it prints
/// the problem and every slot's valid names to stderr and returns false;
/// the bench then exits 2 rather than run an empty selection.
inline bool positionals_valid(const char* bench, const std::vector<std::string>& positional,
                              const std::vector<PositionalSlot>& slots) {
  bool ok = positional.size() <= slots.size();
  if (!ok) {
    std::fprintf(stderr, "%s: too many arguments (%zu given, at most %zu)\n", bench,
                 positional.size(), slots.size());
  }
  for (std::size_t i = 0; ok && i < positional.size(); ++i) {
    const auto& names = slots[i].names;
    if (std::find(names.begin(), names.end(), positional[i]) == names.end()) {
      std::fprintf(stderr, "%s: unknown %s '%s'\n", bench, slots[i].what,
                   positional[i].c_str());
      ok = false;
    }
  }
  if (ok) return true;
  for (const PositionalSlot& slot : slots) {
    std::fprintf(stderr, "  valid %s names:", slot.what);
    for (const auto& name : slot.names) std::fprintf(stderr, " %s", name.c_str());
    std::fputc('\n', stderr);
  }
  return false;
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
