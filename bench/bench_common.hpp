// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "metrics/report.hpp"
#include "metrics/run_metrics.hpp"
#include "sim/stats.hpp"

namespace paratick::bench {

/// "mean ±hw" table cell: the ±95% confidence half-width appears only
/// when the accumulator has >= 2 samples (--repeat), so single runs show
/// a bare mean instead of ±0 noise (and never ±NaN). Both numbers are
/// divided by `divisor` (1e6 prints cycles as Mcycles).
inline std::string mean_ci(const sim::Accumulator& a, int precision = 0,
                           double divisor = 1.0) {
  if (a.count() < 2) return metrics::format("%.*f", precision, a.mean() / divisor);
  return metrics::format("%.*f ±%.*f", precision, a.mean() / divisor,
                         precision > 0 ? precision : 1,
                         a.ci95_half_width() / divisor);
}

/// Paper-vs-measured aggregate row (used by EXPERIMENTS.md).
struct PaperRow {
  const char* label;
  double paper_exits_pct;
  double paper_throughput_pct;
  double paper_time_pct;
};

inline std::string aggregate_note(const char* title, const PaperRow& paper,
                                  const metrics::Comparison& measured) {
  metrics::Table t({"source", "VM exits", "System throughput", "Execution time"});
  t.add_row({"paper", metrics::pct(paper.paper_exits_pct),
             metrics::pct(paper.paper_throughput_pct), metrics::pct(paper.paper_time_pct)});
  t.add_row({"measured", metrics::pct(measured.exit_delta_pct),
             metrics::pct(measured.throughput_gain_pct),
             metrics::pct(measured.exec_time_delta_pct)});
  return metrics::format("\n%s\n", title) + t.to_string();
}

/// Per-benchmark relative row (the bars of Figures 4/5/6).
inline std::vector<std::string> figure_row(const std::string& name,
                                           const metrics::Comparison& c) {
  return {name, metrics::pct(c.exit_delta_pct), metrics::pct(c.throughput_gain_pct),
          metrics::pct(c.exec_time_delta_pct)};
}

/// One table of a bench report. In text mode `heading` and `note` frame
/// the table; under --csv the table alone is printed, as CSV.
struct Section {
  std::string heading;
  metrics::Table table;
  std::string note;
};

/// The tail every sweep bench ends with: write the exports the flags ask
/// for, print `title`, a runs/wall/threads line and each section (only
/// the sections' CSV under --csv), then name every degraded cell — on
/// stderr under --csv, so the CSV stays clean. Returns the exit status:
/// 1 if any cell lost a replica, else 0, so a table whose numbers cover
/// fewer runs than asked for never passes as a clean result.
inline int report(const core::SweepCli& cli, const core::SweepResult& res,
                  const std::string& title, const std::vector<Section>& sections) {
  cli.export_results(res);
  if (!cli.csv) {
    std::printf("%s\n(%zu runs, %.2fs wall on %u threads)\n\n", title.c_str(),
                res.runs.size(), res.wall_seconds, res.threads_used);
  }
  for (const Section& s : sections) {
    if (cli.csv) {
      std::fputs(s.table.to_csv().c_str(), stdout);
      continue;
    }
    std::fputs(s.heading.c_str(), stdout);
    s.table.print();
    std::fputs(s.note.c_str(), stdout);
  }
  std::FILE* out = cli.csv ? stderr : stdout;
  for (const core::SweepCellSummary& cell : res.cells) {
    if (!cell.degraded()) continue;
    std::fprintf(out, "DEGRADED %s: %llu of %llu replicas failed\n",
                 cell.key.label().c_str(),
                 static_cast<unsigned long long>(cell.replicas_failed),
                 static_cast<unsigned long long>(cell.replicas_failed +
                                                 cell.exits_total.count()));
  }
  return res.degraded_cell_count() > 0 ? 1 : 0;
}

}  // namespace paratick::bench
