// Quickstart: run one multithreaded PARSEC-like workload in a 4-vCPU VM
// under vanilla dynticks and under paratick, and print the paper's three
// metrics side by side.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/cli_parse.hpp"
#include "core/experiment.hpp"
#include "metrics/report.hpp"
#include "workload/parsec.hpp"

using namespace paratick;

int main(int argc, char** argv) {
  core::parse_cli(argc, argv, {});  // no flags: only --help
  core::ExperimentSpec exp;
  exp.machine = hw::MachineSpec::small(4);
  exp.vcpus = 4;
  exp.setup = [](guest::GuestKernel& kernel) {
    workload::install_parsec(kernel, workload::parsec_profile("fluidanimate"), 4);
  };

  std::puts("Running fluidanimate (4 threads, 4-vCPU VM)...");
  const core::AbResult ab = core::run_paratick_vs_dynticks(exp);

  metrics::Table table({"metric", "dynticks (vanilla)", "paratick", "delta"});
  table.add_row({"VM exits", metrics::format("%llu", (unsigned long long)ab.baseline.exits_total),
                 metrics::format("%llu", (unsigned long long)ab.treatment.exits_total),
                 metrics::pct(ab.comparison.exit_delta_pct)});
  table.add_row(
      {"timer-related exits",
       metrics::format("%llu", (unsigned long long)ab.baseline.exits_timer_related),
       metrics::format("%llu", (unsigned long long)ab.treatment.exits_timer_related),
       metrics::pct(ab.comparison.timer_exit_delta_pct)});
  table.add_row({"busy cycles (M)",
                 metrics::format("%.1f", (double)ab.baseline.busy_cycles().count() / 1e6),
                 metrics::format("%.1f", (double)ab.treatment.busy_cycles().count() / 1e6),
                 metrics::pct(-ab.comparison.throughput_gain_pct)});
  const auto bt = ab.baseline.completion_time();
  const auto tt = ab.treatment.completion_time();
  table.add_row({"execution time (ms)",
                 metrics::format("%.2f", bt ? bt->milliseconds() : -1.0),
                 metrics::format("%.2f", tt ? tt->milliseconds() : -1.0),
                 metrics::pct(ab.comparison.exec_time_delta_pct)});
  table.print();

  std::printf("\nSummary: %s\n", metrics::describe(ab.comparison).c_str());
  return 0;
}
