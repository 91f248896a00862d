// Reproduces paper Figure 4 + Table 2: sequential PARSEC (1 vCPU) under
// paratick vs vanilla dynticks. Sequential workloads are the gross-cost
// floor: paratick should slash exits without hurting anything.
//
// Runs on the deterministic parallel sweep runner (see core/sweep.hpp).
// Usage: bench_fig4_sequential [benchmark] [--csv] [-j N] [--repeat N]
//                              [--seed S] [--sweep-csv P] [--sweep-json P]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/parsec.hpp"

using namespace paratick;

int main(int argc, char** argv) {
  std::vector<std::string> benchmarks;
  for (const auto& profile : workload::parsec_suite()) benchmarks.emplace_back(profile.name);
  const core::SweepCli cli =
      core::SweepCli::parse(argc, argv, {}, {{"benchmark", benchmarks}});
  const char* only = cli.positional.empty() ? nullptr : cli.positional.front().c_str();

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.attach_disk = true;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.root_seed = 1234;

  std::vector<std::string> names;
  for (const auto& profile : workload::parsec_suite()) {
    if (only != nullptr && profile.name != only) continue;
    names.emplace_back(profile.name);
    cfg.variants.push_back(
        {std::string(profile.name), [&profile](core::ExperimentSpec& exp) {
           exp.setup = [&profile](guest::GuestKernel& k) {
             workload::install_parsec(k, profile, 1);
           };
         }});
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  cli.export_results(res, "bench_fig4_sequential");

  if (!cli.csv) {
    std::printf("==== Figure 4 / Table 2: sequential PARSEC (1 vCPU) ====\n");
    std::printf("(%zu runs, %.2fs wall on %u threads)\n", res.runs.size(),
                res.wall_seconds, res.threads_used);
  }
  metrics::Table fig({"benchmark", "VM exits", "throughput", "exec time"});
  std::vector<metrics::Comparison> comparisons;
  for (const auto& name : names) {
    const metrics::Comparison c = res.compare(name, guest::TickMode::kDynticksIdle,
                                              guest::TickMode::kParatick);
    fig.add_row(bench::figure_row(name, c));
    comparisons.push_back(c);
  }

  if (cli.csv) {
    std::fputs(fig.to_csv().c_str(), stdout);
  } else {
    fig.print();
    bench::print_aggregate("Aggregate (Table 2)", {"Table 2", -50.0, +7.0, -2.0},
                           metrics::average(comparisons));
  }
  return 0;
}
