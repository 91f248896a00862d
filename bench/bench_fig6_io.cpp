// Reproduces paper Figure 6 + Table 4: phoronix-fio style synchronous
// block I/O in a 1-vCPU VM, four categories (seqr/seqwr/rndr/rndwr),
// each aggregated over block sizes 4k..256k.
//
// I/O throughput is measured directly (paper §6.3: "I/O operations are
// the sole system bottleneck, so I/O throughput equates to system
// throughput for this use case"); CPU-cycle throughput and execution
// time are reported alongside.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp. Each category x block-size pair is one sweep variant.
//
// Usage: bench_fig6_io [category]
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/fio.hpp"

using namespace paratick;

namespace {

std::string variant_name(std::string_view category, std::uint32_t bs) {
  return metrics::format("%s/bs=%uk", std::string(category).c_str(), bs / 1024);
}

double mbps(double exec_ms, std::uint64_t bytes) {
  if (exec_ms <= 0.0) return 0.0;
  return static_cast<double>(bytes) / 1e6 / (exec_ms / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> categories;
  for (const auto& cat : workload::fio_categories()) categories.emplace_back(cat.name);
  const core::SweepCli cli =
      core::SweepCli::parse(argc, argv, {}, {{"category", categories}});
  const char* only = cli.positional.empty() ? nullptr : cli.positional[0].c_str();

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.attach_disk = true;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  for (const auto& cat : workload::fio_categories()) {
    if (only != nullptr && cat.name != only) continue;
    for (const std::uint32_t bs : workload::fio_block_sizes()) {
      workload::FioSpec spec;
      spec.dir = cat.dir;
      spec.pattern = cat.pattern;
      spec.block_bytes = bs;
      spec.ops = 1500;
      cfg.variants.push_back(
          {variant_name(cat.name, bs), [spec](core::ExperimentSpec& exp) {
             exp.setup = [spec](guest::GuestKernel& k) {
               workload::install_fio(k, spec);
             };
           }});
    }
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  cli.export_results(res, "bench_fig6_io");

  if (!cli.csv) {
    std::printf("==== Figure 6 / Table 4: fio sync I/O (1 vCPU) ====\n");
    std::printf("(%zu runs, %.2fs wall on %u threads)\n\n", res.runs.size(),
                res.wall_seconds, res.threads_used);
  }
  metrics::Table fig(
      {"category", "VM exits", "I/O throughput", "cycle throughput", "exec time"});
  std::vector<metrics::Comparison> comparisons;

  for (const auto& cat : workload::fio_categories()) {
    if (only != nullptr && cat.name != only) continue;
    std::vector<metrics::Comparison> per_bs;
    double io_gain_sum = 0.0;
    for (const std::uint32_t bs : workload::fio_block_sizes()) {
      const std::string variant = variant_name(cat.name, bs);
      per_bs.push_back(res.compare(variant, guest::TickMode::kDynticksIdle,
                                   guest::TickMode::kParatick));
      const auto* base = res.find(variant, guest::TickMode::kDynticksIdle);
      const auto* treat = res.find(variant, guest::TickMode::kParatick);
      const std::uint64_t bytes = static_cast<std::uint64_t>(1500) * bs;
      const double base_mbps = mbps(base->exec_time_ms.mean(), bytes);
      const double treat_mbps = mbps(treat->exec_time_ms.mean(), bytes);
      if (base_mbps > 0.0) io_gain_sum += (treat_mbps / base_mbps - 1.0) * 100.0;
    }
    const auto avg = metrics::average(per_bs);
    const double io_gain =
        io_gain_sum / static_cast<double>(workload::fio_block_sizes().size());
    fig.add_row({std::string(cat.name), metrics::pct(avg.exit_delta_pct),
                 metrics::pct(io_gain), metrics::pct(avg.throughput_gain_pct),
                 metrics::pct(avg.exec_time_delta_pct)});
    comparisons.push_back(avg);
  }

  if (cli.csv) {
    std::fputs(fig.to_csv().c_str(), stdout);
  } else {
    fig.print();
    bench::print_aggregate("Aggregate (Table 4)", {"Table 4", -34.0, +20.0, -18.0},
                           metrics::average(comparisons));
  }
  return 0;
}
