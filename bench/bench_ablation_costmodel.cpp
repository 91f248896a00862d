// Calibration-transparency ablation: sweeps the indirect (cache/TLB
// pollution) component of the exit cost model and shows how the
// Figure 5 aggregate responds. Documents that the paper-matching
// calibration is a one-knob choice, not a per-benchmark fit.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp.
#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/parsec.hpp"

using namespace paratick;

namespace {

constexpr std::int64_t kIndirect[] = {0, 5'000, 13'000, 25'000};
constexpr const char* kBenchmarks[] = {"fluidanimate", "dedup"};

std::string variant_name(std::int64_t indirect, const char* bench) {
  return metrics::format("ind=%lld/%s", static_cast<long long>(indirect), bench);
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(4);
  cfg.base.vcpus = 4;
  cfg.base.attach_disk = true;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  for (const std::int64_t indirect : kIndirect) {
    for (const char* name : kBenchmarks) {
      const auto& profile = workload::parsec_profile(name);
      cfg.variants.push_back(
          {variant_name(indirect, name),
           [indirect, &profile](core::ExperimentSpec& exp) {
             exp.host.exit_costs.indirect = sim::Cycles{indirect};
             exp.setup = [&profile](guest::GuestKernel& k) {
               workload::install_parsec(k, profile, 4);
             };
           }});
    }
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  metrics::Table t({"indirect cycles", "benchmark", "VM exits", "throughput",
                    "exec time"});
  for (const std::int64_t indirect : kIndirect) {
    for (const char* name : kBenchmarks) {
      const metrics::Comparison c =
          res.compare(variant_name(indirect, name), guest::TickMode::kDynticksIdle,
                      guest::TickMode::kParatick);
      t.add_row({metrics::format("%lld", static_cast<long long>(indirect)), name,
                 metrics::pct(c.exit_delta_pct), metrics::pct(c.throughput_gain_pct),
                 metrics::pct(c.exec_time_delta_pct)});
    }
  }
  return bench::report(
      cli, res,
      "==== Ablation: indirect exit-cost sweep (fluidanimate + dedup, 4 vCPUs) ====",
      {{"", t,
        "\nExit *counts* are cost-model independent; only the throughput/time\n"
        "magnitudes scale with the pollution term (calibrated to 13k cycles,\n"
        "see EXPERIMENTS.md).\n"}});
}
