// Extension: virtual-tick timing quality. Paratick delivers ticks at VM
// entries rather than from a programmed timer, so tick arrival inherits
// the jitter of exit opportunities — a timekeeping aspect the paper does
// not evaluate. This bench measures observed tick-interval statistics per
// policy on a busy guest and on a bursty guest.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp. Interval accumulators are merged across --repeat
// replicas (metrics::VmResult::tick_intervals_us).
#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

constexpr const char* kBusy = "fully busy";
constexpr const char* kBursty = "bursty (1.5 ms on / 0.8 ms off)";

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = sim::SimTime::sec(4);
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kParatick};
  cfg.variants.push_back({kBusy, [](core::ExperimentSpec& exp) {
                            exp.setup = [](guest::GuestKernel& k) {
                              workload::PureComputeSpec pc;
                              pc.total_cycles = 8'000'000'000;
                              pc.chunks = 8000;
                              workload::install_pure_compute(k, pc);
                            };
                          }});
  cfg.variants.push_back({kBursty, [](core::ExperimentSpec& exp) {
                            exp.setup = [](guest::GuestKernel& k) {
                              workload::TickStormSpec storm;
                              storm.iterations = 1500;
                              storm.sleep_interval = sim::SimTime::us(800);
                              storm.think_cycles = 3'000'000;  // 1.5 ms bursts
                              workload::install_tick_storm(k, storm);
                            };
                          }});
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  metrics::Table t({"workload", "policy", "ticks", "mean us", "stddev us", "max us"});
  for (const char* workload : {kBusy, kBursty}) {
    for (auto mode : {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
                      guest::TickMode::kParatick}) {
      const auto* cell = res.find(workload, mode);
      t.add_row({workload, std::string(guest::to_string(mode)),
                 bench::mean_ci(cell->ticks),
                 metrics::format("%.1f", cell->tick_intervals_us.mean()),
                 metrics::format("%.1f", cell->tick_intervals_us.stddev()),
                 metrics::format("%.1f", cell->tick_intervals_us.max())});
    }
  }
  return bench::report(
      cli, res,
      "==== Ablation: tick-interval jitter (guest declares 250 Hz = 4000 us) ====",
      {{"", t,
        "\nParatick's ticks ride on VM-entry opportunities: on a fully busy guest the\n"
        "interval tracks the host tick closely; on bursty guests idle periods stretch\n"
        "individual intervals (idle vCPUs deliberately receive no virtual ticks,\n"
        "§4.1) — time is recovered on wake-up, but periodic bookkeeping is coarser.\n"
        "This is the quantified cost of the paper's design choice.\n"}});
}
