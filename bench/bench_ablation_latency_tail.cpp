// Extension: request-latency tails. §3.3 argues demand for handling
// "microsecond-level idle periods" keeps rising (datacenter networking,
// NVMe, accelerator offloads). For a request/response server, every
// request wake-up crosses the idle-exit path — so tick management sits
// directly on the service-latency tail. This bench reports mean/p99
// wake-to-run latency per tick policy.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp. p99 is computed from the wake-latency histograms
// merged across --repeat replicas.
#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

const sim::SimTime kInterarrivals[] = {sim::SimTime::us(200), sim::SimTime::ms(2)};

std::string variant_name(sim::SimTime interarrival) {
  return metrics::format("ia=%.1fms", interarrival.milliseconds());
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(2);
  cfg.base.vcpus = 2;
  cfg.base.max_duration = sim::SimTime::sec(20);
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kFullDynticks, guest::TickMode::kParatick};
  for (const sim::SimTime interarrival : kInterarrivals) {
    cfg.variants.push_back(
        {variant_name(interarrival), [interarrival](core::ExperimentSpec& exp) {
           exp.setup = [interarrival](guest::GuestKernel& k) {
             workload::ServerSpec server;
             server.workers = 2;
             server.mean_interarrival = interarrival;
             server.requests_per_worker = 3000;
             workload::install_server(k, server);
           };
         }});
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  metrics::Table t({"interarrival", "policy", "wakes", "mean us", "p99 us",
                    "max us", "exits"});
  for (const sim::SimTime interarrival : kInterarrivals) {
    for (auto mode : {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
                      guest::TickMode::kFullDynticks, guest::TickMode::kParatick}) {
      const auto* cell = res.find(variant_name(interarrival), mode);
      t.add_row({metrics::format("%.1f ms", interarrival.milliseconds()),
                 std::string(guest::to_string(mode)), bench::mean_ci(cell->wakes),
                 metrics::format("%.1f", cell->wakeup_latency_us.mean()),
                 metrics::format("%.1f", cell->wake_hist_us.percentile(99.0)),
                 metrics::format("%.1f", cell->wakeup_latency_us.max()),
                 bench::mean_ci(cell->exits_total)});
    }
  }
  return bench::report(
      cli, res, "==== Ablation: request wake-latency tail (2-worker server) ====",
      {{"", t,
        "\nEvery request service starts with an idle exit; dynticks adds a tick\n"
        "restart (MSR-write exit) to that path while paratick adds nothing — the\n"
        "mean shifts by one exit cost and the tail follows (§3.3, §4.2).\n"}});
}
