// Reproduces paper Table 1 (§3.3): timer-related VM exits induced by
// classic periodic ticks vs tickless kernels for four workloads:
//   W1: an idle VM with 16 vCPUs
//   W2: 4 idle VMs with 16 vCPUs each
//   W3: 16 threads synchronizing 1000x/s (blocking sync), one 16-vCPU VM
//   W4: 4 concurrent copies of W3
// 10 seconds on a 16-pCPU host, 250 Hz ticks.
//
// Three result sets are printed:
//   published     — the paper's Table 1 cells,
//   reconstructed — our closed-form §3.1/§3.2 evaluation (see
//                   EXPERIMENTS.md for the factor-of-two discussion),
//   simulated     — full-system simulation, also including paratick.
//
// The 12 simulations (4 workloads x 3 tick modes) run on the deterministic
// parallel sweep runner; see SweepCli in core/sweep.hpp for the flags
// (-j N, --repeat N, --seed S, --sweep-csv/--sweep-json, --quiet).
#include "bench_common.hpp"
#include "core/analytic.hpp"
#include "core/sweep.hpp"
#include "metrics/report.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

struct Scenario {
  const char* name;
  int vm_copies;
  bool sync_storm;  // false = idle VM
};

constexpr Scenario kScenarios[] = {
    {"W1", 1, false},
    {"W2", 4, false},
    {"W3", 1, true},
    {"W4", 4, true},
};

constexpr int kVcpusPerVm = 16;
constexpr int kPhysCpus = 16;
const sim::SimTime kDuration = sim::SimTime::sec(10);

core::SweepConfig make_sweep() {
  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(kPhysCpus);
  cfg.base.vcpus = kVcpusPerVm;
  cfg.base.max_duration = kDuration;
  cfg.base.stop_when_done = false;  // fixed 10 s window, like the paper's table
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kParatick};
  cfg.root_seed = 1234;

  for (const Scenario& sc : kScenarios) {
    cfg.variants.push_back({sc.name, [&sc](core::ExperimentSpec& exp) {
      exp.scenario.vm_copies = sc.vm_copies;
      if (sc.sync_storm) {
        exp.setup = [](guest::GuestKernel& k) {
          workload::SyncStormSpec storm;
          storm.threads = kVcpusPerVm;
          // "Synchronizing 1000x/s" in the paper's §3.3 reconstruction means
          // 1000 idle transitions per second for the whole workload; a
          // 16-party barrier produces (threads-1) blocked waiters per episode.
          storm.sync_rate_hz = 1000.0 / (kVcpusPerVm - 1);
          storm.duration = kDuration;
          storm.load = 0.5;
          workload::install_sync_storm(k, storm);
        };
      }
    }});
  }
  return cfg;
}

std::uint64_t timer_exits(const core::SweepResult& res, const char* scenario,
                          guest::TickMode mode) {
  const core::SweepCellSummary* cell = res.find(scenario, mode);
  return cell ? static_cast<std::uint64_t>(cell->exits_timer.mean() + 0.5) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);
  core::SweepConfig cfg = make_sweep();
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));

  const auto published = core::table1_published();
  const auto reconstructed = core::table1_reconstructed();

  metrics::Table t({"workload", "periodic (paper)", "periodic (formula)",
                    "periodic (sim)", "tickless (paper)", "tickless (formula)",
                    "tickless (sim)", "paratick (sim)"});

  for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
    const Scenario& sc = kScenarios[i];
    t.add_row({sc.name, metrics::format("%llu", (unsigned long long)published[i].periodic),
               metrics::format("%llu", (unsigned long long)reconstructed[i].periodic),
               metrics::format("%llu", (unsigned long long)timer_exits(
                                           res, sc.name, guest::TickMode::kPeriodic)),
               metrics::format("%llu", (unsigned long long)published[i].tickless),
               metrics::format("%llu", (unsigned long long)reconstructed[i].tickless),
               metrics::format("%llu", (unsigned long long)timer_exits(
                                           res, sc.name, guest::TickMode::kDynticksIdle)),
               metrics::format("%llu", (unsigned long long)timer_exits(
                                           res, sc.name, guest::TickMode::kParatick))});
  }
  const auto crossover =
      core::crossover_idle_period(sim::Frequency{250.0}, 1.0);
  return bench::report(
      cli, res, "==== Table 1: timer-related VM exits, 10 s, 16 pCPUs, 250 Hz ====",
      {{"", t,
        metrics::format(
            "\n§3.3 crossover: with 250 Hz ticks and one vCPU per pCPU, tickless beats\n"
            "periodic while the average idle period exceeds %.2f ms.\n",
            crossover.milliseconds())}});
}
