// §4.1 frequency-mismatch demo — the feature the paper left as future
// work. A 250 Hz guest runs on hosts with different tick frequencies;
// paratick's hypercall-declared rate is honored either by piggybacking
// on host ticks (compatible) or via the auxiliary preemption timer.
//
// Build & run: cmake --build build && ./build/examples/tick_freq_mismatch
#include <cstdio>

#include "core/cli_parse.hpp"
#include "core/experiment.hpp"
#include "metrics/report.hpp"
#include "workload/micro.hpp"

using namespace paratick;

int main(int argc, char** argv) {
  core::parse_cli(argc, argv, {});  // no flags: only --help
  std::puts("Guest declares 250 Hz; host tick frequency varies. 2 s busy guest.\n");
  metrics::Table t({"host Hz", "ratio", "strategy", "virtual ticks/s",
                    "timer exits/s"});

  for (double host_hz : {100.0, 250.0, 300.0, 500.0, 1000.0}) {
    core::ExperimentSpec exp;
    exp.machine = hw::MachineSpec::small(1);
    exp.vcpus = 1;
    exp.host.host_tick_freq = sim::Frequency{host_hz};
    exp.max_duration = sim::SimTime::sec(2);
    exp.setup = [](guest::GuestKernel& k) {
      workload::PureComputeSpec pc;
      pc.total_cycles = 4'000'000'000;
      pc.chunks = 4000;
      workload::install_pure_compute(k, pc);
    };
    const metrics::RunResult r = core::run_mode(exp, guest::TickMode::kParatick);

    const std::int64_t host_p = sim::Frequency{host_hz}.period().nanoseconds();
    const std::int64_t guest_p = sim::Frequency{250.0}.period().nanoseconds();
    const bool compatible = host_p <= guest_p && guest_p % host_p == 0;
    t.add_row({metrics::format("%.0f", host_hz),
               metrics::format("%.2f", host_hz / 250.0),
               compatible ? "piggyback on host ticks" : "auxiliary preemption timer",
               metrics::format("%.1f", (double)r.vms[0].policy.virtual_ticks /
                                           r.wall.seconds()),
               metrics::format("%.0f", (double)r.exits_timer_related / r.wall.seconds())});
  }
  t.print();
  std::puts("\nThe guest always receives ~250 virtual ticks/s. When the host rate is a\n"
            "multiple of the guest's, injection is free; otherwise the aux timer costs\n"
            "about what a vanilla guest would pay to run its own tick (§4.1).");
  return 0;
}
