// Event-trace demo: record the run-loop timeline of a short paratick vs
// dynticks run (the simulator's `perf kvm stat record`) and print the
// first milliseconds side by side — the Figure 1 vs Figure 3 behaviour,
// visible event by event.
//
// Usage: trace_timeline [periodic|dynticks-idle|full-dynticks|paratick]
//                       [--csv]   (default: dynticks-idle)
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/system.hpp"
#include "workload/micro.hpp"

using namespace paratick;

int main(int argc, char** argv) {
  guest::TickMode mode = guest::TickMode::kDynticksIdle;
  bool csv = false;
  std::vector<std::string> modes;
  for (const auto m : {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
                       guest::TickMode::kFullDynticks, guest::TickMode::kParatick}) {
    modes.emplace_back(guest::to_string(m));
  }
  core::parse_cli(argc, argv,
                  {core::switch_flag("--csv", "print the full trace as CSV", csv)},
                  {{"mode", modes, false, false, [&mode](const std::string& v) {
                      mode = guest::tick_mode_from_string(v);
                    }}});

  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  spec.host.trace = true;
  spec.max_duration = sim::SimTime::ms(30);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.guest.tick_mode = mode;
  vm.setup = [](guest::GuestKernel& k) {
    // Brief compute bursts with sleeps in between: exercises tick arming,
    // idle entry/exit and timer wake-ups.
    workload::TickStormSpec storm;
    storm.iterations = 8;
    storm.sleep_interval = sim::SimTime::ms(3);
    storm.think_cycles = 2'000'000;  // 1 ms
    workload::install_tick_storm(k, storm);
  };
  spec.vms.push_back(std::move(vm));

  core::System system(std::move(spec));
  system.run();

  if (csv) {
    std::fputs(system.kvm().tracer().to_csv().c_str(), stdout);
    return 0;
  }

  std::printf("Run-loop timeline (%s guest, 1 ms bursts + 3 ms sleeps):\n\n",
              std::string(guest::to_string(mode)).c_str());
  if (system.kvm().tracer().wrapped()) {
    std::printf("(ring wrapped: dropped %llu of %llu events; oldest shown "
                "first)\n\n",
                static_cast<unsigned long long>(system.kvm().tracer().dropped()),
                static_cast<unsigned long long>(
                    system.kvm().tracer().total_recorded()));
  }
  int shown = 0;
  for (const auto& e : system.kvm().tracer().chronological()) {
    std::string detail;
    switch (e.kind) {
      case hv::TraceKind::kExit:
        detail = hw::to_string(static_cast<hw::ExitCause>(e.arg));
        break;
      case hv::TraceKind::kInjection:
        detail = "vector " + std::to_string(e.arg);
        break;
      default:
        break;
    }
    std::printf("%10.3f us  vcpu%u  %-9s %s\n", e.at.microseconds(), e.vcpu,
                std::string(hv::to_string(e.kind)).c_str(), detail.c_str());
    if (++shown >= 60) {
      std::puts("... (use --csv for the full trace)");
      break;
    }
  }
  return 0;
}
