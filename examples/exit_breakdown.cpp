// Exit breakdown: run one workload under all three tick modes and print
// the full per-cause VM-exit table plus tick-policy statistics — the view
// you would get from `perf kvm stat` on the real system.
//
// Usage: exit_breakdown [benchmark] [threads]   (PARSEC name, default
//        fluidanimate on 4 threads; threads >= 1)
//        exit_breakdown fio                    (the I/O scenario)
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/experiment.hpp"
#include "metrics/report.hpp"
#include "workload/fio.hpp"
#include "workload/parsec.hpp"

using namespace paratick;

namespace {

void print_breakdown(const char* label, const metrics::RunResult& r) {
  std::printf("\n=== %s ===\n", label);
  std::printf("wall %.2f ms | busy %.1f Mcycles | exits %llu (timer-related %llu)\n",
              r.wall.milliseconds(), (double)r.busy_cycles().count() / 1e6,
              (unsigned long long)r.exits_total,
              (unsigned long long)r.exits_timer_related);
  metrics::Table t({"exit cause", "count", "share"});
  for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
    if (r.exits_by_cause[c] == 0) continue;
    t.add_row({std::string(hw::to_string(static_cast<hw::ExitCause>(c))),
               metrics::format("%llu", (unsigned long long)r.exits_by_cause[c]),
               metrics::format("%.1f%%", 100.0 * (double)r.exits_by_cause[c] /
                                             (double)r.exits_total)});
  }
  t.print();
  const auto& p = r.vms[0].policy;
  std::printf("policy: ticks %llu (virtual %llu) msr-writes %llu (avoided %llu) "
              "idle-entries %llu\n",
              (unsigned long long)p.ticks_handled, (unsigned long long)p.virtual_ticks,
              (unsigned long long)p.msr_writes, (unsigned long long)p.msr_writes_avoided,
              (unsigned long long)p.idle_entries);
  std::printf("task blocks %llu | cycle split: user %.0fM kernel %.0fM exit %.0fM "
              "host %.0fM idle %.0fM\n",
              (unsigned long long)r.vms[0].task_blocks,
              (double)r.cycles.total(hw::CycleCategory::kGuestUser).count() / 1e6,
              (double)r.cycles.total(hw::CycleCategory::kGuestKernel).count() / 1e6,
              (double)r.cycles.total(hw::CycleCategory::kExitOverhead).count() / 1e6,
              (double)r.cycles.total(hw::CycleCategory::kHostKernel).count() / 1e6,
              (double)r.cycles.total(hw::CycleCategory::kIdle).count() / 1e6);
  if (r.vms[0].wakeup_latency_us.count() > 0) {
    std::printf("wake-to-run latency: mean %.2f us, max %.2f us over %llu wakes\n",
                r.vms[0].wakeup_latency_us.mean(), r.vms[0].wakeup_latency_us.max(),
                (unsigned long long)r.vms[0].wakeup_latency_us.count());
  }
  if (auto ct = r.completion_time()) {
    std::printf("execution time: %.2f ms\n", ct->milliseconds());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench = "fluidanimate";
  int threads = 4;
  std::vector<std::string> benchmarks;
  for (const auto& profile : workload::parsec_suite()) {
    benchmarks.emplace_back(profile.name);
  }
  benchmarks.emplace_back("fio");
  core::parse_cli(
      argc, argv, {},
      {{"benchmark", benchmarks, false, false,
        [&bench](const std::string& v) { bench = v; }},
       {"threads", {}, false, false, [&threads](const std::string& v) {
          threads = static_cast<int>(core::parse_u64_flag("threads", v, 256, 10, 1));
        }}});

  core::ExperimentSpec exp;
  if (bench == "fio") {
    exp.machine = hw::MachineSpec::small(1);
    exp.vcpus = 1;
    exp.attach_disk = true;
    exp.setup = [](guest::GuestKernel& k) {
      workload::FioSpec spec;
      spec.ops = 2000;
      workload::install_fio(k, spec);
    };
  } else {
    exp.machine = hw::MachineSpec::small(static_cast<std::uint32_t>(threads));
    exp.vcpus = threads;
    exp.attach_disk = true;
    const auto& profile = workload::parsec_profile(bench);
    exp.setup = [&profile, threads](guest::GuestKernel& k) {
      workload::install_parsec(k, profile, threads);
    };
  }

  for (auto mode : {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
                    guest::TickMode::kParatick}) {
    const metrics::RunResult r = core::run_mode(exp, mode);
    print_breakdown(std::string(guest::to_string(mode)).c_str(), r);
  }
  return 0;
}
