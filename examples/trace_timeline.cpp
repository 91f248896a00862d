// Run-loop timeline demo: what a short paratick vs dynticks run did, VM
// exit by VM exit (the simulator's `perf kvm stat record`), printed for
// the first milliseconds — the Figure 1 vs Figure 3 behaviour, visible
// event by event.
//
// The timeline is read off the engine's per-event observer, the tap that
// record/replay uses: after every executed event it compares each vCPU's
// public state with its last snapshot and prints one row per change. An
// entry that injects an interrupt shows as `inject`, and the guest taking
// it once the injection is paid for as `entry`.
//
// Usage: trace_timeline [periodic|dynticks-idle|full-dynticks|paratick]
//                       [--csv]   (default: dynticks-idle)
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/system.hpp"
#include "workload/micro.hpp"

using namespace paratick;

namespace {

struct Row {
  sim::SimTime at;
  hv::VcpuId vcpu;
  const char* kind;
  std::string detail;
};

class Timeline final : public sim::EventObserver {
 public:
  explicit Timeline(hv::Kvm& kvm) : kvm_(kvm) {}

  void on_event_executed(sim::Engine&, sim::SimTime when, std::uint64_t) override {
    sample(when);
  }

  /// Append a row stamped `at` for every change since the last sample.
  void sample(sim::SimTime at);

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  struct Snapshot {
    hv::VcpuState state = hv::VcpuState::kUninitialized;
    hw::CpuId pcpu = hv::kNoCpu;
    std::uint64_t halts = 0;
    std::uint64_t injections = 0;
    std::uint64_t wakeups = 0;
  };
  using ExitCounts = std::array<std::uint64_t, hw::kExitCauseCount>;

  Snapshot& snapshot(const hv::Vcpu& vcpu) {
    if (vcpus_.size() <= vcpu.id()) vcpus_.resize(vcpu.id() + 1);
    return vcpus_[vcpu.id()];
  }
  void sample_vcpu(sim::SimTime at, const hv::Vcpu& vcpu, const ExitCounts& exits);
  void add(sim::SimTime at, const hv::Vcpu& vcpu, const char* kind, std::string detail) {
    rows_.push_back({at, vcpu.id(), kind, std::move(detail)});
  }

  hv::Kvm& kvm_;
  std::vector<Snapshot> vcpus_;    // by global vCPU id
  std::vector<ExitCounts> exits_;  // by VM id
  std::vector<Row> rows_;
};

void Timeline::sample(sim::SimTime at) {
  for (const auto& vm : kvm_.vms()) {
    if (exits_.size() <= vm->id()) exits_.resize(vm->id() + 1, ExitCounts{});
    ExitCounts fresh{};
    for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
      const std::uint64_t n =
          kvm_.exits().count_for_vm(vm->id(), static_cast<hw::ExitCause>(c));
      fresh[c] = n - exits_[vm->id()][c];
      exits_[vm->id()][c] = n;
    }
    // Exits are counted per VM. An exit leaves its vCPU in host mode for
    // the rest of the event, so a VM's new exits belong to its first vCPU
    // in host mode that was in guest mode before, else to its first in
    // host mode.
    const hv::Vcpu* exiting = nullptr;
    for (int i = 0; i < vm->vcpu_count() && exiting == nullptr; ++i) {
      const hv::Vcpu& v = vm->vcpu(i);
      if (v.state == hv::VcpuState::kInHost &&
          snapshot(v).state == hv::VcpuState::kInGuest) {
        exiting = &v;
      }
    }
    for (int i = 0; i < vm->vcpu_count() && exiting == nullptr; ++i) {
      if (vm->vcpu(i).state == hv::VcpuState::kInHost) exiting = &vm->vcpu(i);
    }
    for (int i = 0; i < vm->vcpu_count(); ++i) {
      const hv::Vcpu& v = vm->vcpu(i);
      sample_vcpu(at, v, &v == exiting ? fresh : ExitCounts{});
    }
  }
}

void Timeline::sample_vcpu(sim::SimTime at, const hv::Vcpu& vcpu,
                           const ExitCounts& exits) {
  Snapshot& was = snapshot(vcpu);
  for (auto n = was.wakeups; n < vcpu.wakeups; ++n) {
    add(at, vcpu, "wake", std::to_string(vcpu.pending.pending_count()));
  }
  if (vcpu.pcpu != was.pcpu) {
    if (was.pcpu != hv::kNoCpu) add(at, vcpu, "sched-out", std::to_string(was.pcpu));
    if (vcpu.pcpu != hv::kNoCpu) add(at, vcpu, "sched-in", std::to_string(vcpu.pcpu));
  }
  for (auto n = was.halts; n < vcpu.halts; ++n) add(at, vcpu, "halt", "0");
  // Only guest mode exits, so an exit from a vCPU that was not in guest
  // mode had an entry before it in the same event.
  bool in_guest = was.state == hv::VcpuState::kInGuest;
  for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
    for (std::uint64_t n = 0; n < exits[c]; ++n) {
      if (!in_guest) add(at, vcpu, "entry", "0");
      add(at, vcpu, "exit", std::string(hw::to_string(static_cast<hw::ExitCause>(c))));
      in_guest = false;
    }
  }
  if (!in_guest && vcpu.state == hv::VcpuState::kInGuest) add(at, vcpu, "entry", "0");
  for (auto n = was.injections; n < vcpu.injections; ++n) {
    add(at, vcpu, "inject", "vector " + std::to_string(vcpu.last_injected));
  }
  was = {vcpu.state, vcpu.pcpu, vcpu.halts, vcpu.injections, vcpu.wakeups};
}

}  // namespace

int main(int argc, char** argv) {
  const sim::SimTime kDuration = sim::SimTime::ms(30);
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
  spec.max_duration = kDuration;
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
  Timeline timeline(system.kvm());
  system.engine().set_observer(&timeline);
  // run() split in its phases: power-on schedules the vCPUs in before the
  // first event, so its rows are stamped here.
  system.power_on();
  timeline.sample(system.engine().now());
  system.engine().run_until(kDuration);
  system.finish();

  if (csv) {
    std::puts("time_us,vcpu,kind,detail");
    for (const Row& r : timeline.rows()) {
      std::printf("%.3f,%u,%s,%s\n", r.at.microseconds(), r.vcpu, r.kind,
                  r.detail.c_str());
    }
    return 0;
  }

  std::printf("Run-loop timeline (%s guest, 1 ms bursts + 3 ms sleeps):\n\n",
              std::string(guest::to_string(mode)).c_str());
  int shown = 0;
  for (const Row& r : timeline.rows()) {
    std::printf("%10.3f us  vcpu%u  %-9s %s\n", r.at.microseconds(), r.vcpu, r.kind,
                r.detail.c_str());
    if (++shown >= 60) {
      std::puts("... (use --csv for the full trace)");
      break;
    }
  }
  return 0;
}
