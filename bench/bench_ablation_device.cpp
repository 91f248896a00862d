// Ablation of §6.3's outlook: "paratick's performance benefits will only
// increase as time goes on, since state-of-the-art storage devices sport
// much lower access latencies." Runs the fio job against three device
// classes and a latency sweep, reporting the paratick gain per class.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp.
#include <vector>

#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/fio.hpp"

using namespace paratick;

namespace {

struct Device {
  std::string name;
  hw::BlockDeviceSpec spec;
};

std::vector<Device> device_classes() {
  std::vector<Device> devices = {
      {"HDD", hw::BlockDeviceSpec::hdd()},
      {"SATA SSD", hw::BlockDeviceSpec::sata_ssd()},
      {"NVMe", hw::BlockDeviceSpec::nvme()},
  };
  // Synthetic sweep below NVMe latencies (the paper's "killer
  // microseconds" trajectory, §3.3 [8]).
  for (const std::int64_t us : {6, 3}) {
    hw::BlockDeviceSpec fast = hw::BlockDeviceSpec::nvme();
    fast.read_latency = sim::SimTime::us(us);
    fast.write_latency = sim::SimTime::us(us * 2);
    fast.random_read_penalty = sim::SimTime::us(1);
    devices.push_back({metrics::format("future-%lldus", static_cast<long long>(us)), fast});
  }
  return devices;
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);
  const std::vector<Device> devices = device_classes();

  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.attach_disk = true;
  cfg.base.max_duration = sim::SimTime::sec(120);
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::FioSpec spec;
    spec.pattern = hw::IoPattern::kRandom;
    spec.block_bytes = 4096;
    spec.ops = 1000;
    workload::install_fio(k, spec);
  };
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  for (const Device& dev : devices) {
    cfg.variants.push_back(
        {dev.name, [&dev](core::ExperimentSpec& exp) { exp.disk = dev.spec; }});
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  metrics::Table t({"device", "read latency", "exits", "exec time",
                    "wake latency (dyn->para)"});
  for (const Device& dev : devices) {
    const metrics::Comparison c = res.compare(dev.name, guest::TickMode::kDynticksIdle,
                                              guest::TickMode::kParatick);
    const auto* base = res.find(dev.name, guest::TickMode::kDynticksIdle);
    const auto* treat = res.find(dev.name, guest::TickMode::kParatick);
    t.add_row({dev.name,
               metrics::format("%.0f us", dev.spec.read_latency.microseconds()),
               metrics::pct(c.exit_delta_pct), metrics::pct(c.exec_time_delta_pct),
               metrics::format("%.1f -> %.1f us", base->wakeup_latency_us.mean(),
                               treat->wakeup_latency_us.mean())});
  }
  return bench::report(
      cli, res, "==== Ablation: device latency vs paratick benefit (fio 4k rndr) ====",
      {{"", t,
        "\nThe execution-time gain grows monotonically as device latency falls:\n"
        "timer-management exits are a fixed per-operation tax (§6.3).\n"}});
}
