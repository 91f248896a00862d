// Device-latency sweep: §6.3's closing prediction is that "paratick's
// performance benefits will only increase as time goes on, since
// state-of-the-art storage devices sport much lower access latencies."
// This example runs the same sync-I/O job against an HDD, a SATA SSD and
// an NVMe profile and shows the paratick gain growing as latency drops.
//
// Build & run: cmake --build build && ./build/examples/io_latency
#include <cstdio>

#include "core/cli_parse.hpp"
#include "core/experiment.hpp"
#include "metrics/report.hpp"
#include "workload/fio.hpp"

using namespace paratick;

int main(int argc, char** argv) {
  core::parse_cli(argc, argv, {});  // no flags: only --help
  struct Device {
    const char* name;
    hw::BlockDeviceSpec spec;
  };
  const Device devices[] = {
      {"HDD", hw::BlockDeviceSpec::hdd()},
      {"SATA SSD", hw::BlockDeviceSpec::sata_ssd()},
      {"NVMe", hw::BlockDeviceSpec::nvme()},
  };

  std::puts("fio 4k random read, sync engine, 1-vCPU VM, paratick vs dynticks\n");
  metrics::Table t({"device", "read latency", "IOPS (dynticks)", "IOPS (paratick)",
                    "VM exits", "exec time"});

  for (const auto& dev : devices) {
    core::ExperimentSpec exp;
    exp.machine = hw::MachineSpec::small(1);
    exp.vcpus = 1;
    exp.attach_disk = true;
    exp.disk = dev.spec;
    exp.max_duration = sim::SimTime::sec(60);
    exp.setup = [](guest::GuestKernel& k) {
      workload::FioSpec spec;
      spec.pattern = hw::IoPattern::kRandom;
      spec.block_bytes = 4096;
      spec.ops = 1200;
      workload::install_fio(k, spec);
    };
    const core::AbResult ab = core::run_paratick_vs_dynticks(exp);

    auto iops = [](const metrics::RunResult& r) {
      const auto ct = r.completion_time();
      return ct && ct->seconds() > 0 ? 1200.0 / ct->seconds() : 0.0;
    };
    t.add_row({dev.name,
               metrics::format("%.0f us", dev.spec.read_latency.microseconds()),
               metrics::format("%.0f", iops(ab.baseline)),
               metrics::format("%.0f", iops(ab.treatment)),
               metrics::pct(ab.comparison.exit_delta_pct),
               metrics::pct(ab.comparison.exec_time_delta_pct)});
  }
  t.print();
  std::puts("\nThe faster the device, the larger the share of each operation spent on\n"
            "timer-management exits — and the more paratick helps (§6.3).");
  return 0;
}
