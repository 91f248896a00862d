// Extension ablation: the paper's §2 dismisses NO_HZ_FULL ("full
// dynticks") as a niche mode; this bench quantifies why it is not a
// substitute for paratick in VMs. Four policies across three workload
// classes: a pinned single-task compute guest (NO_HZ_FULL's best case),
// a sync-heavy multithreaded guest, and a sync-I/O guest.
//
// Runs on the deterministic parallel sweep runner; shared CLI flags in
// core/sweep.hpp. The workload classes resize the machine per variant,
// so the grid's vcpus key self-describes each row.
#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/fio.hpp"
#include "workload/micro.hpp"
#include "workload/parsec.hpp"

using namespace paratick;

namespace {

constexpr const char* kWorkloads[] = {"single-task compute",
                                      "sync-heavy (fluidanimate)",
                                      "sync I/O (fio)"};

void apply_workload(const char* workload, core::ExperimentSpec& exp) {
  if (std::string_view(workload) == "single-task compute") {
    exp.machine = hw::MachineSpec::small(1);
    exp.vcpus = 1;
    exp.setup = [](guest::GuestKernel& k) {
      workload::PureComputeSpec pc;
      pc.total_cycles = 800'000'000;  // 400 ms
      pc.chunks = 800;
      workload::install_pure_compute(k, pc);
    };
  } else if (std::string_view(workload) == "sync-heavy (fluidanimate)") {
    exp.machine = hw::MachineSpec::small(4);
    exp.vcpus = 4;
    exp.attach_disk = true;
    exp.setup = [](guest::GuestKernel& k) {
      workload::install_parsec(k, workload::parsec_profile("fluidanimate"), 4);
    };
  } else {
    exp.machine = hw::MachineSpec::small(1);
    exp.vcpus = 1;
    exp.attach_disk = true;
    exp.setup = [](guest::GuestKernel& k) {
      workload::FioSpec spec;
      spec.ops = 1500;
      workload::install_fio(k, spec);
    };
  }
}

}  // namespace

int main(int argc, char** argv) {
  const core::SweepCli cli = core::SweepCli::parse(argc, argv);

  core::SweepConfig cfg;
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kFullDynticks, guest::TickMode::kParatick};
  for (const char* workload : kWorkloads) {
    cfg.variants.push_back({workload, [workload](core::ExperimentSpec& exp) {
                              apply_workload(workload, exp);
                            }});
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  metrics::Table t({"workload", "policy", "exits", "timer exits", "busy Mcycles",
                    "exec ms"});
  for (const char* workload : kWorkloads) {
    for (auto mode : {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
                      guest::TickMode::kFullDynticks, guest::TickMode::kParatick}) {
      const auto* cell = res.find(workload, mode);
      t.add_row({workload, std::string(guest::to_string(mode)),
                 bench::mean_ci(cell->exits_total),
                 bench::mean_ci(cell->exits_timer),
                 metrics::format("%.1f", cell->busy_cycles.mean() / 1e6),
                 cell->exec_time_ms.count() > 0
                     ? bench::mean_ci(cell->exec_time_ms, 2)
                     : std::string("-")});
    }
  }
  return bench::report(
      cli, res, "==== Ablation: NO_HZ_FULL vs the paper's policies ====",
      {{"", t,
        "\nNO_HZ_FULL matches paratick only for pinned single-task guests (its design\n"
        "target); under blocking sync or sync I/O it degenerates to dynticks-idle\n"
        "because every adaptive tick decision is still a TSC_DEADLINE write — i.e.\n"
        "a VM exit. Paratick is the only policy whose cost does not scale with the\n"
        "idle-transition rate (paper §4.2).\n"}});
}
