// Reproduces paper Figure 5 + Table 3: multithreaded PARSEC under
// paratick vs vanilla dynticks, in three VM sizes:
//   small  = 4 vCPUs  (1 NUMA socket)
//   medium = 16 vCPUs (2 sockets)
//   large  = 64 vCPUs (4 sockets)
//
// Prints one figure row per benchmark (relative VM exits / throughput /
// execution time) and the Table 3 aggregate per size. All sizes run in a
// single deterministic parallel sweep (variant = "<size>/<benchmark>").
//
// Usage: bench_fig5_multithreaded [small|medium|large|all] [benchmark]
//        [--csv] [-j N] [--repeat N] [--seed S] [--sweep-csv P] [--sweep-json P]
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/sweep.hpp"
#include "workload/parsec.hpp"

using namespace paratick;

namespace {

struct SizeSpec {
  const char* name;
  int vcpus;
  std::uint32_t sockets;
  bench::PaperRow paper;
};

constexpr SizeSpec kSizes[] = {
    {"small", 4, 1, {"Table 3 small", -42.0, +12.0, -1.0}},
    {"medium", 16, 2, {"Table 3 medium", -47.0, +13.0, -3.0}},
    {"large", 64, 4, {"Table 3 large", -44.0, +16.0, -1.0}},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> sizes{"all"};
  for (const auto& size : kSizes) sizes.emplace_back(size.name);
  std::vector<std::string> benchmarks;
  for (const auto& profile : workload::parsec_suite()) benchmarks.emplace_back(profile.name);
  const core::SweepCli cli = core::SweepCli::parse(
      argc, argv, {}, {{"size", sizes}, {"benchmark", benchmarks}});
  const char* size_arg = !cli.positional.empty() ? cli.positional[0].c_str() : "all";
  const char* bench_arg =
      cli.positional.size() > 1 ? cli.positional[1].c_str() : nullptr;

  core::SweepConfig cfg;
  cfg.base.attach_disk = true;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.root_seed = 1234;

  struct Row {
    const SizeSpec* size;
    std::string variant;
    std::string benchmark;
  };
  std::vector<Row> rows;
  for (const auto& size : kSizes) {
    if (std::strcmp(size_arg, "all") != 0 && std::strcmp(size_arg, size.name) != 0)
      continue;
    for (const auto& profile : workload::parsec_suite()) {
      if (bench_arg != nullptr && profile.name != bench_arg) continue;
      std::string variant = std::string(size.name) + "/" + std::string(profile.name);
      rows.push_back({&size, variant, std::string(profile.name)});
      cfg.variants.push_back(
          {std::move(variant), [&size, &profile](core::ExperimentSpec& exp) {
             exp.machine =
                 hw::MachineSpec{size.sockets,
                                 static_cast<std::uint32_t>(size.vcpus) / size.sockets,
                                 sim::CpuFrequency{2.0}, sim::SimTime::ns(300)};
             exp.vcpus = size.vcpus;
             exp.setup = [&profile, &size](guest::GuestKernel& k) {
               workload::install_parsec(k, profile, size.vcpus);
             };
           }});
    }
  }
  cli.apply(cfg);

  const core::SweepResult res = cli.run_sweep(std::move(cfg));
  std::vector<bench::Section> sections;
  for (const auto& size : kSizes) {
    if (std::strcmp(size_arg, "all") != 0 && std::strcmp(size_arg, size.name) != 0)
      continue;
    metrics::Table fig({"benchmark", "VM exits", "throughput", "exec time"});
    std::vector<metrics::Comparison> comparisons;
    for (const auto& row : rows) {
      if (row.size != &size) continue;
      const metrics::Comparison c = res.compare(
          row.variant, guest::TickMode::kDynticksIdle, guest::TickMode::kParatick);
      fig.add_row(bench::figure_row(row.benchmark, c));
      comparisons.push_back(c);
    }
    sections.push_back(
        {metrics::format("%s==== %s VM (%d vCPUs) ====\n",
                         sections.empty() ? "" : "\n", size.name, size.vcpus),
         std::move(fig),
         bench::aggregate_note("Aggregate (Table 3 row)", size.paper,
                               metrics::average(comparisons))});
  }
  return bench::report(
      cli, res, "==== Figure 5 / Table 3: multithreaded PARSEC ====", sections);
}
