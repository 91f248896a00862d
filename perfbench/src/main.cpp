// paratick_perfbench: time the paper's sweeps end to end and layer by
// layer, check their outputs, and print one JSON result line.
//
// Usage:
//   paratick_perfbench --workload parsec_mt|timer_io|cluster_oc|all
//                      --seed N --seconds S --trace 0|1
//                      [--trace-out FILE] [--csv-dir DIR]
//
// Untraced passes repeat while another fits in S seconds (at least
// kMinPasses); wall_s takes each simulation run at its fastest over
// them, the other end-to-end metrics are medians over them. With --trace 1, traced passes (engine
// observer attached) alternate with the untraced ones; the JSON line then
// carries the per-layer metrics instead, and the last traced pass is
// written as Chrome trace-event JSON to --trace-out.
// --csv-dir writes each sweep's to_csv() from the last untraced pass as
// DIR/<sweep>_sweep.csv. The process exits 0 only when every run
// succeeded and every output check passed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "harness.hpp"
#include "hw/cycle_ledger.hpp"
#include "metrics/report.hpp"
#include "sim/error.hpp"

namespace {

using namespace perfbench;
namespace guest = paratick::guest;
namespace hw = paratick::hw;
namespace metrics = paratick::metrics;

constexpr std::size_t kMinPasses = 3;
/// No cycle may start that would end past this: a run must finish within
/// three minutes even on a host several times slower than expected.
constexpr double kMaxSeconds = 150.0;

struct Metric {
  Metric(std::string name_, std::string unit_, double value_, bool in_json_ = true,
         std::string note_ = {})
      : name(std::move(name_)),
        unit(std::move(unit_)),
        value(value_),
        in_json(in_json_),
        note(std::move(note_)) {}

  std::string name;
  std::string unit;
  double value;
  bool in_json;  // false: printed only (not measurable on every workload)
  std::string note;
};

/// The scalars kept from each pass (full results are dropped, so memory
/// does not grow with the number of passes).
struct PassSummary {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double export_s = 0.0;
  std::uint64_t allocs = 0;
  double worker_idle_share = 0.0;
  LayerTotals layers;
  std::uint64_t digest = 0;
  std::size_t runs = 0;
  std::size_t runs_failed = 0;
  /// Each run's host seconds over its sweep's worker count, in run order:
  /// they sum to the pass's simulation time if the workers packed
  /// perfectly. The rest of the wall time is outside_runs_s.
  std::vector<double> run_share_s;
  double outside_runs_s = 0.0;
};

PassSummary summarize(const PassResult& p) {
  PassSummary s;
  double packed = 0.0, run_host = 0.0, worker_wall = 0.0;
  for (const auto& [sweep_name, res] : p.sweeps) {
    const auto workers = static_cast<double>(res.threads_used);
    for (const core::SweepRun& r : res.runs) {
      s.run_share_s.push_back(r.host_seconds / workers);
      packed += s.run_share_s.back();
      run_host += r.host_seconds;
    }
    worker_wall += workers * res.wall_seconds;
  }
  s.outside_runs_s = p.wall_s - packed;
  s.worker_idle_share = worker_wall > 0.0 ? 1.0 - run_host / worker_wall : 0.0;
  s.wall_s = p.wall_s;
  s.cpu_s = p.cpu_s;
  s.export_s = p.export_s;
  s.allocs = p.allocs;
  s.layers = p.layers;
  s.digest = p.digest;
  s.runs = p.runs;
  s.runs_failed = p.runs_failed;
  return s;
}

template <typename F>
double median_of(const std::vector<PassSummary>& passes, F&& f) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const PassSummary& p : passes) v.push_back(static_cast<double>(f(p)));
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double min_of(const std::vector<PassSummary>& passes, F&& f) {
  double best = passes.empty() ? 0.0 : static_cast<double>(f(passes.front()));
  for (const PassSummary& p : passes) best = std::min(best, static_cast<double>(f(p)));
  return best;
}

/// This process image's resident-set high-water mark (VmHWM). Not
/// getrusage's ru_maxrss: that survives execve, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Paper aggregate VM-exit deltas shown next to the simulated timer-exit
/// delta (Tables 3 and 4; the cluster has no paper counterpart).
const char* paper_note(Workload w) {
  switch (w) {
    case Workload::kParsecMt:
      return "paper Table 3 VM exits: medium -47%, large -44%";
    case Workload::kTimerIo:
      return "paper Table 4 VM exits: -34%";
    case Workload::kClusterOc:
      return "no paper counterpart";
  }
  return "";
}

/// A pass's wall time with every run at its fastest over the passes, plus
/// the fastest time any pass spent outside its runs. Noise on a shared
/// host only ever adds time and comes in bursts shorter than a pass, so
/// per-run minima are far steadier than any statistic of whole passes.
double quiet_wall_s(const std::vector<PassSummary>& passes) {
  double wall = min_of(passes, [](const PassSummary& p) { return p.outside_runs_s; });
  for (std::size_t i = 0; i < passes.front().run_share_s.size(); ++i) {
    wall += min_of(passes, [i](const PassSummary& p) { return p.run_share_s[i]; });
  }
  return wall;
}

std::vector<Metric> end_to_end_metrics(const std::vector<PassSummary>& untraced,
                                       double rss_mb) {
  return {
      {"wall_s", "s", quiet_wall_s(untraced)},
      {"setup_s", "s",
       median_of(untraced, [](const PassSummary& p) { return p.layers.setup_s(); })},
      {"heap_allocs", "count",
       median_of(untraced, [](const PassSummary& p) { return p.allocs; })},
      {"peak_rss_mb", "MB", rss_mb},
  };
}

std::vector<Metric> layer_metrics(Workload w, const PassResult& last,
                                  const std::vector<PassSummary>& untraced,
                                  const std::vector<PassSummary>& traced) {
  const auto med = [&](auto f) { return median_of(untraced, f); };
  const LayerTotals& L = last.layers;
  const bool cluster = w == Workload::kClusterOc;

  // Deterministic totals over every run of the last untraced pass.
  double events = 0, scheduled = 0, cancelled = 0, spills = 0, slot_hw = 0;
  double exits = 0, timer_exits = 0;
  std::array<double, hw::kExitCauseCount> by_cause{};
  std::array<double, hw::kCycleCategoryCount> cycles{};
  double ticks = 0, vticks = 0, msr = 0, msr_avoided = 0, idle = 0, wakes = 0;
  double steal_truth = 0, steal_abs_err = 0;
  double dyn_timer = 0, para_timer = 0;
  for (const auto& [sweep_name, res] : last.sweeps) {
    for (const core::SweepRun& r : res.runs) {
      if (!r.executed || !r.ok) continue;
      const metrics::RunResult& m = r.result;
      events += static_cast<double>(m.events_executed);
      scheduled += static_cast<double>(m.events_scheduled);
      cancelled += static_cast<double>(m.events_cancelled);
      spills += static_cast<double>(m.callback_spills);
      slot_hw = std::max(slot_hw, static_cast<double>(m.slot_high_water));
      exits += static_cast<double>(m.exits_total);
      timer_exits += static_cast<double>(m.exits_timer_related);
      for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
        by_cause[c] += static_cast<double>(m.exits_by_cause[c]);
      }
      for (std::size_t c = 0; c < hw::kCycleCategoryCount; ++c) {
        cycles[c] += static_cast<double>(
            m.cycles.total(static_cast<hw::CycleCategory>(c)).count());
      }
      for (const metrics::VmResult& vm : m.vms) {
        ticks += static_cast<double>(vm.policy.ticks_handled);
        vticks += static_cast<double>(vm.policy.virtual_ticks);
        msr += static_cast<double>(vm.policy.msr_writes);
        msr_avoided += static_cast<double>(vm.policy.msr_writes_avoided);
        idle += static_cast<double>(vm.policy.idle_entries);
        wakes += static_cast<double>(vm.task_wakes);
        if (vm.steal_estimate) {
          const double truth = vm.steal_time.seconds();
          steal_truth += truth;
          steal_abs_err += std::abs(vm.steal_estimate->seconds() - truth);
        }
      }
    }
    // Matched dynticks/paratick cells, for the timer-exit delta.
    for (const core::SweepCellSummary& base : res.cells) {
      if (base.key.mode != guest::TickMode::kDynticksIdle) continue;
      for (const core::SweepCellSummary& treat : res.cells) {
        if (treat.key.mode == guest::TickMode::kParatick &&
            same_cell_but_mode(base.key, treat.key)) {
          dyn_timer += base.exits_timer.mean();
          para_timer += treat.exits_timer.mean();
        }
      }
    }
  }

  const double run_s = med([](const PassSummary& p) { return p.layers.run_s; });
  const char* inside_cluster = "inside Cluster::run for cluster_oc";
  std::vector<Metric> out = {
      {"sim.run_s", "s", run_s},
      {"sim.events", "count", events},
      {"sim.ns_per_event", "ns", ratio(run_s * 1e9, events)},
      {"sim.allocs_per_event", "allocs/event",
       ratio(static_cast<double>(L.run_allocs), events)},
      {"sim.scheduled", "count", scheduled},
      {"sim.cancelled", "count", cancelled},
      {"sim.spills", "count", spills},
      {"sim.slot_high_water", "count", slot_hw},
      {"par.run_s", "s", med([](const PassSummary& p) { return p.layers.par_run_s; }),
       false, "cluster_oc only"},
      {"par.windows", "count", static_cast<double>(L.par_windows)},
      {"par.windows_skipped", "count", static_cast<double>(L.par_windows_skipped)},
      {"par.barriers_elided", "count", static_cast<double>(L.par_barriers_elided)},
      {"par.cross_messages", "count", static_cast<double>(L.par_cross_messages)},
      {"par.events_per_window", "events/window",
       ratio(static_cast<double>(L.par_events), static_cast<double>(L.par_windows))},
      {"hv.exits", "count", exits},
      {"hv.timer_exits", "count", timer_exits},
  };
  for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
    out.push_back({"hv.exits." + std::string(hw::to_string(static_cast<hw::ExitCause>(c))),
                   "count", by_cause[c]});
  }
  out.push_back({"hv.paratick_timer_exit_delta_pct", "%",
                 dyn_timer > 0.0 ? (para_timer / dyn_timer - 1.0) * 100.0 : 0.0, true,
                 paper_note(w)});
  out.insert(out.end(), {
      {"guest.ticks", "count", ticks},
      {"guest.virtual_ticks", "count", vticks},
      {"guest.msr_writes", "count", msr},
      {"guest.msr_writes_avoided", "count", msr_avoided},
      {"guest.idle_entries", "count", idle},
      {"guest.task_wakes", "count", wakes},
      {"guest.steal_est_err_pct", "%", ratio(steal_abs_err, steal_truth) * 100.0, true,
       "sum |estimate - truth| / sum truth; cluster_oc only"},
  });
  for (std::size_t c = 0; c < hw::kCycleCategoryCount; ++c) {
    out.push_back(
        {"hw.cycles." + std::string(hw::to_string(static_cast<hw::CycleCategory>(c))),
         "cycles", cycles[c]});
  }
  out.insert(out.end(), {
      {"workload.install_s", "s", med([](const PassSummary& p) { return p.layers.install_s; })},
      {"system.construct_s", "s",
       med([](const PassSummary& p) { return p.layers.construct_s; })},
      {"system.power_on_s", "s", med([](const PassSummary& p) { return p.layers.power_on_s; }),
       false, cluster ? inside_cluster : ""},
      {"system.setup_allocs", "count", static_cast<double>(L.construct_allocs)},
      {"metrics.collect_s", "s", med([](const PassSummary& p) { return p.layers.collect_s; }),
       false, cluster ? inside_cluster : ""},
      {"metrics.collect_allocs", "count", static_cast<double>(L.collect_allocs), false,
       cluster ? inside_cluster : ""},
      {"sweep.runs", "count", static_cast<double>(last.runs)},
      {"sweep.worker_idle_share", "fraction",
       med([](const PassSummary& p) { return p.worker_idle_share; })},
      {"sweep.export_s", "s", med([](const PassSummary& p) { return p.export_s; })},
      {"sweep.cpu_s", "s", med([](const PassSummary& p) { return p.cpu_s; })},
      {"cluster.migrations", "count", static_cast<double>(L.migrations)},
      {"cluster.rebalance_rounds", "count", static_cast<double>(L.rebalance_rounds)},
  });

  if (!traced.empty()) {
    const auto exit_ns = [](const PassSummary& p) {
      double n = 0, ns = 0;
      for (std::size_t c = 0; c + 1 < kEventClassCount; ++c) {
        n += static_cast<double>(p.layers.events.events[c]);
        ns += static_cast<double>(p.layers.events.ns[c]);
      }
      return ratio(ns, n);
    };
    const auto exit_share = [](const PassSummary& p) {
      double n = 0, all = 0;
      for (std::size_t c = 0; c < kEventClassCount; ++c) {
        const auto k = static_cast<double>(p.layers.events.events[c]);
        all += k;
        if (c + 1 < kEventClassCount) n += k;
      }
      return ratio(n, all);
    };
    const auto no_exit_ns = [](const PassSummary& p) {
      const std::size_t c = static_cast<std::size_t>(EventClass::kNoExit);
      return ratio(static_cast<double>(p.layers.events.ns[c]),
                   static_cast<double>(p.layers.events.events[c]));
    };
    const double untraced_wall = quiet_wall_s(untraced);
    const double traced_wall = quiet_wall_s(traced);
    out.insert(out.end(), {
        {"hv.exit_event_ns", "ns", median_of(traced, exit_ns)},
        {"hv.exit_event_share", "fraction", median_of(traced, exit_share)},
        {"trace.no_exit_event_ns", "ns", median_of(traced, no_exit_ns)},
        {"trace.overhead_pct", "%", (ratio(traced_wall, untraced_wall) - 1.0) * 100.0},
    });
    const PassSummary& t = traced.back();
    for (std::size_t c = 0; c < kEventClassCount; ++c) {
      out.push_back({std::string("trace.events.") + name(static_cast<EventClass>(c)),
                     "count", static_cast<double>(t.layers.events.events[c]), false});
    }
  }
  return out;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-36s %18.6g %-13s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : ms) {
    if (!m.in_json) continue;
    out += metrics::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  return out + "}";
}

struct Args {
  std::vector<Workload> workloads;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  std::string csv_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "paratick_perfbench: %s\n"
               "usage: paratick_perfbench --workload parsec_mt|timer_io|cluster_oc|all "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--csv-dir DIR]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  namespace pc = paratick::core;
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value == "all") {
        a.workloads.assign(kWorkloads.begin(), kWorkloads.end());
      } else if (const auto w = workload_from_name(value)) {
        a.workloads = {*w};
      } else {
        usage(("unknown workload: " + value).c_str());
      }
    } else if (flag == "--seed") {
      a.seed = pc::parse_u64_flag("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = pc::parse_double_flag("--seconds", value, 0.0);
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = pc::parse_u64_flag("--trace", value, 1) == 1;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--csv-dir") {
      a.csv_dir = value;
    } else {
      usage(("unknown flag: " + flag).c_str());
    }
  }
  if (a.workloads.empty() || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return a;
}

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome measure(Workload w, const Args& args) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };

  Outcome out;
  std::vector<PassSummary> untraced, traced;
  std::vector<std::string> failures;
  PassResult last;
  std::unique_ptr<TraceSink> last_sink;
  const auto record = [&](PassResult&& p, std::vector<PassSummary>& into) {
    for (const std::string& f : p.check_failures) failures.push_back(f);
    into.push_back(summarize(p));
    out.attempted += p.runs;
    out.failed += p.runs_failed;
    return std::move(p);
  };
  // Start another cycle only while one more fits in the time left.
  double cycle_s = 0.0;
  double rss_mb = 0.0;  // after the first pass: independent of the pass count
  const auto another = [&] {
    const double end = elapsed() + cycle_s;
    return untraced.empty() ||
           (untraced.size() < kMinPasses ? end <= kMaxSeconds : end <= args.seconds);
  };
  while (another()) {
    const double cycle_start = elapsed();
    last = record(run_pass(w, args.seed, nullptr), untraced);
    if (untraced.size() == 1) rss_mb = peak_rss_mb();
    if (args.trace) {
      auto sink = std::make_unique<TraceSink>();
      (void)record(run_pass(w, args.seed, sink.get()), traced);
      last_sink = std::move(sink);
    }
    cycle_s = elapsed() - cycle_start;
  }
  if (last_sink && !args.trace_out.empty()) {
    std::ofstream(args.trace_out, std::ios::trunc) << last_sink->to_json();
  }

  const std::uint64_t digest = untraced.front().digest;
  for (const PassSummary& p : untraced) {
    if (p.digest != digest) failures.push_back("untraced pass digests differ");
  }
  for (const PassSummary& p : traced) {
    if (p.digest != digest) failures.push_back("traced pass digest differs from untraced");
  }

  if (!args.csv_dir.empty()) {
    for (const auto& [sweep_name, csv] : last.csv) {
      std::ofstream(args.csv_dir + "/" + sweep_name + "_sweep.csv",
                    std::ios::binary | std::ios::trunc)
          << csv;
    }
  }

  std::printf("== perfbench %s seed=%llu: %zu untraced + %zu traced passes, "
              "%zu runs each, %.1f s ==\n",
              name(w), static_cast<unsigned long long>(args.seed), untraced.size(),
              traced.size(), untraced.back().runs, elapsed());
  const std::vector<Metric> e2e = end_to_end_metrics(untraced, rss_mb);
  const std::vector<Metric> layers = layer_metrics(w, last, untraced, traced);
  print_metrics("end-to-end (untraced; wall_s: runs at their fastest, others: median over "
                "passes):",
                e2e);
  std::printf("  %-36s %18zu %-13s\n", "runs_failed", out.failed, "count");
  std::vector<double> walls;
  for (const PassSummary& p : untraced) walls.push_back(p.wall_s);
  std::sort(walls.begin(), walls.end());
  std::printf("  pass wall time over %zu passes: min %.4f, median %.4f, max %.4f s\n",
              walls.size(), walls.front(), walls[walls.size() / 2], walls.back());
  print_metrics("per-layer:", layers);
  if (args.trace && !args.trace_out.empty()) {
    std::printf("trace: %s (Chrome trace-event JSON)\n", args.trace_out.c_str());
  }
  std::printf("digest: %016llx (all %zu passes identical: %s)\n",
              static_cast<unsigned long long>(digest), untraced.size() + traced.size(),
              failures.empty() ? "yes" : "see checks");
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
  if (failures.empty()) {
    std::printf("checks: all passed\n");
  } else {
    for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  out.correct = failures.empty() && out.failed == 0;
  out.metrics = args.trace ? layers : e2e;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const paratick::sim::SimError& e) {
    usage(e.what());
  }
  Outcome total;
  for (const Workload w : args.workloads) {
    Outcome o;
    try {
      o = measure(w, args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "paratick_perfbench: %s: %s\n", name(w), e.what());
      return 1;
    }
    total.correct = total.correct && o.correct;
    total.attempted += o.attempted;
    total.failed += o.failed;
    for (Metric& m : o.metrics) {
      if (args.workloads.size() > 1) m.name = std::string(name(w)) + "/" + m.name;
      total.metrics.push_back(std::move(m));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              total.correct ? "true" : "false", total.attempted, total.failed,
              json_metrics(total.metrics).c_str());
  return total.correct ? 0 : 1;
}
