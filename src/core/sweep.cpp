#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "core/cli_parse.hpp"
#include "core/replay.hpp"
#include "core/safe_io.hpp"
#include "core/scenarios.hpp"
#include "core/sweep_plan.hpp"
#include "core/thread_pool.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"

namespace paratick::core {

namespace {

double pct_ratio(double treatment, double baseline) {
  if (baseline == 0.0) return 0.0;
  return (treatment / baseline - 1.0) * 100.0;
}

void progress_line(const SweepPlan& plan, const SweepRun& run,
                   std::size_t finished, std::size_t total) {
  std::fprintf(stderr, "[sweep %zu/%zu] %s r%d seed=%016llx %.2fs%s%s\n",
               finished, total, plan.cell_keys()[run.cell].label().c_str(),
               run.replica, static_cast<unsigned long long>(run.seed),
               run.host_seconds, run.ok ? "" : " FAIL:",
               run.ok ? "" : RunFailure::kind_name(run.failure->kind));
}

}  // namespace

const char* RunFailure::kind_name(Kind k) {
  switch (k) {
    case Kind::kCheck: return "check";
    case Kind::kWatchdog: return "watchdog";
    case Kind::kTimeout: return "timeout";
    case Kind::kException: return "exception";
    case Kind::kDivergence: return "divergence";
  }
  return "?";
}

RunFailure::Kind RunFailure::kind_from_name(const std::string& name) {
  for (const Kind k : {Kind::kCheck, Kind::kWatchdog, Kind::kTimeout,
                       Kind::kException, Kind::kDivergence}) {
    if (name == kind_name(k)) return k;
  }
  PARATICK_CHECK_MSG(false, ("unknown failure kind: " + name).c_str());
  return Kind::kException;
}

std::string SweepCellKey::label() const {
  std::string out = variant.empty() ? "base" : variant;
  out += '/';
  out += guest::to_string(mode);
  out += metrics::format(" f=%gHz v=%d", tick_freq_hz, vcpus);
  if (overcommit > 0.0) out += metrics::format(" oc=%g", overcommit);
  return out;
}

namespace {

/// The merge layer: build one empty summary per key of `keys` (grid
/// order) into res.cells, then fold res.runs into them strictly in
/// run-index order.
void aggregate_sweep_runs(SweepResult& res,
                          const std::vector<SweepCellKey>& keys) {
  res.cells.clear();
  res.cells.reserve(keys.size());
  for (const SweepCellKey& key : keys) {
    SweepCellSummary cell;
    cell.key = key;
    res.cells.push_back(std::move(cell));
  }
  // Fold strictly in run-index order so replica merges are deterministic
  // for any thread count. Failed replicas only bump the degradation
  // counters; every mean/histogram covers survivors only.
  for (const SweepRun& r : res.runs) {
    SweepCellSummary& cell = res.cells[r.cell];
    if (!r.ok) {
      ++cell.replicas_failed;
      if (r.failure && r.failure->kind == RunFailure::Kind::kTimeout) {
        ++cell.replicas_timed_out;
      }
      continue;
    }
    cell.exits_total.add(static_cast<double>(r.result.exits_total));
    cell.exits_timer.add(static_cast<double>(r.result.exits_timer_related));
    cell.busy_cycles.add(static_cast<double>(r.result.busy_cycles().count()));
    if (const auto ct = r.result.completion_time()) {
      cell.exec_time_ms.add(ct->milliseconds());
    }
    for (std::size_t i = 0; i < hw::kExitCauseCount; ++i) {
      cell.exits_by_cause[i].add(static_cast<double>(r.result.exits_by_cause[i]));
    }
    for (std::size_t i = 0; i < hw::kCycleCategoryCount; ++i) {
      cell.cycles[i].add(static_cast<double>(
          r.result.cycles.total(static_cast<hw::CycleCategory>(i)).count()));
    }
    sim::SimTime run_steal = sim::SimTime::zero();
    sim::SimTime run_est_err = sim::SimTime::zero();
    bool has_estimate = false;
    std::uint64_t ticks = 0, virtual_ticks = 0, wakes = 0;
    for (const auto& vm : r.result.vms) {
      cell.wakeup_latency_us.merge(vm.wakeup_latency_us);
      cell.wake_hist_us.merge(vm.wakeup_latency_hist_us);
      cell.tick_intervals_us.merge(vm.tick_intervals_us);
      ticks += vm.policy.ticks_handled;
      virtual_ticks += vm.policy.virtual_ticks;
      wakes += vm.wakeup_latency_us.count();
      run_steal += vm.steal_time;
      if (vm.steal_estimate) {
        has_estimate = true;
        run_est_err += *vm.steal_estimate - vm.steal_time;
      }
    }
    cell.ticks.add(static_cast<double>(ticks));
    cell.virtual_ticks.add(static_cast<double>(virtual_ticks));
    cell.wakes.add(static_cast<double>(wakes));
    cell.steal_ms.add(run_steal.milliseconds());
    if (has_estimate) cell.steal_est_err_ms.add(run_est_err.milliseconds());
    cell.events_executed.add(static_cast<double>(r.result.events_executed));
    cell.cb_spills.add(static_cast<double>(r.result.callback_spills));
    cell.cb_spill_bytes.add(static_cast<double>(r.result.callback_spill_bytes));
    cell.slot_high_water.add(static_cast<double>(r.result.slot_high_water));
    cell.compactions.add(static_cast<double>(r.result.queue_compactions));
    cell.par_windows.add(static_cast<double>(r.result.par_windows));
    cell.par_windows_skipped.add(
        static_cast<double>(r.result.par_windows_skipped));
    // First *surviving* replica — identical to replica 0 when nothing fails.
    if (cell.exits_total.count() == 1) cell.first = r.result;
  }
}

}  // namespace

SweepRunner::SweepRunner(SweepConfig cfg) : cfg_(std::move(cfg)) {
  PARATICK_CHECK_MSG(cfg_.repeat >= 1, "sweep repeat must be >= 1");
}

SweepResult SweepRunner::run() const {
  PARATICK_CHECK_MSG(cfg_.observer == nullptr,
                     "SweepConfig::observer is for one run (execute_run); "
                     "run() would share it across concurrent engines");
  const SweepPlan plan = SweepPlan::make(cfg_);

  SweepResult res;
  res.runs.resize(plan.total_runs());
  res.threads_used = cfg_.threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : cfg_.threads;

  std::mutex progress_mu;
  std::atomic<std::size_t> done{0};
  const std::size_t total = res.runs.size();

  const auto sweep_start = std::chrono::steady_clock::now();
  parallel_for_index(total, res.threads_used, [&](std::size_t i) {
    SweepRun& out = res.runs[i];
    const auto t0 = std::chrono::steady_clock::now();
    out = plan.execute(i);
    out.host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (cfg_.progress) {
      const std::size_t finished = done.fetch_add(1) + 1;
      std::scoped_lock lock(progress_mu);
      progress_line(plan, out, finished, total);
    }
  });
  res.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sweep_start)
                         .count();

  aggregate_sweep_runs(res, plan.cell_keys());

  // Replay bundles for failed runs, written in run-index order so bundle
  // file names are deterministic.
  if (!cfg_.failure_dir.empty()) {
    for (SweepRun& r : res.runs) {
      if (r.ok || !r.failure) continue;
      r.bundle_path = write_replay_bundle(cfg_, r);
      if (cfg_.progress) {
        std::fprintf(stderr, "sweep: replay bundle -> %s\n", r.bundle_path.c_str());
      }
    }
  }
  return res;
}

SweepRun SweepRunner::execute_run(std::size_t run_index) const {
  const SweepPlan plan = SweepPlan::make(cfg_);
  PARATICK_CHECK_MSG(run_index < plan.total_runs(),
                     "execute_run: index out of range");
  return plan.execute(run_index);
}

std::size_t SweepResult::executed_run_count() const {
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (r.executed) ++n;
  }
  return n;
}

const SweepCellSummary* SweepResult::find(const std::string& variant,
                                          guest::TickMode mode) const {
  for (const auto& cell : cells) {
    if (cell.key.variant == variant && cell.key.mode == mode) return &cell;
  }
  return nullptr;
}

std::vector<const SweepRun*> SweepResult::failed_runs() const {
  std::vector<const SweepRun*> out;
  for (const auto& r : runs) {
    if (!r.ok && r.failure) {
      out.push_back(&r);
    }
  }
  return out;
}

std::size_t SweepResult::ok_run_count() const {
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (r.ok) ++n;
  }
  return n;
}

std::size_t SweepResult::degraded_cell_count() const {
  std::size_t n = 0;
  for (const auto& cell : cells) {
    if (cell.degraded()) ++n;
  }
  return n;
}

metrics::Comparison SweepResult::compare_cells(const SweepCellSummary& baseline,
                                               const SweepCellSummary& treatment) {
  metrics::Comparison c;
  c.exit_delta_pct = pct_ratio(treatment.exits_total.mean(), baseline.exits_total.mean());
  c.timer_exit_delta_pct =
      pct_ratio(treatment.exits_timer.mean(), baseline.exits_timer.mean());
  const double treat_busy = treatment.busy_cycles.mean();
  c.throughput_gain_pct =
      treat_busy > 0.0 ? (baseline.busy_cycles.mean() / treat_busy - 1.0) * 100.0 : 0.0;
  if (baseline.exec_time_ms.count() > 0 && treatment.exec_time_ms.count() > 0) {
    c.exec_time_delta_pct =
        pct_ratio(treatment.exec_time_ms.mean(), baseline.exec_time_ms.mean());
  }
  return c;
}

metrics::Comparison SweepResult::compare(const std::string& variant,
                                         guest::TickMode baseline,
                                         guest::TickMode treatment) const {
  const SweepCellSummary* base = find(variant, baseline);
  const SweepCellSummary* treat = find(variant, treatment);
  PARATICK_CHECK_MSG(base != nullptr && treat != nullptr,
                     "compare(): no such variant/mode cell in sweep");
  return compare_cells(*base, *treat);
}

std::string SweepResult::to_csv() const {
  std::string out =
      "variant,mode,tick_freq_hz,vcpus,overcommit,replicas,"
      "exits_mean,exits_stddev,timer_exits_mean,timer_exits_stddev,"
      "busy_mcycles_mean,busy_mcycles_stddev,exec_ms_mean,exec_ms_stddev,"
      "wake_us_mean,wake_us_max,steal_ms_mean,steal_est_err_ms_mean,"
      "failed,timed_out\n";
  for (const auto& cell : cells) {
    // Variant names come from user code (benchmark labels, device names)
    // and may carry commas/quotes/newlines — escape per RFC 4180.
    out += metrics::csv_field(cell.key.variant.empty() ? "base" : cell.key.variant);
    out += ',';
    out += metrics::csv_field(std::string(guest::to_string(cell.key.mode)));
    out += metrics::format(
        ",%g,%d,%g,%llu,%.0f,%.1f,%.0f,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,"
        "%.3f,%.3f,%llu,%llu\n",
        cell.key.tick_freq_hz, cell.key.vcpus, cell.key.overcommit,
        static_cast<unsigned long long>(cell.exits_total.count()),
        cell.exits_total.mean(), cell.exits_total.stddev(),
        cell.exits_timer.mean(), cell.exits_timer.stddev(),
        cell.busy_cycles.mean() / 1e6, cell.busy_cycles.stddev() / 1e6,
        cell.exec_time_ms.mean(), cell.exec_time_ms.stddev(),
        cell.wakeup_latency_us.mean(), cell.wakeup_latency_us.max(),
        cell.steal_ms.mean(), cell.steal_est_err_ms.mean(),
        static_cast<unsigned long long>(cell.replicas_failed),
        static_cast<unsigned long long>(cell.replicas_timed_out));
  }
  return out;
}

std::string SweepResult::to_json() const {
  // Deliberately no wall_seconds/threads here: the export is a pure
  // function of the cells, so sweeps at any -j produce byte-identical
  // documents (asserted in test_sweep and the CI determinism smoke).
  std::string out = "{\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = cells[i];
    out += metrics::format(
        "    {\"variant\": \"%s\", \"mode\": \"%s\", \"tick_freq_hz\": %g, "
        "\"vcpus\": %d, \"overcommit\": %g, \"replicas\": %llu, "
        "\"failed\": %llu, \"timed_out\": %llu, "
        "\"exits\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"timer_exits\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"busy_cycles\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"exec_ms\": {\"mean\": %.4f, \"stddev\": %.4f, \"n\": %llu}, "
        "\"wake_us\": {\"mean\": %.4f, \"stddev\": %.4f, \"max\": %.4f, \"n\": %llu}, "
        // Engine self-profile: deterministic counters only (engine wall
        // time would break the byte-identity of this export).
        "\"events\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"cb_spills\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"cb_spill_bytes\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"slot_high_water\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"compactions\": {\"mean\": %.1f, \"stddev\": %.2f}, "
        "\"steal_ms\": {\"mean\": %.4f, \"stddev\": %.4f}, "
        "\"steal_est_err_ms\": {\"mean\": %.4f, \"stddev\": %.4f, \"n\": %llu}, "
        "\"wake_us_hist\": {\"buckets\": [",
        metrics::json_escape(cell.key.variant.empty() ? "base" : cell.key.variant).c_str(),
        std::string(guest::to_string(cell.key.mode)).c_str(),
        cell.key.tick_freq_hz, cell.key.vcpus, cell.key.overcommit,
        static_cast<unsigned long long>(cell.exits_total.count()),
        static_cast<unsigned long long>(cell.replicas_failed),
        static_cast<unsigned long long>(cell.replicas_timed_out),
        cell.exits_total.mean(), cell.exits_total.stddev(),
        cell.exits_timer.mean(), cell.exits_timer.stddev(),
        cell.busy_cycles.mean(), cell.busy_cycles.stddev(),
        cell.exec_time_ms.mean(), cell.exec_time_ms.stddev(),
        static_cast<unsigned long long>(cell.exec_time_ms.count()),
        cell.wakeup_latency_us.mean(), cell.wakeup_latency_us.stddev(),
        cell.wakeup_latency_us.max(),
        static_cast<unsigned long long>(cell.wakeup_latency_us.count()),
        cell.events_executed.mean(), cell.events_executed.stddev(),
        cell.cb_spills.mean(), cell.cb_spills.stddev(),
        cell.cb_spill_bytes.mean(), cell.cb_spill_bytes.stddev(),
        cell.slot_high_water.mean(), cell.slot_high_water.stddev(),
        cell.compactions.mean(), cell.compactions.stddev(),
        cell.steal_ms.mean(), cell.steal_ms.stddev(),
        cell.steal_est_err_ms.mean(), cell.steal_est_err_ms.stddev(),
        static_cast<unsigned long long>(cell.steal_est_err_ms.count()));
    const auto& buckets = cell.wake_hist_us.buckets();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      out += metrics::format("%s%llu", b == 0 ? "" : ",",
                             static_cast<unsigned long long>(buckets[b]));
    }
    out += "]}";
    if (cell.par_windows.max() > 0.0) {
      // Parallel-engine round counters. They appear only in cells that
      // ran the partitioned engine, so single-engine sweep snapshots (and
      // their committed baselines) stay unchanged.
      out += metrics::format(
          ", \"par_windows\": {\"mean\": %.1f, \"stddev\": %.2f}, "
          "\"par_windows_skipped\": {\"mean\": %.1f, \"stddev\": %.2f}",
          cell.par_windows.mean(), cell.par_windows.stddev(),
          cell.par_windows_skipped.mean(), cell.par_windows_skipped.stddev());
    }
    out += metrics::format("}%s\n", i + 1 < cells.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

namespace {

/// The flags every sweep binary shares, writing into `cli`.
std::vector<CliFlag> shared_sweep_flags(SweepCli& cli) {
  std::vector<CliFlag> flags = {
      uint_flag("-j", "N",
                "worker threads (also -jN; default: all cores)",
                cli.threads),
      uint_flag("--repeat", "N", "seed replicas per cell (default 1)",
                cli.repeat, 1),
      {"--seed", "S", "root seed (decimal or 0x hex)",
       [&cli](const std::string& v) {
         cli.root_seed = parse_u64_flag("--seed", v, ~0ull, 0);
       }},
      switch_flag("--csv", "machine-readable stdout (per-bench table)",
                  cli.csv),
      switch_flag("--quiet", "suppress per-run progress lines (stderr)",
                  cli.progress, false),
      text_flag("--sweep-csv", "P", "export the per-cell grid as CSV to P",
                cli.sweep_csv),
      text_flag("--sweep-json", "P", "export the per-cell grid as JSON to P",
                cli.sweep_json),
      switch_flag("--profile", "print the engine hot-path profile",
                  cli.profile),
      switch_flag("--chaos", "default fault mix", cli.chaos),
      text_flag("--failure-dir", "D", "write a replay bundle per failed run",
                cli.failure_dir),
      switch_flag("--record-trace", "record an event trace per run",
                  cli.record_trace),
      double_flag("--run-timeout", "S", "per-run wall-clock budget in seconds",
                  cli.run_timeout_sec),
  };
  for (CliFlag& f : fault_knob_flags(cli.fault_overrides)) {
    flags.push_back(std::move(f));
  }
  return flags;
}

}  // namespace

SweepCli SweepCli::parse(int argc, char** argv, std::vector<CliFlag> extra,
                         const std::vector<CliSlot>& slots) {
  SweepCli cli;
  std::vector<CliFlag> flags = shared_sweep_flags(cli);
  for (CliFlag& f : extra) flags.push_back(std::move(f));
  cli.positional = parse_cli(argc, argv, flags, slots);
  return cli;
}

void SweepCli::apply(SweepConfig& cfg) const {
  cfg.threads = threads;
  cfg.repeat = repeat;
  cfg.progress = progress;
  if (root_seed) cfg.root_seed = *root_seed;
  if (chaos) cfg.fault = default_chaos_faults();
  if (!failure_dir.empty()) cfg.failure_dir = failure_dir;
  if (record_trace) cfg.record_trace = true;
  if (run_timeout_sec > 0.0) cfg.run_timeout_sec = run_timeout_sec;
  for (const auto& [knob, value] : fault_overrides) {
    set_fault_knob(cfg.fault, knob, value);
  }
}

SweepResult SweepCli::run_sweep(SweepConfig cfg) const {
  return SweepRunner(std::move(cfg)).run();
}

void SweepCli::export_results(const SweepResult& result) const {
  if (!sweep_csv.empty()) write_file_atomic(sweep_csv, result.to_csv());
  if (!sweep_json.empty()) write_file_atomic(sweep_json, result.to_json());
  if (progress && (!sweep_csv.empty() || !sweep_json.empty())) {
    std::fprintf(stderr, "sweep: %zu runs in %.2fs on %u thread workers%s%s%s%s\n",
                 result.runs.size(), result.wall_seconds, result.threads_used,
                 sweep_csv.empty() ? "" : ", csv -> ",
                 sweep_csv.c_str(),
                 sweep_json.empty() ? "" : ", json -> ",
                 sweep_json.c_str());
  }
  if (profile) {
    // Engine self-profile, aggregated over every surviving run. Only
    // events/sec depends on host wall time; everything above it is
    // deterministic and doubles as a "zero spills" acceptance check.
    std::uint64_t events = 0, scheduled = 0, cancelled = 0;
    std::uint64_t spills = 0, spill_bytes = 0, compactions = 0;
    std::uint64_t high_water = 0, wall_ns = 0;
    std::uint64_t par_windows = 0, par_skipped = 0;
    for (const auto& run : result.runs) {
      if (!run.ok) continue;
      events += run.result.events_executed;
      scheduled += run.result.events_scheduled;
      cancelled += run.result.events_cancelled;
      spills += run.result.callback_spills;
      spill_bytes += run.result.callback_spill_bytes;
      compactions += run.result.queue_compactions;
      if (run.result.slot_high_water > high_water)
        high_water = run.result.slot_high_water;
      par_windows += run.result.par_windows;
      par_skipped += run.result.par_windows_skipped;
      wall_ns += run.result.engine_wall_ns;
    }
    std::printf("engine profile (%zu runs)\n", result.runs.size());
    std::printf("  events executed      %20llu\n",
                static_cast<unsigned long long>(events));
    std::printf("  events scheduled     %20llu\n",
                static_cast<unsigned long long>(scheduled));
    std::printf("  events cancelled     %20llu\n",
                static_cast<unsigned long long>(cancelled));
    std::printf("  callback heap spills %20llu\n",
                static_cast<unsigned long long>(spills));
    std::printf("  callback spill bytes %20llu\n",
                static_cast<unsigned long long>(spill_bytes));
    std::printf("  slot-map high water  %20llu\n",
                static_cast<unsigned long long>(high_water));
    std::printf("  heap compactions     %20llu\n",
                static_cast<unsigned long long>(compactions));
    if (par_windows > 0) {
      // Parallel-engine round counters (only when something actually ran
      // the partitioned engine).
      std::printf("  parallel windows     %20llu\n",
                  static_cast<unsigned long long>(par_windows));
      std::printf("  windows skipped      %20llu\n",
                  static_cast<unsigned long long>(par_skipped));
    }
    if (wall_ns > 0) {
      std::printf("  events/sec (engine)  %20.0f\n",
                  static_cast<double>(events) /
                      (static_cast<double>(wall_ns) * 1e-9));
    }
  }
}

}  // namespace paratick::core
