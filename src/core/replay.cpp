#include "core/replay.hpp"

#include <filesystem>
#include <string>
#include <utility>

#include "core/json.hpp"
#include "core/safe_io.hpp"
#include "core/scenarios.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

namespace {

std::int64_t ns(sim::SimTime t) { return t.nanoseconds(); }

}  // namespace

std::string to_json(const ReplayBundle& b) {
  const fault::FaultConfig& f = b.fault;
  std::string out = "{\n  \"kind\": \"paratick-replay-bundle\",\n";
  out += "  \"plan\": " + to_json(b.plan) + ",\n";
  out += metrics::format("  \"scenario\": \"%s\",\n",
                         metrics::json_escape(b.scenario).c_str());
  out += metrics::format(
      "  \"fault\": {\"timer_drop_prob\": %.17g, \"timer_late_prob\": %.17g, "
      "\"timer_late_max_ns\": %lld, \"timer_coalesce_prob\": %.17g, "
      "\"timer_coalesce_window_ns\": %lld, \"tsc_drift_ppm\": %.17g, "
      "\"io_error_prob\": %.17g, \"io_spike_prob\": %.17g, "
      "\"io_spike_factor\": %.17g, \"steal_burst_prob\": %.17g, "
      "\"steal_burst_max_ns\": %lld, \"tick_delay_prob\": %.17g, "
      "\"softirq_spurious_prob\": %.17g, \"softirq_drop_prob\": %.17g},\n",
      f.timer_drop_prob, f.timer_late_prob,
      static_cast<long long>(ns(f.timer_late_max)), f.timer_coalesce_prob,
      static_cast<long long>(ns(f.timer_coalesce_window)), f.tsc_drift_ppm,
      f.io_error_prob, f.io_spike_prob, f.io_spike_factor, f.steal_burst_prob,
      static_cast<long long>(ns(f.steal_burst_max)), f.tick_delay_prob,
      f.softirq_spurious_prob, f.softirq_drop_prob);
  out += "  \"run\": " + run_record_to_json(b.run) + "\n}\n";
  return out;
}

std::string write_replay_bundle(const SweepConfig& cfg, const SweepRun& run,
                                const std::string& dir) {
  PARATICK_CHECK_MSG(!run.ok && run.failure.has_value(),
                     "replay bundle: run did not fail");
  ReplayBundle b;
  b.plan = plan_info_for(cfg);
  b.scenario = cfg.scenario;
  b.fault = cfg.fault;
  b.run = run;
  // The run's host time is wall clock, the one value two sweeps of the
  // same plan disagree on; a bundle holds only what replays.
  b.run.host_seconds = 0.0;

  // One directory per producing sweep keeps multi-bench failure dirs
  // tidy: <dir>/<bench>/run<idx>.json.
  const std::string name = cfg.bench_name.empty() ? "sweep" : cfg.bench_name;
  const std::string bundle_dir = dir + "/" + name;
  std::filesystem::create_directories(bundle_dir);
  const std::string path =
      bundle_dir + metrics::format("/run%llu.json",
                                   static_cast<unsigned long long>(run.run_index));
  // Atomic write: a sweep killed mid-write leaves the old bundle or the
  // complete new one, never a torn file.
  write_file_atomic(path, to_json(b));
  return path;
}

ReplayBundle parse_replay_bundle(const std::string& json_text) {
  const json::Value doc = json::parse(json_text);
  const json::Value* kind = doc.find("kind");
  PARATICK_CHECK_MSG(
      kind != nullptr && kind->str == "paratick-replay-bundle",
      "replay bundle: wrong document kind (expected \"paratick-replay-bundle\"; "
      "bundles written before the plan-header format are not replayable)");
  ReplayBundle b;
  const json::Value* plan = doc.find("plan");
  PARATICK_CHECK_MSG(plan != nullptr, "replay bundle: missing plan");
  b.plan = parse_plan_info(*plan);
  b.scenario = json::str_field(doc, "scenario");
  // A "watchdog" key in older bundles is ignored: every run has one.

  const json::Value* f = doc.find("fault");
  PARATICK_CHECK_MSG(f != nullptr && f->type == json::Value::Type::kObject,
                     "replay bundle: missing fault object");
  fault::FaultConfig& fc = b.fault;
  fc.timer_drop_prob = json::num_field(*f, "timer_drop_prob");
  fc.timer_late_prob = json::num_field(*f, "timer_late_prob");
  fc.timer_late_max =
      sim::SimTime::ns(json::int_field<std::int64_t>(*f, "timer_late_max_ns"));
  fc.timer_coalesce_prob = json::num_field(*f, "timer_coalesce_prob");
  fc.timer_coalesce_window =
      sim::SimTime::ns(json::int_field<std::int64_t>(*f, "timer_coalesce_window_ns"));
  fc.tsc_drift_ppm = json::num_field(*f, "tsc_drift_ppm");
  fc.io_error_prob = json::num_field(*f, "io_error_prob");
  fc.io_spike_prob = json::num_field(*f, "io_spike_prob");
  fc.io_spike_factor = json::num_field(*f, "io_spike_factor");
  fc.steal_burst_prob = json::num_field(*f, "steal_burst_prob");
  fc.steal_burst_max =
      sim::SimTime::ns(json::int_field<std::int64_t>(*f, "steal_burst_max_ns"));
  fc.tick_delay_prob = json::num_field(*f, "tick_delay_prob");
  fc.softirq_spurious_prob = json::num_field(*f, "softirq_spurious_prob");
  fc.softirq_drop_prob = json::num_field(*f, "softirq_drop_prob");

  const json::Value* run = doc.find("run");
  PARATICK_CHECK_MSG(run != nullptr, "replay bundle: missing run");
  b.run = parse_run_record(*run, b.plan);
  PARATICK_CHECK_MSG(b.run.failure.has_value(),
                     "replay bundle: the run carries no failure");
  return b;
}

ReplayBundle load_replay_bundle(const std::string& path) {
  const std::string text = read_file(path, "replay bundle");
  try {
    return parse_replay_bundle(text);
  } catch (const sim::SimError& e) {
    PARATICK_CHECK_MSG(false, ("replay bundle " + path + ": " + e.msg()).c_str());
    throw;  // unreachable; CHECK above always throws
  }
}

SweepRun replay_run(SweepConfig cfg, const ReplayBundle& b) {
  // The bundle's identity wins over whatever the caller-provided config
  // carries, so the replayed run is exactly the one that failed.
  cfg.root_seed = b.plan.root_seed;
  cfg.repeat = b.plan.repeat;
  cfg.fault = b.fault;
  // Wall-clock timeouts are not part of the deterministic identity; a
  // timed-out run replays without the budget (it may simply run longer).
  cfg.run_timeout_sec = 0.0;
  // Never clobber the original sweep's artifacts: a replay writes no new
  // bundles or traces. (cfg.observer is kept — that is how bench_replay
  // attaches its trace checker.)
  cfg.failure_dir.clear();
  cfg.record_trace = false;
  // A grid changed since the bundle was written would re-run a different
  // cell under the recorded index.
  std::string why;
  if (!plans_match(b.plan, plan_info_for(cfg), &why)) {
    const std::string msg =
        "replay bundle: the sweep no longer matches the bundle's plan (" +
        why + " differs)";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  const std::uint64_t seed = derive_seed(cfg.root_seed, b.run.run_index);
  if (seed != b.run.seed) {
    const std::string msg = metrics::format(
        "replay bundle: run %zu seed differs: recorded %llu, derived %llu",
        b.run.run_index, static_cast<unsigned long long>(b.run.seed),
        static_cast<unsigned long long>(seed));
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  SweepRunner runner(std::move(cfg));
  return runner.execute_run(b.run.run_index);
}

SweepRun replay_bundle(const ReplayBundle& b) {
  PARATICK_CHECK_MSG(is_chaos_scenario(b.scenario),
                     "replay bundle names no registered chaos scenario; "
                     "rebuild the SweepConfig and use replay_run()");
  return replay_run(build_chaos_scenario(b.scenario), b);
}

bool reproduces(const ReplayBundle& b, const SweepRun& replayed,
                std::string* detail) {
  const auto note = [detail](std::string msg) {
    if (detail != nullptr) *detail = std::move(msg);
  };
  if (replayed.ok || !replayed.failure.has_value()) {
    note("replay completed without failing");
    return false;
  }
  PARATICK_CHECK_MSG(b.run.failure.has_value(),
                     "replay bundle: the run carries no failure");
  const RunFailure& want = *b.run.failure;
  const RunFailure& got = *replayed.failure;
  if (got.kind != want.kind) {
    note(metrics::format("failure kind differs: recorded %s, replayed %s",
                         RunFailure::kind_name(want.kind),
                         RunFailure::kind_name(got.kind)));
    return false;
  }
  if (got.expr != want.expr) {
    note("failing expression differs: recorded \"" + want.expr +
         "\", replayed \"" + got.expr + "\"");
    return false;
  }
  // Timeouts are wall-clock dependent: kind + expression is the best
  // reproducibility we can claim for them.
  if (want.kind != RunFailure::Kind::kTimeout &&
      got.sim_time_ns != want.sim_time_ns) {
    note(metrics::format(
        "failure sim time differs: recorded %lldns, replayed %lldns",
        static_cast<long long>(want.sim_time_ns),
        static_cast<long long>(got.sim_time_ns)));
    return false;
  }
  note(metrics::format(
      "reproduced: %s \"%s\" at sim t=%lldns (event #%llu)",
      RunFailure::kind_name(got.kind), got.expr.c_str(),
      static_cast<long long>(got.sim_time_ns),
      static_cast<unsigned long long>(got.events_executed)));
  return true;
}

}  // namespace paratick::core
