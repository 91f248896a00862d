#include "core/replay.hpp"

#include <string>
#include <utility>

#include "core/cli_parse.hpp"
#include "core/json.hpp"
#include "core/safe_io.hpp"
#include "core/scenarios.hpp"
#include "core/sweep_plan.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

namespace {

// Doubles are printed with %.17g and parsed back with strtod (json.cpp),
// which round-trips every finite IEEE double exactly. u64 seeds are
// serialized as decimal strings because a JSON number would round through
// double; ordinary counters stay plain numbers (all far below 2^53).

using ull = unsigned long long;

std::int64_t ns(sim::SimTime t) { return t.nanoseconds(); }

/// Throws naming `what` unless `doc` is a JSON object.
void check_object(const json::Value& doc, const char* what) {
  if (doc.type != json::Value::Type::kObject) {
    const std::string msg = std::string(what) + ": not a JSON object";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
}

/// A number the replay reads. Unlike json::num_field there is no
/// fallback: a missing knob or index read as 0 would replay a different
/// run, so a missing or non-numeric value throws naming `key`.
double number_field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || v->type != json::Value::Type::kNumber) {
    const std::string msg = std::string("missing number field \"") + key + "\"";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  return v->number;
}

template <typename T>
T integer_field(const json::Value& obj, const char* key) {
  return json::to_int<T>(number_field(obj, key), key);
}

sim::SimTime ns_field(const json::Value& obj, const char* key) {
  return sim::SimTime::ns(integer_field<std::int64_t>(obj, key));
}

/// The one encoder of a u64 seed: a quoted decimal string.
std::string u64_string(std::uint64_t v) {
  return metrics::format("\"%llu\"", static_cast<ull>(v));
}

/// The one decoder of a u64 seed; errors name `key`.
std::uint64_t u64_string_field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || v->type != json::Value::Type::kString) {
    const std::string msg = std::string("missing u64 string field \"") + key + "\"";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  return parse_u64_flag(key, v->str);
}

/// The first difference between two cell grids ("cell grid size" or
/// "cell N (a vs b)"); empty when they match. Replay copies the root seed
/// and repeat count from the bundle, so only the grid can differ.
std::string grid_mismatch(const std::vector<SweepCellKey>& a,
                          const std::vector<SweepCellKey>& b) {
  if (a.size() != b.size()) return "cell grid size";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return "cell " + std::to_string(i) + " (" + a[i].label() + " vs " +
             b[i].label() + ")";
    }
  }
  return {};
}

std::string plan_to_json(const PlanInfo& p) {
  std::string out = metrics::format(
      "{\"kind\": \"paratick-dispatch-plan\", \"bench\": \"%s\", "
      "\"root_seed\": %s, \"repeat\": %d, \"total_runs\": %llu, \"cells\": [",
      metrics::json_escape(p.bench).c_str(), u64_string(p.root_seed).c_str(),
      p.repeat, static_cast<ull>(p.total_runs));
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    const SweepCellKey& key = p.cells[i];
    out += metrics::format(
        "%s{\"variant\": \"%s\", \"mode\": \"%s\", \"tick_freq_hz\": %.17g, "
        "\"vcpus\": %d, \"overcommit\": %.17g}",
        i == 0 ? "" : ", ", metrics::json_escape(key.variant).c_str(),
        std::string(guest::to_string(key.mode)).c_str(), key.tick_freq_hz,
        key.vcpus, key.overcommit);
  }
  out += "]}";
  return out;
}

PlanInfo parse_plan(const json::Value& doc) {
  check_object(doc, "plan header");
  const json::Value* kind = doc.find("kind");
  PARATICK_CHECK_MSG(kind != nullptr && kind->str == "paratick-dispatch-plan",
                     "plan header: wrong document kind");
  PlanInfo p;
  p.bench = json::str_field(doc, "bench");
  p.root_seed = u64_string_field(doc, "root_seed");
  p.repeat = integer_field<int>(doc, "repeat");
  p.total_runs = integer_field<std::size_t>(doc, "total_runs");
  const json::Value* cells = doc.find("cells");
  PARATICK_CHECK_MSG(cells != nullptr && cells->type == json::Value::Type::kArray,
                     "plan header: missing cells array");
  for (const json::Value& cell : cells->array) {
    check_object(cell, "plan header: cell entry");
    SweepCellKey key;
    key.variant = json::str_field(cell, "variant");
    key.mode = guest::tick_mode_from_string(json::str_field(cell, "mode"));
    key.tick_freq_hz = number_field(cell, "tick_freq_hz");
    key.vcpus = integer_field<int>(cell, "vcpus");
    key.overcommit = number_field(cell, "overcommit");
    p.cells.push_back(std::move(key));
  }
  PARATICK_CHECK_MSG(p.repeat >= 1 && p.total_runs == p.cells.size() *
                                          static_cast<std::size_t>(p.repeat),
                     "plan header: total_runs is not cells * repeat");
  return p;
}

std::string run_to_json(const SweepRun& run) {
  std::string out = metrics::format(
      "{\"run_index\": %llu, \"cell\": %llu, \"replica\": %d, "
      "\"seed\": %s, \"executed\": %s, \"ok\": %s, \"host_seconds\": %.17g",
      static_cast<ull>(run.run_index), static_cast<ull>(run.cell), run.replica,
      u64_string(run.seed).c_str(), run.executed ? "true" : "false",
      run.ok ? "true" : "false", run.host_seconds);
  if (!run.bundle_path.empty()) {
    out += metrics::format(", \"bundle\": \"%s\"",
                           metrics::json_escape(run.bundle_path).c_str());
  }
  if (!run.trace_path.empty()) {
    out += metrics::format(", \"trace\": \"%s\"",
                           metrics::json_escape(run.trace_path).c_str());
  }
  if (run.failure) {
    const RunFailure& f = *run.failure;
    out += metrics::format(
        ", \"failure\": {\"kind\": \"%s\", \"expr\": \"%s\", \"file\": \"%s\", "
        "\"line\": %d, \"message\": \"%s\", \"sim_time_ns\": %lld, "
        "\"events\": %llu}",
        RunFailure::kind_name(f.kind), metrics::json_escape(f.expr).c_str(),
        metrics::json_escape(f.file).c_str(), f.line,
        metrics::json_escape(f.message).c_str(),
        static_cast<long long>(f.sim_time_ns),
        static_cast<ull>(f.events_executed));
  }
  out += '}';
  return out;
}

/// The bundle's run, read against its plan: an index or cell outside it
/// is a SimError, never an out-of-range cell lookup.
SweepRun parse_run(const json::Value& doc, const PlanInfo& plan) {
  check_object(doc, "run record");
  SweepRun run;
  run.run_index = integer_field<std::size_t>(doc, "run_index");
  run.cell = integer_field<std::size_t>(doc, "cell");
  if (run.run_index >= plan.total_runs || run.cell >= plan.cells.size()) {
    const std::string msg = metrics::format(
        "run record: run %zu (cell %zu) lies outside the plan (%zu runs, %zu "
        "cells)",
        run.run_index, run.cell, plan.total_runs, plan.cells.size());
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  run.replica = integer_field<int>(doc, "replica");
  run.seed = u64_string_field(doc, "seed");
  // Never read by a replay; lenient like every bundle before them.
  const json::Value* executed = doc.find("executed");
  run.executed = executed != nullptr && executed->boolean;
  const json::Value* ok = doc.find("ok");
  run.ok = ok != nullptr && ok->boolean;
  run.host_seconds = json::num_field(doc, "host_seconds");
  if (const json::Value* bundle = doc.find("bundle")) run.bundle_path = bundle->str;
  if (const json::Value* trace = doc.find("trace")) run.trace_path = trace->str;
  if (const json::Value* failure = doc.find("failure")) {
    RunFailure f;
    f.kind = RunFailure::kind_from_name(json::str_field(*failure, "kind"));
    f.expr = json::str_field(*failure, "expr");
    f.file = json::str_field(*failure, "file");
    f.line = integer_field<int>(*failure, "line");
    f.message = json::str_field(*failure, "message");
    f.sim_time_ns = integer_field<std::int64_t>(*failure, "sim_time_ns");
    f.events_executed = integer_field<std::uint64_t>(*failure, "events");
    run.failure = std::move(f);
  }
  return run;
}

}  // namespace

std::string to_json(const ReplayBundle& b) {
  const fault::FaultConfig& f = b.fault;
  std::string out = "{\n  \"kind\": \"paratick-replay-bundle\",\n";
  out += "  \"plan\": " + plan_to_json(b.plan) + ",\n";
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
  out += "  \"run\": " + run_to_json(b.run) + "\n}\n";
  return out;
}

std::string write_replay_bundle(const SweepConfig& cfg, const SweepRun& run) {
  PARATICK_CHECK_MSG(!run.ok && run.failure.has_value(),
                     "replay bundle: run did not fail");
  const SweepPlan plan = SweepPlan::make(cfg);
  ReplayBundle b;
  b.plan = {cfg.bench_name, plan.config().root_seed, plan.config().repeat,
            plan.total_runs(), plan.cell_keys()};
  b.scenario = cfg.scenario;
  b.fault = cfg.fault;
  b.run = run;
  // The run's host time is wall clock, the one value two sweeps of the
  // same plan disagree on; a bundle holds only what replays.
  b.run.host_seconds = 0.0;

  // Atomic write (parent directories created): a sweep killed mid-write
  // leaves the old bundle or the complete new one, never a torn file.
  const std::string path = failure_artifact_stem(cfg, run.run_index) + ".json";
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
  b.plan = parse_plan(*plan);
  b.scenario = json::str_field(doc, "scenario");
  // A "watchdog" key in older bundles is ignored: every run has one.

  const json::Value* f = doc.find("fault");
  PARATICK_CHECK_MSG(f != nullptr && f->type == json::Value::Type::kObject,
                     "replay bundle: missing fault object");
  fault::FaultConfig& fc = b.fault;
  fc.timer_drop_prob = number_field(*f, "timer_drop_prob");
  fc.timer_late_prob = number_field(*f, "timer_late_prob");
  fc.timer_late_max = ns_field(*f, "timer_late_max_ns");
  fc.timer_coalesce_prob = number_field(*f, "timer_coalesce_prob");
  fc.timer_coalesce_window = ns_field(*f, "timer_coalesce_window_ns");
  fc.tsc_drift_ppm = number_field(*f, "tsc_drift_ppm");
  fc.io_error_prob = number_field(*f, "io_error_prob");
  fc.io_spike_prob = number_field(*f, "io_spike_prob");
  fc.io_spike_factor = number_field(*f, "io_spike_factor");
  fc.steal_burst_prob = number_field(*f, "steal_burst_prob");
  fc.steal_burst_max = ns_field(*f, "steal_burst_max_ns");
  fc.tick_delay_prob = number_field(*f, "tick_delay_prob");
  fc.softirq_spurious_prob = number_field(*f, "softirq_spurious_prob");
  fc.softirq_drop_prob = number_field(*f, "softirq_drop_prob");

  const json::Value* run = doc.find("run");
  PARATICK_CHECK_MSG(run != nullptr, "replay bundle: missing run");
  b.run = parse_run(*run, b.plan);
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
  const std::string why =
      grid_mismatch(b.plan.cells, SweepPlan::make(cfg).cell_keys());
  if (!why.empty()) {
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
