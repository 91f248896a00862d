#include "core/replay.hpp"

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/dispatch/dispatch.hpp"
#include "core/dispatch/transport.hpp"
#include "core/json.hpp"
#include "core/safe_io.hpp"
#include "core/scenarios.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

namespace {

std::int64_t ns(sim::SimTime t) { return t.nanoseconds(); }

// Seeds are written as decimal strings (full 64-bit precision); accept a
// bare number too for hand-written bundles, where precision is the
// author's problem.
std::uint64_t seed_field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  PARATICK_CHECK_MSG(v != nullptr, "replay bundle: missing seed field");
  if (v->type == json::Value::Type::kString) {
    return parse_u64_flag(
        (std::string("replay bundle: ") + key).c_str(), v->str);
  }
  PARATICK_CHECK_MSG(v->type == json::Value::Type::kNumber,
                     "replay bundle: seed is neither string nor number");
  return json::to_int<std::uint64_t>(v->number, key);
}

}  // namespace

std::string to_json(const ReplayBundle& b) {
  const fault::FaultConfig& f = b.fault;
  std::string out = "{\n";
  out += metrics::format("  \"bench\": \"%s\",\n",
                         metrics::json_escape(b.bench).c_str());
  out += metrics::format("  \"scenario\": \"%s\",\n",
                         metrics::json_escape(b.scenario).c_str());
  // Seeds are full 64-bit values; a JSON number would round-trip through
  // double and lose the low bits, so they travel as decimal strings.
  out += metrics::format("  \"root_seed\": \"%llu\",\n",
                         static_cast<unsigned long long>(b.root_seed));
  out += metrics::format("  \"repeat\": %d,\n", b.repeat);
  out += metrics::format("  \"run_index\": %llu,\n",
                         static_cast<unsigned long long>(b.run_index));
  out += metrics::format("  \"seed\": \"%llu\",\n",
                         static_cast<unsigned long long>(b.seed));
  out += metrics::format("  \"cell\": \"%s\",\n",
                         metrics::json_escape(b.cell_label).c_str());
  if (!b.trace_path.empty()) {
    out += metrics::format("  \"trace\": \"%s\",\n",
                           metrics::json_escape(b.trace_path).c_str());
  }
  out += metrics::format("  \"watchdog\": %s,\n", b.watchdog ? "true" : "false");
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
  out += metrics::format(
      "  \"failure\": {\"kind\": \"%s\", \"expr\": \"%s\", \"file\": \"%s\", "
      "\"line\": %d, \"message\": \"%s\", \"sim_time_ns\": %lld, "
      "\"events_executed\": %llu}\n",
      RunFailure::kind_name(b.failure.kind),
      metrics::json_escape(b.failure.expr).c_str(),
      metrics::json_escape(b.failure.file).c_str(), b.failure.line,
      metrics::json_escape(b.failure.message).c_str(),
      static_cast<long long>(b.failure.sim_time_ns),
      static_cast<unsigned long long>(b.failure.events_executed));
  out += "}\n";
  return out;
}

std::string write_replay_bundle(const SweepConfig& cfg, const SweepRun& run,
                                const std::string& dir,
                                const std::string& cell_label) {
  PARATICK_CHECK_MSG(!run.ok && run.failure.has_value(),
                     "replay bundle: run did not fail");
  ReplayBundle b;
  b.bench = cfg.bench_name;
  b.scenario = cfg.scenario;
  b.root_seed = cfg.root_seed;
  b.repeat = cfg.repeat;
  b.run_index = run.run_index;
  b.seed = run.seed;
  b.cell_label = cell_label;
  b.watchdog = cfg.watchdog;
  b.fault = cfg.fault;
  b.failure = *run.failure;
  b.trace_path = run.trace_path;

  // One directory per producing sweep keeps multi-bench failure dirs
  // tidy: <dir>/<bench>/run<idx>.json. (Bundles from before this layout
  // lived flat as <dir>/<bench>-run<idx>.json; bench_replay scans both.)
  const std::string name = cfg.bench_name.empty() ? "sweep" : cfg.bench_name;
  const std::string bundle_dir = dir + "/" + name;
  std::filesystem::create_directories(bundle_dir);
  const std::string path =
      bundle_dir + metrics::format("/run%llu.json",
                                   static_cast<unsigned long long>(run.run_index));
  // Atomic write: a dispatcher lease expiry can leave the killed worker
  // and the run's next worker writing the same bundle concurrently; each
  // rename publishes a complete document, so readers never see a torn
  // file.
  write_file_atomic(path, to_json(b));
  return path;
}

ReplayBundle parse_replay_bundle(const std::string& json_text) {
  const json::Value doc = json::parse(json_text);
  PARATICK_CHECK_MSG(doc.type == json::Value::Type::kObject,
                     "replay bundle: document is not an object");
  ReplayBundle b;
  b.bench = json::str_field(doc, "bench");
  b.scenario = json::str_field(doc, "scenario");
  b.root_seed = seed_field(doc, "root_seed");
  b.repeat = json::int_field<int>(doc, "repeat", 1);
  b.run_index = json::int_field<std::size_t>(doc, "run_index");
  b.seed = seed_field(doc, "seed");
  if (const json::Value* cell = doc.find("cell");
      cell != nullptr && cell->type == json::Value::Type::kString) {
    b.cell_label = cell->str;
  }
  if (const json::Value* trace = doc.find("trace");
      trace != nullptr && trace->type == json::Value::Type::kString) {
    b.trace_path = trace->str;
  }
  if (const json::Value* wd = doc.find("watchdog");
      wd != nullptr && wd->type == json::Value::Type::kBool) {
    b.watchdog = wd->boolean;
  }
  // Bundles written before the watchdog timer grace became a constant
  // still carry "watchdog_timer_grace_ns"; it was always 5 ms, the
  // constant's value, so the key is ignored.

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
  fc.io_spike_factor = json::num_field(*f, "io_spike_factor", 20.0);
  fc.steal_burst_prob = json::num_field(*f, "steal_burst_prob");
  fc.steal_burst_max =
      sim::SimTime::ns(json::int_field<std::int64_t>(*f, "steal_burst_max_ns"));
  fc.tick_delay_prob = json::num_field(*f, "tick_delay_prob");
  fc.softirq_spurious_prob = json::num_field(*f, "softirq_spurious_prob");
  fc.softirq_drop_prob = json::num_field(*f, "softirq_drop_prob");

  const json::Value* fail = doc.find("failure");
  PARATICK_CHECK_MSG(fail != nullptr && fail->type == json::Value::Type::kObject,
                     "replay bundle: missing failure object");
  b.failure.kind = RunFailure::kind_from_name(json::str_field(*fail, "kind"));
  if (const json::Value* e = fail->find("expr");
      e != nullptr && e->type == json::Value::Type::kString) {
    b.failure.expr = e->str;
  }
  if (const json::Value* fi = fail->find("file");
      fi != nullptr && fi->type == json::Value::Type::kString) {
    b.failure.file = fi->str;
  }
  b.failure.line = json::int_field<int>(*fail, "line");
  if (const json::Value* m = fail->find("message");
      m != nullptr && m->type == json::Value::Type::kString) {
    b.failure.message = m->str;
  }
  b.failure.sim_time_ns = json::int_field<std::int64_t>(*fail, "sim_time_ns", -1);
  b.failure.events_executed =
      json::int_field<std::uint64_t>(*fail, "events_executed");
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
  cfg.root_seed = b.root_seed;
  cfg.repeat = b.repeat;
  cfg.fault = b.fault;
  cfg.watchdog = b.watchdog;
  // Wall-clock timeouts are not part of the deterministic identity; a
  // timed-out run replays without the budget (it may simply run longer).
  cfg.run_timeout_sec = 0.0;
  // Never clobber the original sweep's artifacts: a replay writes no new
  // bundles or traces. (cfg.observer is kept — that is how bench_replay
  // attaches its trace checker.)
  cfg.failure_dir.clear();
  cfg.record_trace = false;
  // A recorded crash (a dispatch worker died mid-run) would take the
  // replayer down too if re-executed in-process — rerun it the way the
  // sweep ran it: a one-index dispatch on one forked worker, with no
  // retries, so a second death degrades straight to a kCrash record.
  if (b.failure.kind == RunFailure::Kind::kCrash) {
    dispatch::DispatchOptions opts;
    opts.workers = 1;
    opts.max_retries = 0;
    dispatch::SweepDispatcher dispatcher(
        std::make_unique<dispatch::ForkWorkerTransport>(std::move(cfg)),
        std::move(opts));
    SweepResult res =
        dispatcher.run(std::vector<std::size_t>{b.run_index});
    return std::move(res.runs[b.run_index]);
  }
  SweepRunner runner(std::move(cfg));
  return runner.execute_run(b.run_index);
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
  const RunFailure& want = b.failure;
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
  // Timeouts are wall-clock dependent, and crashes are recorded by the
  // dispatcher with no simulation context: kind + expression is the best
  // reproducibility we can claim for either.
  if (want.kind != RunFailure::Kind::kTimeout &&
      want.kind != RunFailure::Kind::kCrash &&
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
