#include "core/run_record.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/sweep_plan.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"

namespace paratick::core {

namespace {

// Doubles are printed with %.17g and parsed back with strtod (json.cpp),
// which round-trips every finite IEEE double exactly, so a replayed record
// equals the recorded one. u64 seeds are serialized as decimal
// strings because a JSON number would round through double; ordinary
// counters stay plain numbers (all far below 2^53).

using ull = unsigned long long;

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

std::uint64_t u64_field(const json::Value& obj, const char* key) {
  return json::int_field<std::uint64_t>(obj, key);
}

void append_acc(std::string& out, const char* key, const sim::Accumulator& a) {
  const sim::Accumulator::State s = a.state();
  out += metrics::format(
      "\"%s\": {\"n\": %llu, \"mean\": %.17g, \"m2\": %.17g, \"sum\": %.17g, "
      "\"min\": %.17g, \"max\": %.17g}",
      key, static_cast<ull>(s.n), s.mean, s.m2, s.sum, s.min, s.max);
}

sim::Accumulator parse_acc(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  PARATICK_CHECK_MSG(v != nullptr && v->type == json::Value::Type::kObject,
                     "run record: missing accumulator field");
  sim::Accumulator::State s;
  s.n = u64_field(*v, "n");
  s.mean = json::num_field(*v, "mean");
  s.m2 = json::num_field(*v, "m2");
  s.sum = json::num_field(*v, "sum");
  s.min = json::num_field(*v, "min");
  s.max = json::num_field(*v, "max");
  return sim::Accumulator::from_state(s);
}

template <typename Get>
void append_u64_array(std::string& out, const char* key, std::size_t n, Get get) {
  out += metrics::format("\"%s\": [", key);
  for (std::size_t i = 0; i < n; ++i) {
    out += metrics::format("%s%llu", i == 0 ? "" : ",", static_cast<ull>(get(i)));
  }
  out += ']';
}

const json::Value& array_field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || v->type != json::Value::Type::kArray) {
    const std::string msg = std::string("missing array field \"") + key + "\"";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  return *v;
}

/// A u64 counter array; `n` > 0 fixes its length (a mismatch is format
/// drift between writer and reader).
std::vector<std::uint64_t> u64_array(const json::Value& obj, const char* key,
                                     std::size_t n = 0) {
  const json::Value& arr = array_field(obj, key);
  if (n != 0 && arr.array.size() != n) {
    const std::string msg = std::string("run record: field \"") + key +
                            "\" has " + std::to_string(arr.array.size()) +
                            " entries, expected " + std::to_string(n);
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  std::vector<std::uint64_t> out;
  out.reserve(arr.array.size());
  for (const json::Value& v : arr.array) {
    out.push_back(json::to_int<std::uint64_t>(v.number, key));
  }
  return out;
}

void append_vm(std::string& out, const metrics::VmResult& vm) {
  out += metrics::format("{\"exits_total\": %llu, \"exits_timer\": %llu, ",
                         static_cast<ull>(vm.exits_total),
                         static_cast<ull>(vm.exits_timer_related));
  append_u64_array(out, "exits_by_cause", hw::kExitCauseCount,
                   [&](std::size_t i) { return vm.exits_by_cause[i]; });
  if (vm.completion_time) {
    out += metrics::format(
        ", \"completion_ns\": %lld",
        static_cast<long long>(vm.completion_time->nanoseconds()));
  }
  // Policy stats in guest::TickPolicy::Stats field order.
  const auto& p = vm.policy;
  out += metrics::format(
      ", \"policy\": [%llu,%llu,%llu,%llu,%llu,%llu,%llu], ",
      static_cast<ull>(p.ticks_handled), static_cast<ull>(p.virtual_ticks),
      static_cast<ull>(p.msr_writes), static_cast<ull>(p.msr_writes_avoided),
      static_cast<ull>(p.idle_entries), static_cast<ull>(p.idle_exits),
      static_cast<ull>(p.busy_stops));
  append_acc(out, "tick_intervals_us", vm.tick_intervals_us);
  out += metrics::format(", \"task_blocks\": %llu, \"task_wakes\": %llu, ",
                         static_cast<ull>(vm.task_blocks),
                         static_cast<ull>(vm.task_wakes));
  append_acc(out, "wakeup_latency_us", vm.wakeup_latency_us);
  out += ", ";
  const auto& buckets = vm.wakeup_latency_hist_us.buckets();
  append_u64_array(out, "wake_hist_us", buckets.size(),
                   [&](std::size_t i) { return buckets[i]; });
  out += metrics::format(", \"io_errors\": %llu", static_cast<ull>(vm.io_errors));
  out += metrics::format(", \"steal_ns\": %lld",
                         static_cast<long long>(vm.steal_time.nanoseconds()));
  // Absent unless the VM ran the guest steal estimator.
  if (vm.steal_estimate) {
    out += metrics::format(
        ", \"steal_est_ns\": %lld",
        static_cast<long long>(vm.steal_estimate->nanoseconds()));
  }
  out += '}';
}

metrics::VmResult parse_vm(const json::Value& obj) {
  metrics::VmResult vm;
  vm.exits_total = u64_field(obj, "exits_total");
  vm.exits_timer_related = u64_field(obj, "exits_timer");
  const auto causes = u64_array(obj, "exits_by_cause", hw::kExitCauseCount);
  std::copy(causes.begin(), causes.end(), vm.exits_by_cause.begin());
  if (const json::Value* ct = obj.find("completion_ns")) {
    vm.completion_time =
        sim::SimTime::ns(json::to_int<std::int64_t>(ct->number, "completion_ns"));
  }
  const auto pol = u64_array(obj, "policy", 7);
  vm.policy.ticks_handled = pol[0];
  vm.policy.virtual_ticks = pol[1];
  vm.policy.msr_writes = pol[2];
  vm.policy.msr_writes_avoided = pol[3];
  vm.policy.idle_entries = pol[4];
  vm.policy.idle_exits = pol[5];
  vm.policy.busy_stops = pol[6];
  vm.tick_intervals_us = parse_acc(obj, "tick_intervals_us");
  vm.task_blocks = u64_field(obj, "task_blocks");
  vm.task_wakes = u64_field(obj, "task_wakes");
  vm.wakeup_latency_us = parse_acc(obj, "wakeup_latency_us");
  vm.wakeup_latency_hist_us =
      sim::LogHistogram::from_buckets(u64_array(obj, "wake_hist_us"));
  vm.io_errors = u64_field(obj, "io_errors");
  vm.steal_time = sim::SimTime::ns(json::int_field<std::int64_t>(obj, "steal_ns"));
  if (const json::Value* se = obj.find("steal_est_ns")) {
    vm.steal_estimate =
        sim::SimTime::ns(json::to_int<std::int64_t>(se->number, "steal_est_ns"));
  }
  return vm;
}

void append_result(std::string& out, const metrics::RunResult& r) {
  out += metrics::format("\"result\": {\"wall_ns\": %lld, ",
                         static_cast<long long>(r.wall.nanoseconds()));
  append_u64_array(out, "cycles", hw::kCycleCategoryCount, [&](std::size_t i) {
    return static_cast<std::uint64_t>(
        r.cycles.total(static_cast<hw::CycleCategory>(i)).count());
  });
  out += metrics::format(", \"exits_total\": %llu, \"exits_timer\": %llu, ",
                         static_cast<ull>(r.exits_total),
                         static_cast<ull>(r.exits_timer_related));
  append_u64_array(out, "exits_by_cause", hw::kExitCauseCount,
                   [&](std::size_t i) { return r.exits_by_cause[i]; });
  out += metrics::format(", \"events\": %llu, ",
                         static_cast<ull>(r.events_executed));
  // Engine self-profile in RunResult field order (wall_ns last; it is the
  // only non-deterministic element).
  out += metrics::format(
      "\"profile\": [%llu,%llu,%llu,%llu,%llu,%llu,%llu], ",
      static_cast<ull>(r.events_scheduled), static_cast<ull>(r.events_cancelled),
      static_cast<ull>(r.callback_spills),
      static_cast<ull>(r.callback_spill_bytes),
      static_cast<ull>(r.slot_high_water), static_cast<ull>(r.queue_compactions),
      static_cast<ull>(r.engine_wall_ns));
  // Parallel-engine round counters.
  out += metrics::format(
      "\"parallel\": [%llu,%llu], ",
      static_cast<ull>(r.par_windows), static_cast<ull>(r.par_windows_skipped));
  // Fault counters in fault::FaultStats field order.
  const auto& f = r.faults;
  out += metrics::format(
      "\"faults\": [%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu], ",
      static_cast<ull>(f.timer_dropped), static_cast<ull>(f.timer_delayed),
      static_cast<ull>(f.timer_coalesced), static_cast<ull>(f.io_errors),
      static_cast<ull>(f.io_spikes), static_cast<ull>(f.steal_bursts),
      static_cast<ull>(f.ticks_delayed), static_cast<ull>(f.softirq_spurious),
      static_cast<ull>(f.softirq_dropped));
  out += "\"vms\": [";
  for (std::size_t i = 0; i < r.vms.size(); ++i) {
    if (i) out += ", ";
    append_vm(out, r.vms[i]);
  }
  out += "]}";
}

metrics::RunResult parse_result(const json::Value& obj) {
  metrics::RunResult r;
  r.wall = sim::SimTime::ns(json::int_field<std::int64_t>(obj, "wall_ns"));
  const auto cycles = u64_array(obj, "cycles", hw::kCycleCategoryCount);
  for (std::size_t i = 0; i < hw::kCycleCategoryCount; ++i) {
    r.cycles.charge(static_cast<hw::CycleCategory>(i),
                    sim::Cycles{static_cast<std::int64_t>(cycles[i])});
  }
  r.exits_total = u64_field(obj, "exits_total");
  r.exits_timer_related = u64_field(obj, "exits_timer");
  const auto causes = u64_array(obj, "exits_by_cause", hw::kExitCauseCount);
  std::copy(causes.begin(), causes.end(), r.exits_by_cause.begin());
  r.events_executed = u64_field(obj, "events");
  const auto prof = u64_array(obj, "profile", 7);
  r.events_scheduled = prof[0];
  r.events_cancelled = prof[1];
  r.callback_spills = prof[2];
  r.callback_spill_bytes = prof[3];
  r.slot_high_water = prof[4];
  r.queue_compactions = prof[5];
  r.engine_wall_ns = prof[6];
  const auto par = u64_array(obj, "parallel", 2);
  r.par_windows = par[0];
  r.par_windows_skipped = par[1];
  const auto flt = u64_array(obj, "faults", 9);
  r.faults.timer_dropped = flt[0];
  r.faults.timer_delayed = flt[1];
  r.faults.timer_coalesced = flt[2];
  r.faults.io_errors = flt[3];
  r.faults.io_spikes = flt[4];
  r.faults.steal_bursts = flt[5];
  r.faults.ticks_delayed = flt[6];
  r.faults.softirq_spurious = flt[7];
  r.faults.softirq_dropped = flt[8];
  for (const auto& vm : array_field(obj, "vms").array) {
    PARATICK_CHECK_MSG(vm.type == json::Value::Type::kObject,
                       "run record: vm entry is not an object");
    r.vms.push_back(parse_vm(vm));
  }
  return r;
}

/// Throws naming `what` unless `doc` is a JSON object.
void check_object(const json::Value& doc, const char* what) {
  if (doc.type != json::Value::Type::kObject) {
    const std::string msg = std::string(what) + ": not a JSON object";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
}

}  // namespace

PlanInfo plan_info_for(const SweepConfig& cfg) {
  const SweepPlan plan = SweepPlan::make(cfg);
  PlanInfo p;
  p.bench = cfg.bench_name;
  p.root_seed = plan.config().root_seed;
  p.repeat = plan.config().repeat;
  p.total_runs = plan.total_runs();
  p.cells = plan.cell_keys();
  return p;
}

bool plans_match(const PlanInfo& a, const PlanInfo& b, std::string* why) {
  const auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (a.root_seed != b.root_seed) return fail("root seed");
  if (a.repeat != b.repeat) return fail("repeat count");
  if (a.total_runs != b.total_runs) return fail("total run count");
  if (a.cells.size() != b.cells.size()) return fail("cell grid size");
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const SweepCellKey& x = a.cells[i];
    const SweepCellKey& y = b.cells[i];
    if (x.variant != y.variant || x.mode != y.mode ||
        x.tick_freq_hz != y.tick_freq_hz || x.vcpus != y.vcpus ||
        x.overcommit != y.overcommit) {
      return fail("cell " + std::to_string(i) + " (" + x.label() + " vs " +
                  y.label() + ")");
    }
  }
  return true;
}

std::string to_json(const PlanInfo& p) {
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

PlanInfo parse_plan_info(const json::Value& doc) {
  check_object(doc, "plan header");
  const json::Value* kind = doc.find("kind");
  PARATICK_CHECK_MSG(kind != nullptr && kind->str == "paratick-dispatch-plan",
                     "plan header: wrong document kind");
  PlanInfo p;
  p.bench = json::str_field(doc, "bench");
  p.root_seed = u64_string_field(doc, "root_seed");
  p.repeat = json::int_field<int>(doc, "repeat");
  p.total_runs = json::int_field<std::size_t>(doc, "total_runs");
  for (const json::Value& cell : array_field(doc, "cells").array) {
    check_object(cell, "plan header: cell entry");
    SweepCellKey key;
    key.variant = json::str_field(cell, "variant");
    key.mode = guest::tick_mode_from_string(json::str_field(cell, "mode"));
    key.tick_freq_hz = json::num_field(cell, "tick_freq_hz");
    key.vcpus = json::int_field<int>(cell, "vcpus");
    key.overcommit = json::num_field(cell, "overcommit");
    p.cells.push_back(std::move(key));
  }
  PARATICK_CHECK_MSG(p.repeat >= 1 && p.total_runs == p.cells.size() *
                                          static_cast<std::size_t>(p.repeat),
                     "plan header: total_runs is not cells * repeat");
  return p;
}

std::string run_record_to_json(const SweepRun& run) {
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
  if (run.ok) {
    out += ", ";
    append_result(out, run.result);
  }
  out += '}';
  return out;
}

SweepRun parse_run_record(const json::Value& doc, const PlanInfo& plan) {
  check_object(doc, "run record");
  SweepRun run;
  run.run_index = json::int_field<std::size_t>(doc, "run_index");
  run.cell = json::int_field<std::size_t>(doc, "cell");
  if (run.run_index >= plan.total_runs || run.cell >= plan.cells.size()) {
    const std::string msg = metrics::format(
        "run record: run %zu (cell %zu) lies outside the plan (%zu runs, %zu "
        "cells)",
        run.run_index, run.cell, plan.total_runs, plan.cells.size());
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  run.replica = json::int_field<int>(doc, "replica");
  run.seed = u64_string_field(doc, "seed");
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
    f.line = json::int_field<int>(*failure, "line");
    f.message = json::str_field(*failure, "message");
    f.sim_time_ns = json::int_field<std::int64_t>(*failure, "sim_time_ns", -1);
    f.events_executed = u64_field(*failure, "events");
    run.failure = std::move(f);
  }
  if (const json::Value* result = doc.find("result")) {
    run.result = parse_result(*result);
  }
  return run;
}

}  // namespace paratick::core
