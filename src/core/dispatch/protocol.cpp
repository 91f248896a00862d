#include "core/dispatch/protocol.hpp"

#include "core/cli_parse.hpp"
#include "core/json.hpp"
#include "core/sweep_plan.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"

namespace paratick::core::dispatch {

namespace {
using ull = unsigned long long;
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

std::string to_json(const PlanInfo& p) {
  std::string out = metrics::format(
      "{\"kind\": \"paratick-dispatch-plan\", \"bench\": \"%s\", "
      "\"root_seed\": \"%llu\", \"repeat\": %d, \"total_runs\": %llu, "
      "\"cells\": [",
      metrics::json_escape(p.bench).c_str(), static_cast<ull>(p.root_seed),
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

PlanInfo parse_plan_info(const std::string& text) {
  const json::Value doc = json::parse(text);
  PARATICK_CHECK_MSG(doc.type == json::Value::Type::kObject,
                     "plan header: document is not a JSON object");
  const json::Value* kind = doc.find("kind");
  PARATICK_CHECK_MSG(kind != nullptr && kind->str == "paratick-dispatch-plan",
                     "plan header: wrong document kind");
  PlanInfo p;
  p.bench = json::str_field(doc, "bench");
  const json::Value* seed = doc.find("root_seed");
  PARATICK_CHECK_MSG(seed != nullptr && seed->type == json::Value::Type::kString,
                     "plan header: missing root_seed");
  p.root_seed = parse_u64_flag("plan header: root_seed", seed->str);
  p.repeat = json::int_field<int>(doc, "repeat", 1);
  p.total_runs = json::int_field<std::size_t>(doc, "total_runs");
  const json::Value* cells = doc.find("cells");
  PARATICK_CHECK_MSG(cells != nullptr && cells->type == json::Value::Type::kArray,
                     "plan header: missing cells array");
  for (const auto& cell : cells->array) {
    PARATICK_CHECK_MSG(cell.type == json::Value::Type::kObject,
                       "plan header: cell entry is not an object");
    SweepCellKey key;
    key.variant = json::str_field(cell, "variant");
    key.mode = guest::tick_mode_from_string(json::str_field(cell, "mode"));
    key.tick_freq_hz = json::num_field(cell, "tick_freq_hz");
    key.vcpus = json::int_field<int>(cell, "vcpus");
    key.overcommit = json::num_field(cell, "overcommit");
    p.cells.push_back(std::move(key));
  }
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

std::string assignment_line(std::size_t idx) {
  return "#run " + std::to_string(idx);
}

std::size_t parse_assignment(const std::string& line, std::size_t run_count) {
  if (line.rfind("#run ", 0) != 0) {
    const std::string msg = "#run: expected an assignment \"#run N\", got \"" +
                            line.substr(0, 40) + "\"";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  const std::uint64_t idx = parse_u64_flag("#run", line.substr(5));
  if (idx >= run_count) {
    const std::string msg = "#run: run index " + std::to_string(idx) +
                            " is outside the plan (" +
                            std::to_string(run_count) + " runs)";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  return static_cast<std::size_t>(idx);
}

}  // namespace paratick::core::dispatch
