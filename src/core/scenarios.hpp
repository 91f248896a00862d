// Named chaos scenarios + the fault-knob CLI table.
//
// A replay bundle names the scenario it came from; bench_replay rebuilds
// the exact SweepConfig through this registry and re-executes the failing
// run index. Scenarios must therefore be pure functions of their name —
// no CLI state, no ambient configuration.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/sweep.hpp"
#include "fault/fault.hpp"

namespace paratick::core {

/// The default --chaos fault mix: every class enabled at a moderate rate,
/// aggressive enough to exercise recovery paths in a one-second run but
/// not so hot that every run degrades.
[[nodiscard]] fault::FaultConfig default_chaos_faults();

/// One --fault-<knob> X flag per knob (e.g. --fault-timer-drop 0.02):
/// each appends (knob, X) to `overrides`, X a finite number >= 0.
[[nodiscard]] std::vector<CliFlag> fault_knob_flags(
    std::vector<std::pair<std::string, double>>& overrides);

/// Set one knob by CLI name. Probabilities take the value verbatim;
/// duration knobs (timer-late-max, coalesce-window, steal-burst-max) read
/// the value as microseconds. PARATICK_CHECKs on unknown names.
void set_fault_knob(fault::FaultConfig& cfg, const std::string& knob, double value);

/// Registered chaos scenarios (bench_chaos positionals / replay targets).
[[nodiscard]] std::span<const char* const> chaos_scenario_names();
[[nodiscard]] bool is_chaos_scenario(std::string_view name);

/// Build the full sweep for a scenario. The chaos fault mix is
/// pre-applied; callers may still override via SweepCli.
/// PARATICK_CHECKs on unknown names.
[[nodiscard]] SweepConfig build_chaos_scenario(std::string_view name);

}  // namespace paratick::core
