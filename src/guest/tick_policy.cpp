#include "guest/tick_policy.hpp"

#include <string>

#include "guest/tick_policies.hpp"
#include "sim/check.hpp"

namespace paratick::guest {

void TickPolicy::arm(std::optional<sim::SimTime> deadline) {
  ++stats_.msr_writes;
  armed_ = deadline;
  cpu_.write_tsc_deadline(deadline);
}

void TickPolicy::program_hrtimer(sim::SimTime deadline) {
  if (armed_covers(deadline)) {
    cpu_.ret();  // something earlier is already armed
    return;
  }
  armed_ = deadline;
  cpu_.write_tsc_deadline(deadline);
}

TickMode tick_mode_from_string(std::string_view name) {
  for (const auto m : {TickMode::kPeriodic, TickMode::kDynticksIdle,
                       TickMode::kFullDynticks, TickMode::kParatick}) {
    if (name == to_string(m)) return m;
  }
  PARATICK_CHECK_MSG(false, ("unknown tick mode: " + std::string(name)).c_str());
  return TickMode::kDynticksIdle;
}

std::unique_ptr<TickPolicy> make_tick_policy(TickMode mode, TickCpu& cpu) {
  if (mode == TickMode::kParatick) return std::make_unique<ParatickPolicy>(cpu);
  return std::make_unique<TickSchedPolicy>(mode, cpu);
}

}  // namespace paratick::guest
