// FaultInjector: turns a FaultConfig plus a plan seed into concrete,
// reproducible fault decisions.
//
// Determinism contract: the plan seed is derived purely from
// (root_seed, run_index) by the sweep layer, and each fault class draws
// from its own RNG stream, so a chaos sweep produces bit-identical fault
// sequences at any thread count. Decision methods
// early-return without consuming randomness when their class is disabled,
// keeping partially-enabled configs stable as knobs are added.
#pragma once

#include <cstdint>

#include "fault/fault.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace paratick::fault {

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, std::uint64_t plan_seed);

  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t plan_seed() const { return plan_seed_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // --- hw: deadline timers ------------------------------------------------
  struct TimerDecision {
    enum class Action : std::uint8_t { kDeliver, kDrop, kDefer };
    Action action = Action::kDeliver;
    sim::SimTime defer_until;  // valid when action == kDefer
  };
  /// Decide the fate of a timer interrupt due now.
  TimerDecision on_timer_fire(sim::SimTime now);

  /// Apply per-CPU TSC drift to an armed deadline. Pure (no RNG stream is
  /// consumed): the drift for a given CPU is a fixed ppm offset hashed
  /// from (plan_seed, cpu), so arming order cannot perturb other faults.
  [[nodiscard]] sim::SimTime skew_deadline(std::uint32_t cpu, sim::SimTime now,
                                           sim::SimTime deadline) const;

  // --- hw: block device ---------------------------------------------------
  struct IoDecision {
    bool fail = false;
    double latency_factor = 1.0;
  };
  IoDecision on_io_start();

  // --- hv: scheduling -----------------------------------------------------
  /// Steal burst charged before a VM entry; zero when none is injected.
  sim::SimTime steal_burst();
  /// True when a due paravirtual tick injection should be postponed.
  bool delay_tick_injection();

  // --- guest: softirqs ----------------------------------------------------
  bool spurious_softirq();
  bool drop_softirq();

 private:
  FaultConfig config_;
  std::uint64_t plan_seed_;
  FaultStats stats_;
  // One stream per fault domain so classes stay independent.
  sim::Rng timer_rng_;
  sim::Rng io_rng_;
  sim::Rng sched_rng_;
  sim::Rng guest_rng_;
};

}  // namespace paratick::fault
