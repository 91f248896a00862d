// Concrete tick-policy implementations (see tick_policy.hpp for the
// contract and the paper figures each one mirrors).
#pragma once

#include "guest/tick_policy.hpp"

namespace paratick::guest {

/// Linux's tick-sched state machine (kernel/time/tick-sched.c) in the
/// mode it is built with. The tick runs on an absolute grid and re-arms
/// on every tick; the modes differ only in when it may stop:
///  * periodic      — never (§2/§3.1): two exits per tick period;
///  * dynticks-idle — on idle entry (Figure 1), restarted on idle exit —
///                    each of which writes TSC_DEADLINE, a VM exit (§3.2);
///  * full-dynticks — also while busy with at most one runnable task and
///                    a quiet kernel (NO_HZ_FULL, §2), keeping a 1 s
///                    housekeeping tick. Every adaptive decision is still
///                    an MSR write, which is why it does not solve the
///                    paper's problem.
class TickSchedPolicy final : public TickPolicy {
 public:
  TickSchedPolicy(TickMode mode, TickCpu& cpu);

  static constexpr sim::SimTime kHousekeepingPeriod = sim::SimTime::sec(1);

  [[nodiscard]] TickMode mode() const override { return mode_; }
  void on_boot() override;
  void on_physical_tick() override;
  void on_idle_enter() override;
  void on_idle_exit() override;

  [[nodiscard]] bool tick_stopped() const { return tick_stopped_; }

 private:
  /// May the tick stop on idle entry? Every mode but periodic.
  [[nodiscard]] bool stops_when_idle() const { return mode_ != TickMode::kPeriodic; }
  /// May the tick stop on a busy CPU? Full-dynticks only.
  [[nodiscard]] bool stops_when_busy() const { return mode_ == TickMode::kFullDynticks; }
  /// NO_HZ_FULL's busy-stop test: a mode that stops when busy, at most
  /// one runnable task, and no kernel component needing the tick.
  [[nodiscard]] bool can_stop_while_busy() const;
  /// `target`, or the next pending soft event if that is sooner.
  [[nodiscard]] sim::SimTime bounded_by_next_event(sim::SimTime target) const;

  TickMode mode_;
  sim::SimTime next_tick_;
  bool tick_stopped_ = false;
};

/// Paratick (paper Figures 2/3, §5.2): the guest never programs its own
/// scheduler tick; the host injects virtual ticks (vector 235) on VM
/// entry. A physical timer is programmed on idle entry only when RCU /
/// soft timers need a wake-up, and — heuristically — never disarmed.
class ParatickPolicy final : public TickPolicy {
 public:
  explicit ParatickPolicy(TickCpu& cpu) : TickPolicy(cpu) {}

  [[nodiscard]] TickMode mode() const override { return TickMode::kParatick; }
  void on_boot() override;
  void on_physical_tick() override;
  void on_virtual_tick() override;
  void on_idle_enter() override;
  void on_idle_exit() override;

 private:
  /// Program the idle wake-up timer only if nothing earlier is armed
  /// (§5.2.4): the never-disarm heuristic makes an already-armed earlier
  /// deadline reusable for free.
  void maybe_program(sim::SimTime target);
};

}  // namespace paratick::guest
