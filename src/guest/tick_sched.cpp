// The tick-sched state machine: periodic tick, NO_HZ idle (paper
// Figure 1) and NO_HZ_FULL (§2, which the paper mentions and excludes
// because it "targets highly specific workloads"; modelled here as an
// extension).
#include "guest/tick_policies.hpp"

#include "sim/check.hpp"

namespace paratick::guest {

TickSchedPolicy::TickSchedPolicy(TickMode mode, TickCpu& cpu)
    : TickPolicy(cpu), mode_(mode) {
  PARATICK_CHECK_MSG(mode != TickMode::kParatick, "paratick is ParatickPolicy");
}

bool TickSchedPolicy::can_stop_while_busy() const {
  return stops_when_busy() && cpu_.nr_running() <= 1 &&
         !cpu_.idle_snapshot().tick_needed;
}

sim::SimTime TickSchedPolicy::bounded_by_next_event(sim::SimTime target) const {
  const auto next = cpu_.idle_snapshot().next_event;
  return next && *next < target ? *next : target;
}

void TickSchedPolicy::on_boot() {
  next_tick_ = cpu_.now() + cpu_.tick_period();
  arm(next_tick_);
}

// Figure 1a: perform tick work; re-arm unless the tick was stopped by the
// time the interrupt is handled.
void TickSchedPolicy::on_physical_tick() {
  ++stats_.ticks_handled;
  note_tick(cpu_.now());
  armed_.reset();  // the deadline just fired
  cpu_.push_frame([this] {
    sim::SimTime target;
    if (!cpu_.is_idle() && can_stop_while_busy()) {
      // Adaptive tick: with a single runnable task and a quiet kernel,
      // defer the next tick to the housekeeping horizon.
      target = cpu_.now() + kHousekeepingPeriod;
      ++stats_.busy_stops;
    } else if (tick_stopped_) {
      // Deferred/disabled in the meantime — skip the re-arm (Figure 1a's
      // "tick disabled?" branch).
      cpu_.ret();
      return;
    } else {
      // Advance along the absolute tick grid; skip any periods lost to
      // processing delay rather than drifting.
      const sim::SimTime period = cpu_.tick_period();
      while (next_tick_ <= cpu_.now()) next_tick_ += period;
      target = next_tick_;
    }
    // Program the earlier of that and the next pending hrtimer
    // (hrtimer_interrupt re-arm semantics). An hrtimer that came due
    // *during* tick work is programmed as-is: a past TSC deadline fires
    // immediately, re-entering the expiry path — skipping it would
    // silently defer the timer a full grid period.
    arm(bounded_by_next_event(target));
  });
  cpu_.do_tick_work();
}

// Figure 1b: on idle entry, keep the tick if some component still needs
// it or the next event falls within one tick period; otherwise defer the
// timer to the next soft event, or disable it entirely.
void TickSchedPolicy::on_idle_enter() {
  ++stats_.idle_entries;
  if (!stops_when_idle()) {
    cpu_.ret();  // periodic: the tick keeps running while idle — the whole problem
    return;
  }
  cpu_.push_frame([this] {
    const TickCpu::IdleSnapshot snap = cpu_.idle_snapshot();
    if (snap.tick_needed) {
      cpu_.ret();  // RCU / softirq pending: tick retained, enter idle directly
      return;
    }
    if (snap.next_event && *snap.next_event <= cpu_.now() + cpu_.tick_period()) {
      // Next event within one tick period: not worth stopping the tick.
      // High-res mode still hands the hardware the earliest hrtimer if
      // it beats the programmed tick — otherwise the event would sit
      // until the grid point and look like phantom steal to the guest.
      if (armed_ && *armed_ <= *snap.next_event) {
        cpu_.ret();
        return;
      }
      arm(*snap.next_event);
      return;
    }
    tick_stopped_ = true;
    if (armed_ == snap.next_event) {
      // Already programmed at exactly this expiry (e.g. repeated idle
      // entries with an unchanged timer list): skip the MSR write.
      ++stats_.msr_writes_avoided;
      cpu_.ret();
      return;
    }
    arm(snap.next_event);  // nullopt = disable
  });
  cpu_.kernel_work(cpu_.costs().idle_governor);
}

// Figure 1c: on idle exit, restart the tick if it was deferred/disabled.
void TickSchedPolicy::on_idle_exit() {
  ++stats_.idle_exits;
  if (!tick_stopped_) {
    cpu_.ret();
    return;
  }
  tick_stopped_ = false;
  sim::SimTime target;
  if (can_stop_while_busy()) {
    // NO_HZ_FULL returning to a single task: the tick may stay off,
    // modulo housekeeping.
    target = cpu_.now() + kHousekeepingPeriod;
    ++stats_.busy_stops;
  } else {
    next_tick_ = cpu_.now() + cpu_.tick_period();
    target = next_tick_;
  }
  // Only NO_HZ_FULL's restart honours a sooner pending event; NO_HZ idle
  // restarts one full period out.
  if (stops_when_busy()) target = bounded_by_next_event(target);
  arm(target);
}

}  // namespace paratick::guest
