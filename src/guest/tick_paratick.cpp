// Paratick guest side (paper Figures 3a-3d, §5.2).
#include "guest/tick_policies.hpp"

namespace paratick::guest {

// §5.2.1: declare the tick frequency to the host and enable virtual tick
// injection. The guest never arms a periodic tick of its own.
void ParatickPolicy::on_boot() { cpu_.paratick_hypercall(cpu_.tick_period()); }

// Figure 3a: the virtual-tick (vector 235) handler — full tick work,
// but no timer hardware is ever (re)armed.
void ParatickPolicy::on_virtual_tick() {
  ++stats_.ticks_handled;
  ++stats_.virtual_ticks;
  note_tick(cpu_.now());
  cpu_.do_tick_work();
}

// Figure 3b: the physical-timer handler. The timer only exists because
// idle entry programmed a wake-up; if the CPU is still idle the wake-up
// is crucial and doubles as a tick. If the CPU is busy again, virtual
// ticks are flowing and there is nothing to do.
void ParatickPolicy::on_physical_tick() {
  armed_.reset();  // the idle timer just fired; our record is consumed
  if (cpu_.is_idle()) {
    ++stats_.ticks_handled;
    note_tick(cpu_.now());
    cpu_.do_tick_work();
    return;
  }
  cpu_.ret();
}

// §5.2.4: arm the idle wake-up only when the existing timer (never
// disarmed on idle exit — the §4.1 heuristic) cannot cover the deadline.
void ParatickPolicy::maybe_program(sim::SimTime target) {
  if (armed_covers(target)) {
    ++stats_.msr_writes_avoided;  // a sooner (or equal) wake-up is already armed
    cpu_.ret();
    return;
  }
  arm(target);
}

// Figure 3c: idle entry.
void ParatickPolicy::on_idle_enter() {
  ++stats_.idle_entries;
  cpu_.push_frame([this] {
    const TickCpu::IdleSnapshot snap = cpu_.idle_snapshot();
    if (snap.tick_needed) {
      // RCU or softirqs still need ticks, but nobody will inject virtual
      // ticks into a descheduled vCPU: program a wake-up one period out.
      maybe_program(cpu_.now() + cpu_.tick_period());
      return;
    }
    if (snap.next_event) {
      maybe_program(*snap.next_event);
      return;
    }
    cpu_.ret();  // nothing scheduled: sleep until an external interrupt
  });
  cpu_.kernel_work(cpu_.costs().idle_governor);
}

// Figure 3d: idle exit is free — the timer, if any, stays armed.
void ParatickPolicy::on_idle_exit() {
  ++stats_.idle_exits;
  cpu_.ret();
}

}  // namespace paratick::guest
