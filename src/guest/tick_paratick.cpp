// Paratick guest side (paper Figures 3a-3d, §5.2).
#include "guest/tick_policies.hpp"

namespace paratick::guest {

// §5.2.1: declare the tick frequency to the host and enable virtual tick
// injection. The guest never arms a periodic tick of its own.
void ParatickPolicy::on_boot(std::function<void()> done) {
  cpu_.paratick_hypercall(cpu_.tick_period(), std::move(done));
}

// Figure 3a: the virtual-tick (vector 235) handler — full tick work,
// but no timer hardware is ever (re)armed.
void ParatickPolicy::on_virtual_tick(std::function<void()> done) {
  ++stats_.ticks_handled;
  ++stats_.virtual_ticks;
  note_tick(cpu_.now());
  cpu_.do_tick_work(std::move(done));
}

// Figure 3b: the physical-timer handler. The timer only exists because
// idle entry programmed a wake-up; if the CPU is still idle the wake-up
// is crucial and doubles as a tick. If the CPU is busy again, virtual
// ticks are flowing and there is nothing to do.
void ParatickPolicy::on_physical_tick(std::function<void()> done) {
  armed_.reset();  // the idle timer just fired; our record is consumed
  if (cpu_.is_idle()) {
    ++stats_.ticks_handled;
    note_tick(cpu_.now());
    cpu_.do_tick_work(std::move(done));
    return;
  }
  done();
}

// §5.2.4: arm the idle wake-up only when the existing timer (never
// disarmed on idle exit — the §4.1 heuristic) cannot cover the deadline.
void ParatickPolicy::maybe_program(sim::SimTime target, std::function<void()> done) {
  if (armed_covers(target)) {
    ++stats_.msr_writes_avoided;  // a sooner (or equal) wake-up is already armed
    done();
    return;
  }
  arm(target, std::move(done));
}

// Figure 3c: idle entry.
void ParatickPolicy::on_idle_enter(std::function<void()> done) {
  ++stats_.idle_entries;
  cpu_.kernel_work(cpu_.costs().idle_governor, [this, done = std::move(done)]() mutable {
    const TickCpu::IdleSnapshot snap = cpu_.idle_snapshot();
    if (snap.tick_needed) {
      // RCU or softirqs still need ticks, but nobody will inject virtual
      // ticks into a descheduled vCPU: program a wake-up one period out.
      maybe_program(cpu_.now() + cpu_.tick_period(), std::move(done));
      return;
    }
    if (snap.next_event) {
      maybe_program(*snap.next_event, std::move(done));
      return;
    }
    done();  // nothing scheduled: sleep until an external interrupt
  });
}

// Figure 3d: idle exit is free — the timer, if any, stays armed.
void ParatickPolicy::on_idle_exit(std::function<void()> done) {
  ++stats_.idle_exits;
  done();
}

}  // namespace paratick::guest
