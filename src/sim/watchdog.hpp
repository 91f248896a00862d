// Invariant watchdog: a set of runtime invariants that the engine sweeps
// from its dispatch loop while a simulation runs.
//
// An Engine with a Watchdog attached (Engine::set_watchdog) calls sweep()
// at the first event at or after each kPeriod boundary of simulated time
// (0, 5 ms, 10 ms, ...), after the clock moves to that event and before
// the event runs. Once the queue drains, Engine::run_until() sweeps at
// each boundary up to its deadline instead, so a guest that hangs with
// nothing scheduled is still reported within a period. Nothing is
// scheduled, so attaching a watchdog never changes what the engine
// executes: event counters and state_digest() are identical with and
// without one. run() and run_before() sweep only at events; a caller
// that wants a last look after its final event calls sweep() itself.
//
// core::System is the watchdog of every simulated host and is always on
// (see core/system.hpp for its checks). A sweep throws SimError{kWatchdog}
// naming the failed check on the first violation.
#pragma once

#include "sim/types.hpp"

namespace paratick::sim {

class Engine;

class Watchdog {
 public:
  /// Simulated time between sweeps.
  static constexpr SimTime kPeriod = SimTime::ms(5);

  Watchdog() = default;
  Watchdog(const Watchdog&) = delete;  // the engine holds its address
  Watchdog& operator=(const Watchdog&) = delete;
  virtual ~Watchdog() = default;

  /// Check every invariant against `engine`'s current state; throws
  /// SimError{kWatchdog} on the first violation.
  virtual void sweep(const Engine& engine) = 0;
};

}  // namespace paratick::sim
