// The discrete-event simulation engine: a clock plus an event queue.
//
// All components of the virtualized-host model (timers, CPUs, the
// hypervisor, guest kernels, devices) schedule callbacks on one shared
// Engine, which guarantees a single global order of events.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace paratick::sim {

/// Hot-path self-profile of one Engine. All counters except wall_ns are
/// pure functions of the simulated workload (bit-identical across runs,
/// machines and backends); wall_ns is host wall-clock spent inside
/// run()/run_until() and is reporting-only.
struct EngineProfile {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  /// Callbacks that took the InlineCallback::spill() heap escape hatch.
  /// The hot path targets zero: any non-zero value is an oversized capture.
  std::uint64_t callback_spills = 0;
  std::uint64_t callback_spill_bytes = 0;
  /// Most events simultaneously live (slot-map occupancy high-water mark).
  std::uint64_t slot_high_water = 0;
  /// Dead-entry heap rebuilds triggered by cancellation churn.
  std::uint64_t compactions = 0;
  /// Host nanoseconds spent inside run()/run_until(). Not deterministic.
  std::uint64_t wall_ns = 0;

  /// Events executed per wall second, or 0 before any run() call.
  [[nodiscard]] double events_per_sec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(events_executed) /
                              (static_cast<double>(wall_ns) * 1e-9);
  }
};

class Engine;
class Watchdog;

/// Per-event hook into the dispatch loop, the record/replay tap point
/// (core/record_replay): called after every event callback completes,
/// with the event's timestamp and schedule-order sequence number. The
/// observer only reads engine state, so attaching one never perturbs the
/// simulation — results stay bit-identical with or without it. An
/// observer may throw (replay divergence checking does); the error
/// propagates out of step()/run() exactly like a failing event.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  virtual void on_event_executed(Engine& engine, SimTime when,
                                 std::uint64_t seq) = 0;
};

class Engine {
 public:
  using Callback = EventQueue::Callback;

  /// The engine currently executing an event on this thread, or nullptr.
  /// Set for the duration of each event callback so deep call sites
  /// (e.g. a failing PARATICK_CHECK) can attach sim-time context without
  /// threading an Engine& through every layer.
  [[nodiscard]] static Engine* current();

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `when` (must not be in the past).
  EventId schedule_at(SimTime when, Callback&& fn);

  /// Schedule `fn` after a non-negative delay from now.
  EventId schedule_after(SimTime delay, Callback&& fn);

  /// Cancel a pending event; returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  /// Run events up to and including `deadline`, then leave the clock at
  /// `deadline` (at the stopping event after a stop()). Once the queue is
  /// empty, the watchdog is swept at each Watchdog::kPeriod boundary up to
  /// `deadline`, since no event is left to sweep at.
  void run_until(SimTime deadline);

  /// Run events strictly before `bound` — the parallel engine's quantum
  /// window (events at exactly `bound` belong to the next window, after
  /// cross-partition deliveries commit). Unlike run_until, the clock is
  /// left at the last executed event, NOT advanced to `bound`: the driver
  /// calls advance_to() once the run as a whole completes.
  void run_before(SimTime bound);

  /// Advance the clock to `t` without executing anything. `t` must not be
  /// in the past and must not skip over a pending event.
  void advance_to(SimTime t);

  /// Run until the queue is empty (or stop() is called).
  void run();

  /// Execute exactly one event if any is pending; returns false when idle.
  bool step();

  /// Request that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  /// Bound the wall-clock time this engine may spend executing events.
  /// Once exceeded (checked every few hundred events), step() throws
  /// SimError{kTimeout} — hung-run detection for chaos sweeps.
  /// The budget is stored here but anchored when execution begins (the
  /// first run()/run_until()/run_before() or bare step() afterwards), so
  /// setup work between configuring the limit and starting the run never
  /// consumes it. `seconds <= 0` disables the limit.
  void set_wall_limit(double seconds);

  [[nodiscard]] bool has_pending_events() const { return !queue_.empty(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  /// Snapshot of the hot-path counters (see EngineProfile). wall_ns only
  /// covers run()/run_until(), not bare step() loops.
  [[nodiscard]] EngineProfile profile() const;

  /// Attach (or detach, with nullptr) the per-event observer. Non-owning;
  /// the observer must outlive the run.
  void set_observer(EventObserver* observer) { observer_ = observer; }

  /// Attach (or detach, with nullptr) the invariant watchdog. Non-owning;
  /// the watchdog must outlive the run. step() sweeps it at the first
  /// event at or after each Watchdog::kPeriod boundary, starting with the
  /// first boundary at or after now(), and run_until() at the boundaries
  /// a drained queue leaves (see sim/watchdog.hpp).
  void set_watchdog(Watchdog* watchdog);

  /// Cheap digest of the deterministic engine state (clock, executed and
  /// pending event counts, schedule/cancel totals). A pure function of
  /// the workload: two runs of the same seed produce the same digest at
  /// every event, so a single mismatch is proof of divergence.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  /// Anchor the wall budget at the current host clock (first execution
  /// after set_wall_limit). No-op once armed or when no limit is set.
  void arm_wall_limit();

  /// Sweep the watchdog and move next_sweep_ to the following boundary.
  void sweep_watchdog();

  EventQueue queue_;
  EventObserver* observer_ = nullptr;
  Watchdog* watchdog_ = nullptr;
  /// Time of the next watchdog sweep; SimTime::max() when detached, so
  /// step() pays one time comparison per event either way.
  SimTime next_sweep_ = SimTime::max();
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  std::uint64_t run_wall_ns_ = 0;
  bool stopped_ = false;
  bool wall_limited_ = false;
  bool wall_armed_ = false;
  std::uint64_t wall_budget_ns_ = 0;
  std::uint64_t wall_deadline_ns_ = 0;  // CLOCK_MONOTONIC-ish steady ns
};

}  // namespace paratick::sim
