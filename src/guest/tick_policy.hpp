// Scheduler-tick management policies — the unit under test.
//
// Two implementations mirror the paper:
//  * TickSchedPolicy — Linux's tick-sched state machine (§2, Figure 1),
//                      built from its TickMode: the periodic tick, NO_HZ
//                      "dynticks idle" and NO_HZ_FULL "full dynticks"
//                      differ only in when the tick may stop;
//  * ParatickPolicy  — virtual scheduler ticks (Figures 2/3, §5.2).
//
// Policies act on a narrow TickCpu interface so they can be unit-tested
// against a mock CPU as well as run on the full guest kernel. The policy
// is the only writer of its armed-deadline record: tick decisions go
// through arm(), the hrtimer subsystem through program_hrtimer().
//
// Policy entry points and the TickCpu services are kernel paths in the
// sense of guest/kernel_stack.hpp: they take no continuation. Each one
// completes by returning to the frame its caller pushed — through a
// TickCpu service it ends with, or through TickCpu::ret(). A policy that
// has more to do after a service pushes that rest first (push_frame).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "guest/cost_model.hpp"
#include "sim/inline_callback.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace paratick::guest {

enum class TickMode : std::uint8_t {
  kPeriodic,
  kDynticksIdle,  // vanilla Linux default; the paper's baseline
  kFullDynticks,  // NO_HZ_FULL: tick also stopped while busy with <=1 task
                  // (paper §2 mentions and excludes it; implemented here
                  // as an extension for completeness)
  kParatick,      // the paper's contribution
};

[[nodiscard]] constexpr std::string_view to_string(TickMode m) {
  switch (m) {
    case TickMode::kPeriodic: return "periodic";
    case TickMode::kDynticksIdle: return "dynticks-idle";
    case TickMode::kFullDynticks: return "full-dynticks";
    case TickMode::kParatick: return "paratick";
  }
  return "?";
}

/// Inverse of to_string(TickMode); throws sim::SimError naming `name` on
/// anything else.
[[nodiscard]] TickMode tick_mode_from_string(std::string_view name);

/// What a tick policy may do to / learn from its CPU.
class TickCpu {
 public:
  virtual ~TickCpu() = default;

  [[nodiscard]] virtual sim::SimTime now() const = 0;
  [[nodiscard]] virtual sim::SimTime tick_period() const = 0;
  [[nodiscard]] virtual bool is_idle() const = 0;
  /// Runnable tasks on this CPU including the current one (NO_HZ_FULL's
  /// "can the tick stop while busy?" input).
  [[nodiscard]] virtual int nr_running() const = 0;
  [[nodiscard]] virtual const GuestCostModel& costs() const = 0;

  // --- kernel-path continuations (guest/kernel_stack.hpp) ---
  /// Push the rest of the running kernel path: it runs when the next
  /// service or path returns.
  virtual void push_frame(sim::InlineCallback&& next) = 0;
  /// Return from the running kernel path now: pop the top frame, run it.
  virtual void ret() = 0;

  // --- services; each returns once done ---
  /// Full scheduler-tick work: time accounting, scheduler tick, RCU
  /// progress, timer-softirq processing.
  virtual void do_tick_work() = 0;

  /// Consume guest-kernel cycles (policy decision logic itself).
  virtual void kernel_work(sim::Cycles c) = 0;

  /// Program the tick timer hardware — always a VM exit (§3).
  virtual void write_tsc_deadline(std::optional<sim::SimTime> deadline) = 0;

  /// Declare the guest tick frequency to the host (§4.1) — a VM exit.
  virtual void paratick_hypercall(sim::SimTime period) = 0;

  /// Inputs to the idle-entry decision (Figures 1b / 3c).
  struct IdleSnapshot {
    bool tick_needed = false;  // RCU or pending softirq requires ticks
    std::optional<sim::SimTime> next_event;  // earliest pending guest timer
  };
  [[nodiscard]] virtual IdleSnapshot idle_snapshot() const = 0;
};

class TickPolicy {
 public:
  explicit TickPolicy(TickCpu& cpu) : cpu_(cpu) {}
  virtual ~TickPolicy() = default;

  [[nodiscard]] virtual TickMode mode() const = 0;
  [[nodiscard]] std::string_view name() const { return to_string(mode()); }

  // Every entry point returns to its caller's frame once done.

  /// One-time switch from early-boot periodic mode (§5.2.1).
  virtual void on_boot() = 0;

  /// The LAPIC/physical timer interrupt handler (Figures 1a / 3b).
  virtual void on_physical_tick() = 0;

  /// The virtual tick (vector 235) handler (Figure 3a). Non-paratick
  /// kernels never asked for virtual ticks and treat one as spurious.
  virtual void on_virtual_tick() { cpu_.ret(); }

  /// Idle-loop entry, before HLT (Figures 1b / 3c).
  virtual void on_idle_enter() = 0;

  /// Idle-loop exit, before running tasks again (Figure 1c / 3d).
  virtual void on_idle_exit() = 0;

  /// High-res mode: the hrtimer subsystem arms an expiring hrtimer on
  /// the hardware directly, unless a pending deadline at or before it is
  /// already armed. Not a tick decision: not counted in msr_writes.
  void program_hrtimer(sim::SimTime deadline);

  // --- introspection for tests & metrics ---
  struct Stats {
    std::uint64_t ticks_handled = 0;       // physical + virtual tick work done
    std::uint64_t virtual_ticks = 0;       // paratick injections handled
    std::uint64_t msr_writes = 0;          // timer (re)programming operations
    std::uint64_t msr_writes_avoided = 0;  // reprogramming skipped by policy checks
    std::uint64_t idle_entries = 0;
    std::uint64_t idle_exits = 0;
    std::uint64_t busy_stops = 0;  // NO_HZ_FULL adaptive stops while running

    bool operator==(const Stats&) const = default;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Guest-side record of the currently armed deadline (what the kernel
  /// last wrote to TSC_DEADLINE); nullopt when disarmed or fired.
  [[nodiscard]] std::optional<sim::SimTime> armed_deadline() const { return armed_; }

  /// Observed intervals between consecutive ticks handled on this CPU,
  /// in microseconds. For paratick this measures virtual-tick delivery
  /// jitter — a timekeeping-quality aspect the paper does not evaluate.
  [[nodiscard]] const sim::Accumulator& tick_intervals_us() const {
    return tick_intervals_us_;
  }

 protected:
  /// A tick decision that programs the timer: count it, record it as the
  /// armed deadline and write TSC_DEADLINE (nullopt = disarm).
  void arm(std::optional<sim::SimTime> deadline);

  /// An armed deadline at or before `target` is still pending.
  [[nodiscard]] bool armed_covers(sim::SimTime target) const {
    return armed_ && *armed_ <= target && *armed_ > cpu_.now();
  }

  /// Called by implementations whenever tick work is performed.
  void note_tick(sim::SimTime now) {
    if (last_tick_seen_) {
      tick_intervals_us_.add((now - *last_tick_seen_).microseconds());
    }
    last_tick_seen_ = now;
  }

  TickCpu& cpu_;
  Stats stats_;
  std::optional<sim::SimTime> armed_;
  sim::Accumulator tick_intervals_us_;
  std::optional<sim::SimTime> last_tick_seen_;
};

/// Create the policy implementing `mode` on `cpu` (tick period comes from
/// TickCpu::tick_period()).
[[nodiscard]] std::unique_ptr<TickPolicy> make_tick_policy(TickMode mode, TickCpu& cpu);

}  // namespace paratick::guest
