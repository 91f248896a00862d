// Fault classes and knobs for deterministic chaos injection.
//
// All probabilities default to 0: a default FaultConfig is inert and a
// System built with one behaves bit-identically to a faultless build.
// Rates are per-opportunity Bernoulli draws on dedicated RNG streams
// (see injector.hpp) so enabling one fault class never perturbs another.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace paratick::fault {

struct FaultConfig {
  // --- hw: LAPIC deadline-timer interrupts -------------------------------
  /// Probability a hardware timer fire is lost entirely.
  double timer_drop_prob = 0.0;
  /// Probability a fire is delivered late, by uniform(0, timer_late_max].
  double timer_late_prob = 0.0;
  sim::SimTime timer_late_max = sim::SimTime::us(300);
  /// Probability a fire is coalesced: deferred to the end of a window, the
  /// way tick-coalescing hosts batch adjacent deadline interrupts.
  double timer_coalesce_prob = 0.0;
  sim::SimTime timer_coalesce_window = sim::SimTime::us(800);

  // --- hw: per-CPU TSC drift ---------------------------------------------
  /// Parts-per-million skew applied to armed deadlines, with a per-CPU
  /// sign/magnitude derived purely from the fault seed (cross-CPU drift).
  double tsc_drift_ppm = 0.0;

  // --- hw: block device ---------------------------------------------------
  /// Probability an I/O request completes with an error.
  double io_error_prob = 0.0;
  /// Probability an I/O request hits a latency spike of io_spike_factor×.
  double io_spike_prob = 0.0;
  double io_spike_factor = 20.0;

  // --- hv: scheduling -----------------------------------------------------
  /// Probability a VM entry is preempted by a steal burst of
  /// uniform(0, steal_burst_max] before the guest actually runs.
  double steal_burst_prob = 0.0;
  sim::SimTime steal_burst_max = sim::SimTime::ms(2);
  /// Probability a due paravirtual tick injection is delayed to the next
  /// VM entry (models a host that misses the entry hook).
  double tick_delay_prob = 0.0;

  // --- guest: softirq layer ----------------------------------------------
  /// Probability a timer interrupt raises the softirq with no expired
  /// timers behind it (spurious wakeup: pay the cost, do no work).
  double softirq_spurious_prob = 0.0;
  /// Probability a timer-expiry pass is dropped; timers stay pending until
  /// the next interrupt (models a lost softirq).
  double softirq_drop_prob = 0.0;

  [[nodiscard]] bool any() const {
    return timer_drop_prob > 0 || timer_late_prob > 0 ||
           timer_coalesce_prob > 0 || tsc_drift_ppm > 0 || io_error_prob > 0 ||
           io_spike_prob > 0 || steal_burst_prob > 0 || tick_delay_prob > 0 ||
           softirq_spurious_prob > 0 || softirq_drop_prob > 0;
  }
};

/// Counters for how often each fault class actually fired during a run.
struct FaultStats {
  std::uint64_t timer_dropped = 0;
  std::uint64_t timer_delayed = 0;
  std::uint64_t timer_coalesced = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t io_spikes = 0;
  std::uint64_t steal_bursts = 0;
  std::uint64_t ticks_delayed = 0;
  std::uint64_t softirq_spurious = 0;
  std::uint64_t softirq_dropped = 0;

  [[nodiscard]] std::uint64_t total() const {
    return timer_dropped + timer_delayed + timer_coalesced + io_errors +
           io_spikes + steal_bursts + ticks_delayed + softirq_spurious +
           softirq_dropped;
  }

  bool operator==(const FaultStats&) const = default;
};

}  // namespace paratick::fault
