// Platform-agnostic guest-side steal-time estimation.
//
// The guest cannot read the hypervisor's scheduling ledger, but it can
// observe that its own timers fire late: a sampling timer armed every
// `sample_period` should fire on time whenever the vCPU actually runs,
// so any lateness beyond benign delivery overhead is time the vCPU was
// runnable-but-descheduled (or preempted on the entry path) — steal.
// This is the measurement loop of the "platform-agnostic steal-time
// measurement in a guest OS" approach (see PAPERS.md): no paravirtual
// interface, no /proc/stat, just the guest's own clock against its own
// expectations.
//
// The estimate is deliberately judged against the hypervisor ground
// truth (hv::Vcpu::steal_total): the cluster scheduler consumes the
// estimate, and estimator-vs-truth error is an exported metric.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace paratick::guest {

class GuestCpu;

struct StealEstimatorConfig {
  bool enabled = false;
  /// Sampling-timer period. Finer sampling catches more of the dispersed
  /// short waits that dominate steal under consolidation (each sample
  /// only observes the delay of its own delivery), at the cost of more
  /// timer traffic perturbing the measured guest.
  sim::SimTime sample_period = sim::SimTime::ms(1);
  /// Lateness at or below this floor is attributed to benign delivery
  /// overhead (irq entry, softirq batching, wake latency) and ignored.
  /// Benign lateness measures single-digit microseconds in an
  /// uncontended run; contended dispatch is tens to thousands of
  /// microseconds, so the floor sits between the two regimes.
  sim::SimTime noise_floor = sim::SimTime::us(25);
};

/// Per-CPU estimator: a self-re-arming sampling hrtimer whose lateness,
/// gated at the noise floor, accumulates into the steal estimate.
class StealEstimator {
 public:
  /// Install the sampling timer on `cpu`'s timer queue. Called from
  /// GuestCpu::power_on when the config enables the estimator.
  void arm(GuestCpu& cpu, const StealEstimatorConfig& config);

  [[nodiscard]] sim::SimTime estimate() const { return estimate_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  /// Deadline of the pending sample — the boot path hands this to
  /// TickPolicy::program_hrtimer so sample #1 actually reaches the hardware.
  [[nodiscard]] sim::SimTime next_deadline() const { return expected_; }

 private:
  void on_fire();

  GuestCpu* cpu_ = nullptr;
  StealEstimatorConfig config_;
  sim::SimTime expected_;
  sim::SimTime estimate_;
  std::uint64_t samples_ = 0;
};

}  // namespace paratick::guest
