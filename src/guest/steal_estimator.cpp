#include "guest/steal_estimator.hpp"

#include "guest/kernel.hpp"
#include "sim/check.hpp"

namespace paratick::guest {

void StealEstimator::arm(GuestCpu& cpu, const StealEstimatorConfig& config) {
  PARATICK_CHECK_MSG(config.sample_period > sim::SimTime::zero(),
                     "steal estimator sample period must be > 0");
  cpu_ = &cpu;
  config_ = config;
  expected_ = cpu.now() + config_.sample_period;
  cpu.timers().add(expected_, [this] { on_fire(); });
}

void StealEstimator::on_fire() {
  const sim::SimTime now = cpu_->now();
  const sim::SimTime late = now - expected_;
  if (late > config_.noise_floor) estimate_ += late;
  ++samples_;
  // Re-arm relative to *now*: after a stolen interval the schedule moves
  // with the guest's own clock, so each sample measures fresh lateness
  // instead of a compounding backlog against the original grid.
  expected_ = now + config_.sample_period;
  cpu_->timers().add(expected_, [this] { on_fire(); });
}

}  // namespace paratick::guest
