#include "workload/tenant_traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "guest/kernel.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace paratick::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586;
/// Floor on the diurnal trough so λ(t) never collapses to zero (an
/// amplitude of 1.0 would otherwise stall the Poisson process entirely).
constexpr double kMinRateScale = 0.05;

/// λ(t) / λ_base at guest time `t`.
double rate_scale_at(const TenantTrafficSpec& spec,
                     const std::vector<sim::SimTime>& flash_starts,
                     sim::SimTime t) {
  double scale = 1.0;
  if (spec.diurnal_amplitude > 0.0 &&
      spec.diurnal_period > sim::SimTime::zero()) {
    const double phase = kTwoPi * (t.seconds() / spec.diurnal_period.seconds());
    scale *= 1.0 + spec.diurnal_amplitude * std::sin(phase);
  }
  for (const sim::SimTime start : flash_starts) {
    if (t >= start && t < start + spec.flash_duration) {
      scale *= spec.flash_multiplier;
      break;
    }
  }
  return std::max(scale, kMinRateScale);
}

/// One open-loop request worker: sleep an Exp(1/λ(t)) inter-arrival,
/// service the request, repeat until the spec's horizon. Owned by its
/// task body as a two-phase resumable step: each call issues the sleep or
/// the service compute, and that op's completion calls step() again.
struct TenantWorker {
  TenantTrafficSpec spec;
  std::vector<sim::SimTime> flash_starts;
  bool sleeping = false;

  void step(guest::TaskApi& api) {
    if (sleeping) {
      sleeping = false;
      api.compute(sim::Cycles{spec.service_cycles});
      return;
    }
    if (api.now() >= spec.until) {
      api.finish();
      return;
    }
    const double scale = rate_scale_at(spec, flash_starts, api.now());
    const auto mean_ns = static_cast<std::int64_t>(std::llround(
        static_cast<double>(spec.mean_interarrival.nanoseconds()) / scale));
    const sim::SimTime wait =
        api.rng().exp_time(sim::SimTime::ns(std::max<std::int64_t>(mean_ns, 1)));
    sleeping = true;
    api.sleep_for(wait);
  }
};

}  // namespace

void install_tenant_traffic(guest::GuestKernel& kernel,
                            const TenantTrafficSpec& spec) {
  PARATICK_CHECK_MSG(spec.workers >= 1, "tenant traffic needs >= 1 worker");
  PARATICK_CHECK_MSG(spec.until > sim::SimTime::zero(),
                     "tenant traffic horizon must be > 0");
  PARATICK_CHECK_MSG(spec.mean_interarrival > sim::SimTime::zero(),
                     "tenant mean inter-arrival must be > 0");
  PARATICK_CHECK_MSG(spec.diurnal_amplitude >= 0.0 &&
                         spec.diurnal_amplitude <= 1.0,
                     "diurnal amplitude must be in [0, 1]");
  PARATICK_CHECK_MSG(spec.flash_multiplier >= 1.0,
                     "flash multiplier must be >= 1");

  // Flash-crowd windows are a pure function of the spec: drawn from a
  // dedicated stream so adding a crowd never perturbs worker draws.
  std::vector<sim::SimTime> flash_starts;
  if (spec.flash_crowds > 0 && spec.flash_duration > sim::SimTime::zero()) {
    sim::Rng rng(spec.seed);
    const std::int64_t span =
        std::max<std::int64_t>(spec.until.nanoseconds() -
                                   spec.flash_duration.nanoseconds(),
                               1);
    flash_starts.reserve(static_cast<std::size_t>(spec.flash_crowds));
    for (int i = 0; i < spec.flash_crowds; ++i) {
      flash_starts.push_back(sim::SimTime::ns(rng.uniform_int(0, span - 1)));
    }
    std::sort(flash_starts.begin(), flash_starts.end());
  }

  for (int w = 0; w < spec.workers; ++w) {
    kernel.add_task([worker = TenantWorker{spec, flash_starts}](
                        guest::TaskApi& api) mutable { worker.step(api); },
                    w % kernel.cpu_count());
  }
}

}  // namespace paratick::workload
