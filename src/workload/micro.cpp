#include "workload/micro.hpp"

#include "guest/kernel.hpp"
#include "sim/check.hpp"

namespace paratick::workload {

// Each builder reserves its op count, so building a program allocates once.

Program make_sync_storm_program(const SyncStormSpec& spec) {
  PARATICK_CHECK(spec.sync_rate_hz > 0.0);
  const auto iterations = static_cast<int>(spec.duration.seconds() * spec.sync_rate_hz);
  PARATICK_CHECK_MSG(iterations > 0, "duration too short for the sync rate");
  // Each period: compute `load` of the period, then block at the barrier
  // for the rest (the paper's W3: L = load, one group idle transition per
  // sync episode per thread).
  const double period_s = 1.0 / spec.sync_rate_hz;
  const auto compute_cycles = static_cast<std::int64_t>(
      period_s * spec.load * spec.cpu_freq.gigahertz() * 1e9);
  Program prog;
  prog.reserve(2).compute_norm(compute_cycles, 0.10).barrier(0).repeat(iterations);
  return prog;
}

void install_sync_storm(guest::GuestKernel& kernel, const SyncStormSpec& spec) {
  PARATICK_CHECK(spec.threads >= 1);
  kernel.create_barrier(0, spec.threads);
  for (int t = 0; t < spec.threads; ++t) {
    kernel.add_task(make_task_body(make_sync_storm_program(spec)),
                    t % kernel.cpu_count());
  }
}

Program make_tick_storm_program(const TickStormSpec& spec) {
  Program prog;
  prog.reserve(2)
      .compute(spec.think_cycles)
      .sleep(spec.sleep_interval)
      .repeat(spec.iterations);
  return prog;
}

void install_tick_storm(guest::GuestKernel& kernel, const TickStormSpec& spec) {
  kernel.add_task(make_task_body(make_tick_storm_program(spec)), 0);
}

Program make_server_program(const ServerSpec& spec) {
  PARATICK_CHECK(spec.requests_per_worker > 0);
  Program prog;
  prog.reserve(2)
      .sleep_exp(spec.mean_interarrival)
      .compute(spec.service_cycles)
      .repeat(spec.requests_per_worker);
  return prog;
}

void install_server(guest::GuestKernel& kernel, const ServerSpec& spec) {
  PARATICK_CHECK(spec.workers >= 1);
  for (int w = 0; w < spec.workers; ++w) {
    kernel.add_task(make_task_body(make_server_program(spec)), w % kernel.cpu_count());
  }
}

Program make_pure_compute_program(const PureComputeSpec& spec) {
  PARATICK_CHECK(spec.chunks > 0);
  Program prog;
  prog.reserve(1).compute(spec.total_cycles / spec.chunks).repeat(spec.chunks);
  return prog;
}

void install_pure_compute(guest::GuestKernel& kernel, const PureComputeSpec& spec) {
  kernel.add_task(make_task_body(make_pure_compute_program(spec)), 0);
}

}  // namespace paratick::workload
