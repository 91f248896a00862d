// Micro-workloads for the paper's §3.3 scenarios (Table 1) and for tests.
#pragma once

#include <cstdint>

#include "sim/types.hpp"
#include "workload/program.hpp"

namespace paratick::guest {
class GuestKernel;
}  // namespace paratick::guest

namespace paratick::workload {

/// W3-style blocking-synchronization storm: `threads` tasks iterate
/// compute -> barrier so the group synchronizes `sync_rate_hz` times per
/// second, for roughly `duration` of simulated time.
struct SyncStormSpec {
  int threads = 16;
  double sync_rate_hz = 1000.0;  // barrier episodes per second
  sim::SimTime duration = sim::SimTime::sec(1);
  sim::CpuFrequency cpu_freq{2.0};
  double load = 0.5;  // fraction of each period spent computing
};
/// One storm thread's program.
[[nodiscard]] Program make_sync_storm_program(const SyncStormSpec& spec);
void install_sync_storm(guest::GuestKernel& kernel, const SyncStormSpec& spec);

/// A single task that sleeps at a fixed rate — churns the guest timer
/// subsystem (a queued timer and a deadline reprogram per short sleep)
/// without real work.
struct TickStormSpec {
  sim::SimTime sleep_interval = sim::SimTime::us(200);
  int iterations = 5000;
  std::int64_t think_cycles = 5'000;
};
[[nodiscard]] Program make_tick_storm_program(const TickStormSpec& spec);
void install_tick_storm(guest::GuestKernel& kernel, const TickStormSpec& spec);

/// Request/response server: each worker waits for a Poisson "request"
/// (exponential inter-arrival) and services it with a short compute
/// burst. The interesting metric is the wake-to-run latency tail, which
/// timer-management exits inflate on every request (§3.3's
/// microsecond-scale idle periods).
struct ServerSpec {
  int workers = 2;
  sim::SimTime mean_interarrival = sim::SimTime::us(500);
  std::int64_t service_cycles = 40'000;  // 20 us at 2 GHz
  int requests_per_worker = 2000;
};
/// One worker's program.
[[nodiscard]] Program make_server_program(const ServerSpec& spec);
void install_server(guest::GuestKernel& kernel, const ServerSpec& spec);

/// Pure sequential compute (calibration floor: no sync, no I/O).
struct PureComputeSpec {
  std::int64_t total_cycles = 200'000'000;
  int chunks = 200;
};
[[nodiscard]] Program make_pure_compute_program(const PureComputeSpec& spec);
void install_pure_compute(guest::GuestKernel& kernel, const PureComputeSpec& spec);

}  // namespace paratick::workload
