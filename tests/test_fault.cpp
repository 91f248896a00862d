// Fault-injection layer: plan determinism, inertness of the default
// config, per-class tolerance/detection under each tick policy, sweep
// crash isolation with -j bit-identity, and replay-bundle round trips.
#include <gtest/gtest.h>

#include "expect_error.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/replay.hpp"
#include "core/scenarios.hpp"
#include "core/sweep.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"
#include "sim/check.hpp"
#include "sim/engine.hpp"
#include "sim/error.hpp"
#include "sim/watchdog.hpp"
#include "workload/fio.hpp"
#include "workload/micro.hpp"

namespace paratick {
namespace {

using sim::SimTime;

fault::FaultConfig busy_config() {
  fault::FaultConfig cfg;
  cfg.timer_drop_prob = 0.1;
  cfg.timer_late_prob = 0.2;
  cfg.timer_coalesce_prob = 0.1;
  cfg.tsc_drift_ppm = 100.0;
  cfg.io_error_prob = 0.2;
  cfg.io_spike_prob = 0.2;
  cfg.steal_burst_prob = 0.3;
  cfg.tick_delay_prob = 0.3;
  cfg.softirq_spurious_prob = 0.2;
  cfg.softirq_drop_prob = 0.1;
  return cfg;
}

/// Fingerprint a long decision sequence from every injector stream.
std::vector<std::int64_t> decision_trace(fault::FaultInjector& inj) {
  std::vector<std::int64_t> trace;
  for (int i = 0; i < 200; ++i) {
    const SimTime now = SimTime::us(10 * (i + 1));
    const auto td = inj.on_timer_fire(now);
    trace.push_back(static_cast<std::int64_t>(td.action));
    trace.push_back(td.defer_until.nanoseconds());
    const auto io = inj.on_io_start();
    trace.push_back(io.fail ? 1 : 0);
    trace.push_back(static_cast<std::int64_t>(io.latency_factor * 1e6));
    trace.push_back(inj.steal_burst().nanoseconds());
    trace.push_back(inj.delay_tick_injection() ? 1 : 0);
    trace.push_back(inj.spurious_softirq() ? 1 : 0);
    trace.push_back(inj.drop_softirq() ? 1 : 0);
  }
  return trace;
}

TEST(FaultInjector, PlanIsPureInSeed) {
  fault::FaultInjector a(busy_config(), 42);
  fault::FaultInjector b(busy_config(), 42);
  fault::FaultInjector c(busy_config(), 43);
  const auto ta = decision_trace(a);
  EXPECT_EQ(ta, decision_trace(b));
  EXPECT_NE(ta, decision_trace(c));
  EXPECT_GT(a.stats().total(), 0u);  // rates high enough to actually fire
}

TEST(FaultInjector, DefaultConfigIsInert) {
  fault::FaultInjector inj(fault::FaultConfig{}, 7);
  for (int i = 0; i < 100; ++i) {
    const auto td = inj.on_timer_fire(SimTime::us(i));
    EXPECT_EQ(td.action, fault::FaultInjector::TimerDecision::Action::kDeliver);
    const auto io = inj.on_io_start();
    EXPECT_FALSE(io.fail);
    EXPECT_EQ(io.latency_factor, 1.0);
    EXPECT_EQ(inj.steal_burst(), SimTime::zero());
    EXPECT_FALSE(inj.delay_tick_injection());
    EXPECT_FALSE(inj.spurious_softirq());
    EXPECT_FALSE(inj.drop_softirq());
    // No drift: deadlines pass through untouched.
    EXPECT_EQ(inj.skew_deadline(0, SimTime::zero(), SimTime::us(50)),
              SimTime::us(50));
  }
  EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(FaultInjector, TscSkewIsPurePerCpuAndNeverRewindsPastNow) {
  fault::FaultConfig cfg;
  cfg.tsc_drift_ppm = 1e5;  // 10% — exaggerated so the skew is visible
  const fault::FaultInjector inj(cfg, 99);
  const SimTime now = SimTime::us(10);
  const SimTime deadline = SimTime::us(1000);
  EXPECT_EQ(inj.skew_deadline(0, now, deadline), inj.skew_deadline(0, now, deadline));
  std::set<std::int64_t> skews;
  for (std::uint32_t cpu = 0; cpu < 8; ++cpu) {
    const SimTime skewed = inj.skew_deadline(cpu, now, deadline);
    EXPECT_GE(skewed, now);
    skews.insert(skewed.nanoseconds());
  }
  EXPECT_GT(skews.size(), 1u);  // CPUs actually drift apart
}

// ---- system-level fault tolerance ---------------------------------------

core::SystemSpec tick_storm_spec(guest::TickMode mode, int iterations = 300) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.guest.tick_mode = mode;
  vm.setup = [iterations](guest::GuestKernel& k) {
    workload::TickStormSpec storm;
    storm.iterations = iterations;
    workload::install_tick_storm(k, storm);
  };
  spec.vms.push_back(std::move(vm));
  spec.max_duration = SimTime::sec(2);
  spec.fault_seed = 4242;
  return spec;
}

TEST(SystemFaults, DroppedTimerInterruptsAreCaughtByWatchdog) {
  core::SystemSpec spec = tick_storm_spec(guest::TickMode::kDynticksIdle);
  spec.fault.timer_drop_prob = 1.0;  // every hardware fire is lost
  core::System system(std::move(spec));
  EXPECT_SIM_ERROR(system.run(), "timer");
  EXPECT_GT(system.fault_injector()->stats().timer_dropped, 0u);
}

TEST(SystemFaults, ParatickNeverLosesGuestTimersUnderDelayedHostTicks) {
  // Paper §5: paravirtual ticks may arrive late (they ride VM entries),
  // but guest timer interrupts are delivered by the hardware deadline
  // timer — a host that misses every tick-injection window must not cost
  // the guest a single timer. The watchdog enforces exactly that.
  core::SystemSpec spec = tick_storm_spec(guest::TickMode::kParatick);
  // Tick-delay faults strike at VM entries with no guest timer pending
  // (entries with one pending count as the tick — the §5.1 heuristic), so
  // pair sparse guest timers with a long busy-compute stretch: the compute
  // crosses many tick periods and every injection point rides an entry.
  spec.vms[0].setup = [](guest::GuestKernel& k) {
    workload::TickStormSpec storm;
    storm.sleep_interval = SimTime::ms(10);  // sparser than the tick period
    storm.iterations = 20;
    workload::install_tick_storm(k, storm);
    workload::PureComputeSpec compute;
    compute.total_cycles = 100'000'000;  // ~50 ms busy at 2 GHz
    compute.chunks = 100;
    workload::install_pure_compute(k, compute);
  };
  spec.fault.tick_delay_prob = 1.0;  // every due tick injection postponed
  core::System system(std::move(spec));
  const metrics::RunResult res = system.run();  // must not throw
  ASSERT_TRUE(res.completion_time().has_value());
  EXPECT_GT(res.faults.ticks_delayed, 0u);
}

TEST(SystemFaults, LateTimersWithinGraceAreToleratedByDynticks) {
  core::SystemSpec spec = tick_storm_spec(guest::TickMode::kDynticksIdle);
  spec.fault.timer_late_prob = 1.0;  // every fire late by <= 300 us; the
                                     // watchdog's grace is 5 ms: late != lost
  core::System system(std::move(spec));
  const metrics::RunResult res = system.run();
  ASSERT_TRUE(res.completion_time().has_value());
  EXPECT_GT(res.faults.timer_delayed, 0u);
}

TEST(SystemFaults, CoalescedTimersAndStealBurstsComplete) {
  core::SystemSpec spec = tick_storm_spec(guest::TickMode::kParatick);
  spec.fault.timer_coalesce_prob = 0.3;
  spec.fault.steal_burst_prob = 0.1;
  spec.fault.steal_burst_max = SimTime::us(200);
  core::System system(std::move(spec));
  const metrics::RunResult res = system.run();
  ASSERT_TRUE(res.completion_time().has_value());
  EXPECT_GT(res.faults.timer_coalesced + res.faults.steal_bursts, 0u);
}

TEST(SystemFaults, BlockDeviceErrorsReachTheGuest) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.attach_disk = true;
  vm.setup = [](guest::GuestKernel& k) {
    workload::FioSpec fio;
    fio.ops = 300;
    workload::install_fio(k, fio);
  };
  spec.vms.push_back(std::move(vm));
  spec.max_duration = SimTime::sec(5);
  spec.fault.io_error_prob = 0.3;
  spec.fault.io_spike_prob = 0.3;
  spec.fault_seed = 77;
  core::System system(std::move(spec));
  const metrics::RunResult res = system.run();
  EXPECT_GT(res.faults.io_errors, 0u);
  EXPECT_GT(res.faults.io_spikes, 0u);
  EXPECT_EQ(res.vms[0].io_errors, res.faults.io_errors);
}

TEST(SystemFaults, SoftirqFaultsDegradeButTerminate) {
  core::SystemSpec spec = tick_storm_spec(guest::TickMode::kDynticksIdle, 150);
  spec.fault.softirq_spurious_prob = 0.3;
  spec.fault.softirq_drop_prob = 0.2;
  core::System system(std::move(spec));
  const metrics::RunResult res = system.run();
  ASSERT_TRUE(res.completion_time().has_value());
  EXPECT_GT(res.faults.softirq_spurious, 0u);
  EXPECT_GT(res.faults.softirq_dropped, 0u);
}

TEST(SystemFaults, WallClockLimitThrowsTimeout) {
  core::SystemSpec spec = tick_storm_spec(guest::TickMode::kDynticksIdle);
  spec.wall_limit_sec = 1e-9;  // impossible budget: first check trips it
  core::System system(std::move(spec));
  try {
    (void)system.run();
    FAIL() << "expected SimError{kTimeout}";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.kind(), sim::SimError::Kind::kTimeout);
  }
}

// ---- watchdog + SimError context ----------------------------------------

/// Records when each sweep ran and how many events had completed by then.
class SweepLog : public sim::Watchdog {
 public:
  void sweep(const sim::Engine& engine) override {
    sweeps.emplace_back(engine.now(), engine.events_executed());
  }
  std::vector<std::pair<SimTime, std::uint64_t>> sweeps;
};

TEST(Watchdog, SweepsAtTheFirstEventOfEachPeriod) {
  sim::Engine engine;
  SweepLog log;
  engine.set_watchdog(&log);
  for (const int ms : {1, 2, 7, 10, 12, 23, 24}) {
    engine.schedule_at(SimTime::ms(ms), [] {});
  }
  engine.run_until(SimTime::ms(40));
  // Boundaries 0, 5 and 10 ms sweep at the first event at or after them,
  // before it runs; 15 and 20 ms pass with no event and share the sweep
  // at 23 ms. The queue is empty from 24 ms on, so run_until sweeps at
  // each boundary it reaches: 25, 30, 35 and 40 ms.
  using Sweep = std::pair<SimTime, std::uint64_t>;
  EXPECT_EQ(log.sweeps, (std::vector<Sweep>{{SimTime::ms(1), 0},
                                            {SimTime::ms(7), 2},
                                            {SimTime::ms(10), 3},
                                            {SimTime::ms(23), 5},
                                            {SimTime::ms(25), 7},
                                            {SimTime::ms(30), 7},
                                            {SimTime::ms(35), 7},
                                            {SimTime::ms(40), 7}}));
  EXPECT_EQ(engine.now(), SimTime::ms(40));

  // Detached: events run, nothing sweeps.
  engine.set_watchdog(nullptr);
  engine.schedule_at(SimTime::ms(41), [] {});
  engine.schedule_at(SimTime::ms(47), [] {});
  engine.run();
  EXPECT_EQ(log.sweeps.size(), 8u);

  // Re-attached at 47 ms: the cadence resumes at the next boundary, 50 ms.
  // run() ends when the queue drains and sweeps nothing past the last event.
  engine.set_watchdog(&log);
  engine.schedule_at(SimTime::ms(49), [] {});
  engine.schedule_at(SimTime::ms(52), [] {});
  engine.run();
  ASSERT_EQ(log.sweeps.size(), 9u);
  EXPECT_EQ(log.sweeps.back(), Sweep(SimTime::ms(52), 10));

  // run_until(60 ms) stops short of the event at 70 ms and jumps the clock
  // over the 55 ms boundary. Once that event is cancelled, the next
  // run_until sweeps the passed boundary at the current time, 60 ms; the
  // clock never moves back.
  const sim::EventId late = engine.schedule_at(SimTime::ms(70), [] {});
  engine.run_until(SimTime::ms(60));
  EXPECT_EQ(log.sweeps.size(), 9u);
  engine.cancel(late);
  engine.run_until(SimTime::ms(62));
  ASSERT_EQ(log.sweeps.size(), 10u);
  EXPECT_EQ(log.sweeps.back(), Sweep(SimTime::ms(60), 11));
  EXPECT_EQ(engine.now(), SimTime::ms(62));
}

// The watchdog schedules nothing: a full system run executes the same
// events with or without it.
TEST(Watchdog, LeavesEventCountersAndDigestUnchanged) {
  for (const auto mode : {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick}) {
    core::System watched(tick_storm_spec(mode));
    core::System unwatched(tick_storm_spec(mode));
    unwatched.engine().set_watchdog(nullptr);
    const metrics::RunResult a = watched.run();
    const metrics::RunResult b = unwatched.run();
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.events_scheduled, b.events_scheduled);
    EXPECT_EQ(a.events_cancelled, b.events_cancelled);
    EXPECT_EQ(watched.engine().state_digest(), unwatched.engine().state_digest());
    EXPECT_GT(a.events_executed, 0u);
  }
}

TEST(SimError, CarriesSimTimeContextFromEngine) {
  sim::Engine engine;
  engine.schedule_at(SimTime::us(50), [] { PARATICK_CHECK_MSG(false, "boom"); });
  try {
    engine.run();
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.kind(), sim::SimError::Kind::kCheck);
    ASSERT_TRUE(e.sim_time().has_value());
    EXPECT_EQ(*e.sim_time(), SimTime::us(50));
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // Outside the engine there is no sim-time context.
  try {
    PARATICK_CHECK_MSG(false, "bare");
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    EXPECT_FALSE(e.sim_time().has_value());
  }
}

// ---- chaos sweeps: crash isolation, determinism, replay ------------------

/// Pure compute under 100% timer drops: dynticks cells die on the
/// watchdog (their busy tick arms the hardware deadline timer and every
/// fire is lost), paratick cells survive (ticks are injected at VM entry
/// and the workload arms no other timers). One sweep, both outcomes.
core::SweepConfig split_outcome_sweep(unsigned threads) {
  core::SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = SimTime::ms(200);
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::PureComputeSpec spec;
    spec.total_cycles = 100'000'000;  // ~50 ms at 2 GHz
    spec.chunks = 100;
    workload::install_pure_compute(k, spec);
  };
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.repeat = 2;
  cfg.root_seed = 321;
  cfg.threads = threads;
  cfg.fault.timer_drop_prob = 1.0;
  return cfg;
}

TEST(ChaosSweep, CrashIsolatesRunsAndCompletesTheFullGrid) {
  const core::SweepResult res = core::SweepRunner(split_outcome_sweep(2)).run();
  ASSERT_EQ(res.cells.size(), 2u);
  ASSERT_EQ(res.runs.size(), 4u);

  const auto* dynticks = res.find("", guest::TickMode::kDynticksIdle);
  const auto* paratick = res.find("", guest::TickMode::kParatick);
  ASSERT_NE(dynticks, nullptr);
  ASSERT_NE(paratick, nullptr);

  // Dynticks: every replica lost its tick timer -> degraded, no survivors.
  EXPECT_EQ(dynticks->replicas_failed, 2u);
  EXPECT_TRUE(dynticks->degraded());
  EXPECT_EQ(dynticks->exits_total.count(), 0u);
  // The drill-down accumulators the ablation tables read hold no sample
  // of a failed run either: no zero is folded in for it.
  EXPECT_EQ(dynticks->ticks.count(), 0u);
  EXPECT_EQ(dynticks->wakes.count(), 0u);
  EXPECT_EQ(dynticks->tick_intervals_us.count(), 0u);
  for (const auto& acc : dynticks->cycles) EXPECT_EQ(acc.count(), 0u);
  for (const auto& acc : dynticks->exits_by_cause) EXPECT_EQ(acc.count(), 0u);

  // Paratick: unharmed — aggregates cover both replicas.
  EXPECT_EQ(paratick->replicas_failed, 0u);
  EXPECT_FALSE(paratick->degraded());
  EXPECT_EQ(paratick->exits_total.count(), 2u);
  EXPECT_EQ(paratick->virtual_ticks.count(), 2u);
  EXPECT_GT(paratick->virtual_ticks.mean(), 0.0);
  EXPECT_GT(paratick->first.exits_total, 0u);

  EXPECT_EQ(res.degraded_cell_count(), 1u);
  EXPECT_EQ(res.ok_run_count(), 2u);
  ASSERT_EQ(res.failed_runs().size(), 2u);
  for (const core::SweepRun* run : res.failed_runs()) {
    EXPECT_EQ(run->failure->kind, core::RunFailure::Kind::kWatchdog);
    EXPECT_GT(run->failure->sim_time_ns, 0);
  }

  // The degradation columns surface in both export formats.
  EXPECT_NE(res.to_csv().find(",failed,timed_out"), std::string::npos);
  EXPECT_NE(res.to_json().find("\"failed\": 2"), std::string::npos);
}

TEST(ChaosSweep, FailuresAreBitIdenticalAcrossThreadCounts) {
  const core::SweepResult serial = core::SweepRunner(split_outcome_sweep(1)).run();
  const core::SweepResult parallel = core::SweepRunner(split_outcome_sweep(4)).run();
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    const core::SweepRun& a = serial.runs[i];
    const core::SweepRun& b = parallel.runs[i];
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_EQ(a.failure.has_value(), b.failure.has_value());
    if (a.failure) {
      EXPECT_EQ(a.failure->kind, b.failure->kind);
      EXPECT_EQ(a.failure->expr, b.failure->expr);
      EXPECT_EQ(a.failure->sim_time_ns, b.failure->sim_time_ns);
      EXPECT_EQ(a.failure->events_executed, b.failure->events_executed);
    } else {
      EXPECT_EQ(a.result.exits_total, b.result.exits_total);
      EXPECT_EQ(a.result.events_executed, b.result.events_executed);
    }
  }
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  // The JSON header legitimately records thread count and wall time; the
  // cells block must be byte-identical.
  const auto cells_block = [](const std::string& j) {
    return j.substr(j.find("\"cells\""));
  };
  EXPECT_EQ(cells_block(serial.to_json()), cells_block(parallel.to_json()));
}

TEST(ChaosSweep, ReplayBundleReproducesTheIdenticalError) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "paratick_fault_test").string();
  std::filesystem::remove_all(dir);

  core::SweepConfig cfg = split_outcome_sweep(2);
  cfg.failure_dir = dir;
  cfg.bench_name = "test_fault";
  const core::SweepResult res = core::SweepRunner(cfg).run();
  ASSERT_FALSE(res.failed_runs().empty());

  const core::SweepRun* failed = res.failed_runs().front();
  ASSERT_FALSE(failed->bundle_path.empty());
  const core::ReplayBundle bundle = core::load_replay_bundle(failed->bundle_path);
  EXPECT_EQ(bundle.run.run_index, failed->run_index);
  EXPECT_EQ(bundle.run.seed, failed->seed);
  EXPECT_EQ(bundle.run.failure->kind, failed->failure->kind);
  EXPECT_EQ(bundle.run.failure->sim_time_ns, failed->failure->sim_time_ns);

  // Re-execute against a *fresh* config (the bundle's identity overrides
  // root seed / repeat / faults) and demand the exact same error.
  const core::SweepRun replayed = core::replay_run(split_outcome_sweep(1), bundle);
  std::string detail;
  EXPECT_TRUE(core::reproduces(bundle, replayed, &detail)) << detail;
  EXPECT_NE(detail.find("reproduced"), std::string::npos);

  std::filesystem::remove_all(dir);
}

// A bundle exactly as `bench_chaos tick-loss --repeat 2 --failure-dir D`
// writes it: the plan header, the fault knobs and the failed run's record.
// It must keep reproducing to the same event.
constexpr const char* kPinnedBundle = R"json({
  "kind": "paratick-replay-bundle",
  "plan": {"kind": "paratick-dispatch-plan", "bench": "bench_chaos", "root_seed": "20260806", "repeat": 2, "total_runs": 4, "cells": [{"variant": "", "mode": "dynticks-idle", "tick_freq_hz": 250, "vcpus": 1, "overcommit": 1}, {"variant": "", "mode": "paratick", "tick_freq_hz": 250, "vcpus": 1, "overcommit": 1}]},
  "scenario": "tick-loss",
  "fault": {"timer_drop_prob": 1, "timer_late_prob": 0, "timer_late_max_ns": 300000, "timer_coalesce_prob": 0, "timer_coalesce_window_ns": 800000, "tsc_drift_ppm": 0, "io_error_prob": 0, "io_spike_prob": 0, "io_spike_factor": 20, "steal_burst_prob": 0, "steal_burst_max_ns": 2000000, "tick_delay_prob": 0, "softirq_spurious_prob": 0, "softirq_drop_prob": 0},
  "run": {"run_index": 0, "cell": 0, "replica": 0, "seed": "17424753966244126401", "executed": true, "ok": false, "host_seconds": 0, "failure": {"kind": "watchdog", "expr": "timer-liveness", "file": "", "line": 0, "message": "vCPU 0 guest timer deadline 4.002ms still armed at 10.021ms — timer interrupt lost", "sim_time_ns": 10021300, "events": 30}}
}
)json";

TEST(ChaosSweep, PinnedBundleStillReproduces) {
  const core::ReplayBundle bundle = core::parse_replay_bundle(kPinnedBundle);
  EXPECT_EQ(bundle.scenario, "tick-loss");
  EXPECT_EQ(bundle.plan.cells[bundle.run.cell].label(),
            "base/dynticks-idle f=250Hz v=1 oc=1");
  EXPECT_EQ(bundle.run.failure->kind, core::RunFailure::Kind::kWatchdog);
  EXPECT_EQ(core::to_json(bundle), kPinnedBundle);  // exact round trip
  const core::SweepRun replayed = core::replay_bundle(bundle);
  std::string detail;
  EXPECT_TRUE(core::reproduces(bundle, replayed, &detail)) << detail;
}

// Bundles written while the watchdog was optional carry a "watchdog" key.
// The reader ignores it, the writer no longer emits it, and the run still
// reproduces.
TEST(ChaosSweep, BundleWithLegacyWatchdogKeyStillReproduces) {
  std::string legacy = kPinnedBundle;
  const std::string anchor = "  \"scenario\": \"tick-loss\",\n";
  const std::size_t at = legacy.find(anchor);
  ASSERT_NE(at, std::string::npos);
  legacy.insert(at + anchor.size(), "  \"watchdog\": true,\n");

  const core::ReplayBundle bundle = core::parse_replay_bundle(legacy);
  EXPECT_EQ(core::to_json(bundle), kPinnedBundle);
  const core::SweepRun replayed = core::replay_bundle(bundle);
  std::string detail;
  EXPECT_TRUE(core::reproduces(bundle, replayed, &detail)) << detail;
}

// A bundle replayed against a grid that changed since it was written, or
// whose run seed is not the one its index derives, would silently re-run
// a different simulation: replay refuses it naming the field.
TEST(ChaosSweep, BundleThatNoLongerMatchesItsGridIsRefused) {
  const core::ReplayBundle pinned = core::parse_replay_bundle(kPinnedBundle);

  core::ReplayBundle cell_edited = pinned;
  cell_edited.plan.cells[1].tick_freq_hz = 100.0;
  EXPECT_SIM_ERROR((void)core::replay_bundle(cell_edited), "cell 1");

  core::ReplayBundle seed_edited = pinned;
  seed_edited.run.seed += 1;
  EXPECT_SIM_ERROR((void)core::replay_bundle(seed_edited), "seed differs");

  core::ReplayBundle root_edited = pinned;
  root_edited.plan.root_seed += 1;
  EXPECT_SIM_ERROR((void)core::replay_bundle(root_edited), "seed differs");
}

// Every number a replay reads is required: a fault knob or run index read
// as 0 would replay a different run and report a divergence, not a bad
// bundle. Dropping any one of them, or giving it a string, names the key;
// so does dropping a string the replay reads.
TEST(ChaosSweep, BundleWithoutAValueTheReplayReadsNamesTheKey) {
  for (const char* key :
       {"timer_drop_prob", "timer_late_prob", "timer_late_max_ns",
        "timer_coalesce_prob", "timer_coalesce_window_ns", "tsc_drift_ppm",
        "io_error_prob", "io_spike_prob", "io_spike_factor",
        "steal_burst_prob", "steal_burst_max_ns", "tick_delay_prob",
        "softirq_spurious_prob", "softirq_drop_prob", "run_index", "cell",
        "replica", "line", "sim_time_ns", "events"}) {
    const std::string quoted = std::string("\"") + key + "\"";
    std::string text = kPinnedBundle;
    const std::size_t at = text.find(quoted + ": ");
    ASSERT_NE(at, std::string::npos) << key;
    // Drop `"key": <number>` and the ", " that joins it to a neighbour.
    const std::size_t end = text.find_first_of(",}", at);
    if (text[end] == ',') {
      text.erase(at, end + 2 - at);
    } else {
      text.erase(at - 2, end - at + 2);
    }
    EXPECT_SIM_ERROR((void)core::parse_replay_bundle(text), quoted);
  }
  const auto edited = [](const std::string& from, const std::string& to) {
    std::string text = kPinnedBundle;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  EXPECT_SIM_ERROR(
      (void)core::parse_replay_bundle(edited("\"line\": 0", "\"line\": \"0\"")),
      "\"line\"");
  EXPECT_SIM_ERROR(
      (void)core::parse_replay_bundle(edited("\"expr\": \"timer-liveness\", ", "")),
      "\"expr\"");
  EXPECT_SIM_ERROR(
      (void)core::parse_replay_bundle(edited("\"mode\": \"paratick\", ", "")),
      "\"mode\"");
}

TEST(ChaosSweep, RunTimeoutMarksCellsTimedOut) {
  core::SweepConfig cfg = split_outcome_sweep(1);
  cfg.modes = {guest::TickMode::kParatick};  // would otherwise succeed
  cfg.repeat = 1;
  cfg.run_timeout_sec = 1e-9;
  const core::SweepResult res = core::SweepRunner(cfg).run();
  ASSERT_EQ(res.runs.size(), 1u);
  ASSERT_TRUE(res.runs[0].failure.has_value());
  EXPECT_EQ(res.runs[0].failure->kind, core::RunFailure::Kind::kTimeout);
  EXPECT_EQ(res.cells[0].replicas_timed_out, 1u);
}

// ---- scenario registry + CLI --------------------------------------------

TEST(ChaosScenarios, RegistryBuildsEveryScenario) {
  for (const char* name : core::chaos_scenario_names()) {
    EXPECT_TRUE(core::is_chaos_scenario(name));
    const core::SweepConfig cfg = core::build_chaos_scenario(name);
    EXPECT_TRUE(cfg.fault.any());
    EXPECT_EQ(cfg.scenario, name);
    EXPECT_FALSE(cfg.modes.empty());
  }
  EXPECT_FALSE(core::is_chaos_scenario("nope"));
  EXPECT_SIM_ERROR((void)core::build_chaos_scenario("nope"), "unknown");
}

TEST(SweepCli, ParsesChaosAndFaultFlags) {
  const char* argv[] = {"bench",
                        "--chaos",
                        "--run-timeout", "2.5",
                        "--failure-dir", "/tmp/failures",
                        "--fault-timer-drop", "0.5",
                        "--fault-steal", "0.25"};
  const core::SweepCli cli = core::SweepCli::parse(
      static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  EXPECT_TRUE(cli.chaos);
  EXPECT_DOUBLE_EQ(cli.run_timeout_sec, 2.5);
  EXPECT_EQ(cli.failure_dir, "/tmp/failures");
  ASSERT_EQ(cli.fault_overrides.size(), 2u);

  core::SweepConfig cfg;
  cli.apply(cfg);
  EXPECT_TRUE(cfg.fault.any());
  // Overrides win over the --chaos defaults.
  EXPECT_DOUBLE_EQ(cfg.fault.timer_drop_prob, 0.5);
  EXPECT_DOUBLE_EQ(cfg.fault.steal_burst_prob, 0.25);
  // Untouched knobs keep the default chaos mix.
  EXPECT_DOUBLE_EQ(cfg.fault.tick_delay_prob,
                   core::default_chaos_faults().tick_delay_prob);
}

}  // namespace
}  // namespace paratick
