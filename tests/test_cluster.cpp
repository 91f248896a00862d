// Cluster-layer tests: placement determinism, single-host equivalence
// with a plain core::System, steal-aware rebalancing, migration blackout
// accounting, bit-identity across engine-thread counts and sweep
// fan-out, and the sweep settings cluster runs reject.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "expect_error.hpp"

#include "core/cluster/cluster.hpp"
#include "core/dispatch/dispatch.hpp"
#include "core/dispatch/transport.hpp"
#include "core/experiment.hpp"
#include "core/record_replay/record_replay.hpp"
#include "core/sweep.hpp"
#include "core/system.hpp"
#include "workload/micro.hpp"
#include "workload/tenant_traffic.hpp"

namespace paratick::core {
namespace {

using sim::SimTime;

/// Mirrors Cluster's internal per-VM seed chain (salt "vmse"): the
/// single-host equivalence test below rebuilds the same VM by hand.
constexpr std::uint64_t kVmSeedSalt = 0x766d7365;

void busy_storm(guest::GuestKernel& k, double load) {
  workload::SyncStormSpec storm;
  storm.threads = 2;
  storm.sync_rate_hz = 400.0;
  storm.duration = SimTime::ms(100);
  storm.load = load;
  workload::install_sync_storm(k, storm);
}

ClusterSpec tenant_cluster(int hosts, int vms_per_host, std::uint64_t seed) {
  ClusterSpec cs;
  cs.hosts = hosts;
  cs.vms_per_host = vms_per_host;
  cs.vcpus_per_vm = 2;
  cs.machine = hw::MachineSpec::small(2);  // 2 VMs x 2 vCPUs -> 2x overcommit
  cs.guest.tick_mode = guest::TickMode::kParatick;
  cs.guest.steal.enabled = true;
  cs.duration = SimTime::ms(100);
  cs.seed = seed;
  cs.rebalance_period = SimTime::ms(5);
  cs.workload = [](guest::GuestKernel& k, int g) {
    workload::TenantTrafficSpec t;
    t.workers = 2;
    t.until = SimTime::ms(100);
    t.seed = derive_seed(321, static_cast<std::uint64_t>(g));
    workload::install_tenant_traffic(k, t);
  };
  return cs;
}

TEST(Cluster, PlacementAndResultsDeterministic) {
  ClusterResult a = Cluster(tenant_cluster(2, 2, 9)).run();
  ClusterResult b = Cluster(tenant_cluster(2, 2, 9)).run();
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.rebalance_rounds, b.rebalance_rounds);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.merged.exits_total, b.merged.exits_total);
  EXPECT_EQ(a.merged.events_executed, b.merged.events_executed);
  ASSERT_EQ(a.merged.vms.size(), b.merged.vms.size());
  for (std::size_t g = 0; g < a.merged.vms.size(); ++g) {
    EXPECT_EQ(a.merged.vms[g].exits_total, b.merged.vms[g].exits_total);
    EXPECT_EQ(a.merged.vms[g].steal_time.nanoseconds(),
              b.merged.vms[g].steal_time.nanoseconds());
  }
}

TEST(Cluster, RoundRobinPlacementCoversEveryHost) {
  ClusterSpec cs = tenant_cluster(3, 2, 5);
  cs.rebalance_period = SimTime::zero();  // place once, never move
  cs.duration = SimTime::ms(20);
  ClusterResult r = Cluster(std::move(cs)).run();
  ASSERT_EQ(r.placement.size(), 6u);
  std::set<int> used(r.placement.begin(), r.placement.end());
  EXPECT_EQ(used.size(), 3u);
  EXPECT_EQ(r.migrations, 0u);
}

// One host, one VM: the cluster adds no events of its own, so the run is
// bit-identical to the equivalent plain System with the same derived
// seeds. This is the contract that lets every single-host scenario fold
// into the cluster layer unchanged.
TEST(Cluster, SingleHostMatchesPlainSystemBitForBit) {
  const std::uint64_t seed = 42;
  ClusterSpec cs;
  cs.hosts = 1;
  cs.vms_per_host = 1;
  cs.vcpus_per_vm = 2;
  cs.machine = hw::MachineSpec::small(2);
  cs.guest.tick_mode = guest::TickMode::kDynticksIdle;
  cs.guest.steal.enabled = true;
  cs.duration = SimTime::ms(60);
  cs.seed = seed;
  cs.rebalance_period = SimTime::ms(5);  // irrelevant with one host
  cs.workload = [](guest::GuestKernel& k, int) { busy_storm(k, 0.4); };
  ClusterResult cr = Cluster(std::move(cs)).run();

  SystemSpec sys;
  sys.machine = hw::MachineSpec::small(2);
  sys.host.seed = derive_seed(seed, 0);
  sys.max_duration = SimTime::ms(60);
  sys.stop_when_done = false;
  VmSpec vm;
  vm.vcpus = 2;
  vm.guest.tick_mode = guest::TickMode::kDynticksIdle;
  vm.guest.steal.enabled = true;
  vm.guest.seed = derive_seed(derive_seed(derive_seed(seed, kVmSeedSalt), 0), 0);
  vm.setup = [](guest::GuestKernel& k) { busy_storm(k, 0.4); };
  sys.vms.push_back(vm);
  System plain(std::move(sys));
  plain.power_on();
  plain.engine().run_until(SimTime::ms(60));
  const metrics::RunResult pr = plain.finish();

  EXPECT_EQ(cr.merged.exits_total, pr.exits_total);
  EXPECT_EQ(cr.merged.exits_timer_related, pr.exits_timer_related);
  EXPECT_EQ(cr.merged.events_executed, pr.events_executed);
  EXPECT_EQ(cr.merged.events_scheduled, pr.events_scheduled);
  ASSERT_EQ(cr.merged.vms.size(), 1u);
  ASSERT_EQ(pr.vms.size(), 1u);
  EXPECT_EQ(cr.merged.vms[0].exits_total, pr.vms[0].exits_total);
  EXPECT_EQ(cr.merged.vms[0].steal_time.nanoseconds(),
            pr.vms[0].steal_time.nanoseconds());
  ASSERT_TRUE(cr.merged.vms[0].steal_estimate && pr.vms[0].steal_estimate);
  EXPECT_EQ(cr.merged.vms[0].steal_estimate->nanoseconds(),
            pr.vms[0].steal_estimate->nanoseconds());
  EXPECT_EQ(cr.merged.vms[0].wakeup_latency_us.count(),
            pr.vms[0].wakeup_latency_us.count());
  EXPECT_EQ(cr.merged.vms[0].wakeup_latency_us.mean(),
            pr.vms[0].wakeup_latency_us.mean());
  EXPECT_EQ(cr.migrations, 0u);
}

// Two hosts, asymmetric load: both busy VMs start on host 0 (round-robin
// places even global indices there), the idle ones on host 1. The
// guests' own steal estimates must pull at least one busy VM off the hot
// host.
TEST(Cluster, RebalancingMovesLoadOffMostStolenHost) {
  ClusterSpec cs;
  cs.hosts = 2;
  cs.vms_per_host = 2;
  cs.vcpus_per_vm = 2;
  cs.machine = hw::MachineSpec::small(2);  // per-host 2x overcommit when hot
  cs.guest.tick_mode = guest::TickMode::kDynticksIdle;
  cs.guest.steal.enabled = true;
  cs.duration = SimTime::ms(100);
  cs.seed = 11;
  cs.rebalance_period = SimTime::ms(5);
  cs.workload = [](guest::GuestKernel& k, int g) {
    if (g % 2 == 0) busy_storm(k, 0.9);  // both busy VMs land on host 0
  };
  ClusterResult r = Cluster(std::move(cs)).run();
  EXPECT_GT(r.rebalance_rounds, 0u);
  EXPECT_GT(r.migrations, 0u);
  // The busy pair (global VMs 0 and 2) no longer shares host 0.
  EXPECT_FALSE(r.placement[0] == 0 && r.placement[2] == 0);
}

TEST(Cluster, MigrationBlackoutLandsInWakeLatency) {
  ClusterSpec cs = tenant_cluster(2, 2, 11);
  cs.guest.tick_mode = guest::TickMode::kDynticksIdle;
  cs.migration_blackout = SimTime::us(777);
  cs.workload = [](guest::GuestKernel& k, int g) {
    if (g % 2 == 0) busy_storm(k, 0.9);
  };
  ClusterResult r = Cluster(std::move(cs)).run();
  ASSERT_GT(r.migrations, 0u);
  // Each migration contributes one blackout-sized wake sample to the
  // migrated VM's merged distribution.
  double worst = 0.0;
  for (const auto& vm : r.merged.vms) {
    worst = std::max(worst, vm.wakeup_latency_us.max());
  }
  EXPECT_GE(worst, 777.0);
}

// The parallel engine on the one scenario that drives it: rebalancing
// migrations boot guests across partitions, and the 50us telemetry star
// sets the lookahead below the 500us blackout. Goldens pin the run's
// digest, migrations, telemetry reports and round count. Reports still in
// flight at the end stay undelivered in host 0's inbox: they are never
// scheduled on its engine.
TEST(Cluster, MigratingTelemetryStarMatchesGoldens) {
  ClusterSpec cs = tenant_cluster(3, 2, 33);
  cs.duration = SimTime::ms(40);
  cs.telemetry_period = SimTime::us(200);
  cs.telemetry_latency = SimTime::us(50);
  cs.workload = [](guest::GuestKernel& k, int g) {
    if (g % 3 == 0) busy_storm(k, 0.9);  // global VMs 0 and 3 on host 0
  };
  const ClusterResult r = Cluster(std::move(cs)).run();
  EXPECT_EQ(r.state_digest, 0xe4d092caf3d77151ull);
  EXPECT_EQ(r.migrations, 6u);
  EXPECT_EQ(r.telemetry_received, 398u);
  EXPECT_EQ(r.hosts[0].events_executed, 961u);
  EXPECT_EQ(r.hosts[0].events_scheduled, 1006u);
  EXPECT_EQ(r.profile.quanta, 476u);
  EXPECT_EQ(r.merged.par_windows, r.profile.quanta);
}

SweepConfig cluster_sweep(unsigned threads) {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(4);
  cfg.base.vcpus = 2;
  cfg.base.scenario.vm_copies = 2;
  cfg.base.max_duration = SimTime::ms(40);
  cfg.base.stop_when_done = false;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.root_seed = 4242;
  cfg.threads = threads;
  cfg.base.scenario.run = [](const ExperimentSpec& exp, guest::TickMode mode) {
    ClusterSpec cs = cluster_spec_for(exp, mode, 2);
    cs.guest.steal.enabled = true;
    cs.rebalance_period = SimTime::ms(5);
    cs.workload = [until = exp.max_duration,
                   seed = exp.guest_seed](guest::GuestKernel& k, int g) {
      workload::TenantTrafficSpec t;
      t.workers = 2;
      t.until = until;
      t.seed = derive_seed(seed, static_cast<std::uint64_t>(g));
      workload::install_tenant_traffic(k, t);
    };
    return Cluster(std::move(cs)).run().merged;
  };
  return cfg;
}

TEST(ClusterSweep, WorkerThreadCountLeavesExportsByteIdentical) {
  const SweepResult serial = SweepRunner(cluster_sweep(1)).run();
  const SweepResult parallel = SweepRunner(cluster_sweep(4)).run();
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

TEST(ClusterSweep, DispatchLeavesExportsByteIdentical) {
  const SweepResult a = SweepRunner(cluster_sweep(2)).run();
  dispatch::DispatchOptions opts;
  opts.workers = 3;
  dispatch::ForkWorkerTransport transport(cluster_sweep(1));
  const SweepResult b = dispatch::dispatch_sweep(transport, opts);
  EXPECT_EQ(b.backend_name, "dispatch");
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(Cluster, RejectsNonsenseSpecs) {
  ClusterSpec bad = tenant_cluster(2, 2, 1);
  bad.hosts = 0;
  EXPECT_SIM_ERROR(Cluster{std::move(bad)}, "at least one host");
  ClusterSpec bad2 = tenant_cluster(2, 2, 1);
  bad2.migration_blackout = SimTime::zero();
  EXPECT_SIM_ERROR(Cluster{std::move(bad2)}, "migration blackout");
  ClusterSpec once = tenant_cluster(2, 2, 1);
  Cluster c(std::move(once));
  (void)c.run();
  EXPECT_SIM_ERROR((void)c.run(), "only run once");
}

// Cluster runs honour none of the per-run sweep extras; asking for one
// must fail loudly instead of running an unrecorded, unfaulted cluster.
TEST(Cluster, SpecForRejectsSweepSettingsItCannotHonour) {
  ExperimentSpec exp;
  exp.fault_seed = 99;  // the sweep always derives one: inert without faults
  EXPECT_EQ(cluster_spec_for(exp, guest::TickMode::kParatick, 3).hosts, 3);

  record_replay::TraceRecorder recorder;
  ExperimentSpec observed;
  observed.observer = &recorder;
  EXPECT_SIM_ERROR((void)cluster_spec_for(observed, guest::TickMode::kParatick, 2),
                   "--record-trace");
  ExperimentSpec faulted;
  faulted.fault.timer_drop_prob = 0.1;
  EXPECT_SIM_ERROR((void)cluster_spec_for(faulted, guest::TickMode::kParatick, 2),
                   "--chaos");
  ExperimentSpec watched;
  watched.watchdog = true;
  EXPECT_SIM_ERROR((void)cluster_spec_for(watched, guest::TickMode::kParatick, 2),
                   "--watchdog");
  ExperimentSpec limited;
  limited.wall_limit_sec = 5.0;
  EXPECT_SIM_ERROR((void)cluster_spec_for(limited, guest::TickMode::kParatick, 2),
                   "--run-timeout");

  SweepConfig cfg;
  EXPECT_EQ(unsupported_cluster_flag(cfg), nullptr);
  cfg.record_trace = true;
  EXPECT_STREQ(unsupported_cluster_flag(cfg), "--record-trace");
  cfg = SweepConfig{};
  cfg.fault.steal_burst_prob = 0.5;
  cfg.watchdog = true;  // --chaos sets both; the fault flag is named first
  EXPECT_STREQ(unsupported_cluster_flag(cfg), "--chaos / --fault-<knob>");
  cfg = SweepConfig{};
  cfg.run_timeout_sec = 2.0;
  EXPECT_STREQ(unsupported_cluster_flag(cfg), "--run-timeout");
}

}  // namespace
}  // namespace paratick::core
