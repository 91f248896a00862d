// The cluster layer: N hosts × M VMs under one simulated clock.
//
// Each host is a self-contained core::System — its own engine, machine
// and hypervisor, with the host boundary doubling as the parallel
// engine's partition boundary. The cluster driver owns the event loop: it
// advances all hosts in lockstep windows of `rebalance_period`, and at
// each window barrier feeds the guests' own steal-time estimates (never
// hypervisor ground truth) to the greedy steal-driven rebalancer
// (core/cluster/scheduler.hpp), executing the migration it returns.
//
// Live migration is modeled as its two dominant costs: a stop-and-copy
// blackout carried as a cross-host fabric message (the VM is frozen on
// the source, and boots its next incarnation on the destination one
// blackout later) and a dirty-page copy charge burned
// as host-kernel cycles on both ends. The blackout also lands in the
// merged VM's wake-latency distribution — a migrated tenant observes it
// exactly like a very late wakeup.
//
// Determinism: host seeds and per-VM guest seeds are pure in
// (spec.seed, host / global VM index); scheduler inputs are read at
// barriers from committed state; migrations travel as ordinary
// cross-partition messages, and the engine's rounds have one lookahead,
// the shortest cross-host delay the spec allows (min of the migration
// blackout and, with telemetry on, the telemetry latency). Every result
// field except the profile's wall_ns is therefore a pure function of the
// spec.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/cluster/scheduler.hpp"
#include "core/system.hpp"
#include "metrics/run_metrics.hpp"
#include "sim/parallel/parallel_engine.hpp"

namespace paratick::sim {

/// Kept only because the benchmark harness (perfbench/) names it, and
/// perfbench changes only together with the benchmark: the parallel
/// engine has one window rule, so this one-value type selects nothing.
/// The next change that owns perfbench deletes it together with
/// ClusterSpec::lookahead_mode.
enum class LookaheadMode : std::uint8_t { kTopology };

}  // namespace paratick::sim

namespace paratick::core {

struct ClusterSpec {
  int hosts = 2;
  int vms_per_host = 2;
  int vcpus_per_vm = 1;
  /// Per-host physical machine. Size it below vms_per_host * vcpus_per_vm
  /// for overcommit; the host scheduler upgrades to shared mode then.
  hw::MachineSpec machine = hw::MachineSpec::small(2);
  hv::HostConfig host;       // template; per-host seed derived from `seed`
  guest::GuestConfig guest;  // template; per-VM seed derived from `seed`
  /// Installs the workload into each (re)booted guest kernel; called with
  /// the VM's global index. Workloads should run to an absolute horizon
  /// (e.g. workload::install_tenant_traffic) so migrated incarnations
  /// resume the remaining load instead of starting over.
  std::function<void(guest::GuestKernel&, int global_vm)> workload;
  sim::SimTime duration = sim::SimTime::ms(200);
  std::uint64_t seed = 1;
  /// Read by nothing: perfbench/ sets it. The next change that owns
  /// perfbench deletes it.
  unsigned engine_threads = 1;

  /// Rebalance barrier period; zero = place once, never rebalance.
  sim::SimTime rebalance_period;
  /// Stop-and-copy blackout: the frozen VM's resume delay, carried as the
  /// delay of the cross-host message that boots it. Bounds the engine's
  /// lookahead.
  sim::SimTime migration_blackout = sim::SimTime::us(500);
  /// Dirty-page copy cost, charged as host-kernel cycles on both hosts.
  sim::Cycles migration_dirty_cycles{2'000'000};

  /// Read by nothing: perfbench/ sets it. The next change that owns
  /// perfbench deletes it with sim::LookaheadMode.
  sim::LookaheadMode lookahead_mode = sim::LookaheadMode::kTopology;
  /// Telemetry star (hosts > 1): when > 0, every host except host 0
  /// streams a periodic load report to host 0, each delivered
  /// `telemetry_latency` after it is sent. A latency below the blackout
  /// shortens the engine's lookahead, so every host runs more rounds.
  sim::SimTime telemetry_period;  // zero = no telemetry traffic
  /// Delay of each telemetry report (must be <= the period).
  sim::SimTime telemetry_latency = sim::SimTime::us(50);
};

struct ClusterResult {
  /// Cluster-wide roll-up: host counters summed, one VmResult per GLOBAL
  /// VM with its incarnations merged (exits and steal summed, latency
  /// distributions merged, one blackout-sized wake sample per migration).
  metrics::RunResult merged;
  std::vector<metrics::RunResult> hosts;  // per-host results, host order
  std::vector<int> placement;             // final host of each global VM
  std::uint64_t migrations = 0;
  std::uint64_t rebalance_rounds = 0;
  /// Load reports host 0 received over the telemetry star (0 when
  /// telemetry_period was 0).
  std::uint64_t telemetry_received = 0;
  /// Parallel-engine identity (hosts > 1): digest and profile are pure
  /// functions of the spec, except profile.wall_ns.
  std::uint64_t state_digest = 0;
  sim::ParallelProfile profile;
};

struct ExperimentSpec;
struct SweepConfig;

/// The ClusterSpec fields a sweep's materialized experiment determines:
/// `hosts`, VMs per host (the scenario's VM copies), vCPUs per VM, the
/// per-host machine (already sized by the overcommit axis), the host
/// config, the guest tick mode, frequency and costs, the duration and the
/// seed. Callers add the workload, rebalancing and engine knobs.
/// PARATICK_CHECKs that the experiment asks for nothing a cluster cannot
/// honour: an engine observer, faults, the watchdog or a wall-clock limit
/// (fault_seed only seeds a fault plan, so `fault` covers it).
[[nodiscard]] ClusterSpec cluster_spec_for(const ExperimentSpec& exp,
                                           guest::TickMode mode, int hosts);

/// The sweep flag behind the first setting in `cfg` that cluster runs
/// cannot honour ("--record-trace", "--chaos / --fault-<knob>",
/// "--watchdog", "--run-timeout"), or nullptr. Cluster binaries check it
/// after SweepCli::apply and exit 2 before the sweep starts.
[[nodiscard]] const char* unsupported_cluster_flag(const SweepConfig& cfg);

class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Drive the cluster to spec.duration and collect. Call once.
  [[nodiscard]] ClusterResult run();

  [[nodiscard]] int host_count() const { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] System& host(int h) { return *hosts_[static_cast<std::size_t>(h)]; }

 private:
  /// Where one global VM currently lives, plus its history.
  struct GlobalVm {
    int host = 0;
    std::size_t local_index = 0;  // index into that host System's VMs
    bool live = true;             // false while a migration is in flight
    /// Finished incarnations (host, local index) in chronological order.
    std::vector<std::pair<int, std::size_t>> past;
    sim::SimTime last_steal_estimate;  // estimate at the previous barrier
    std::uint64_t migrations = 0;
  };

  /// Self-rescheduling load-report sender living on one host's engine:
  /// every period it sends a telemetry message to host 0. The counter bump
  /// runs inside host 0's partition.
  struct TelemetryPump {
    sim::ParallelEngine* fabric = nullptr;
    sim::Engine* engine = nullptr;
    sim::PartitionId src = 0;
    sim::SimTime period;
    sim::SimTime latency;
    sim::SimTime until;
    std::uint64_t* received = nullptr;
    void arm();
  };

  [[nodiscard]] VmSpec make_vm_spec(int global_vm,
                                    std::uint64_t incarnation) const;
  void rebalance_at_barrier();
  [[nodiscard]] ClusterResult collect();

  ClusterSpec spec_;
  std::vector<std::unique_ptr<System>> hosts_;
  std::vector<GlobalVm> vms_;
  std::unique_ptr<sim::ParallelEngine> fabric_;  // hosts > 1 only
  std::vector<std::unique_ptr<TelemetryPump>> telemetry_pumps_;
  std::uint64_t telemetry_received_ = 0;
  std::uint64_t rebalance_rounds_ = 0;
  std::uint64_t migrations_ = 0;
  bool ran_ = false;
};

}  // namespace paratick::core
