#include "core/cluster/cluster.hpp"

#include <algorithm>
#include <utility>

#include "core/sweep.hpp"
#include "sim/check.hpp"

namespace paratick::core {

namespace {

/// Salt for the per-VM guest seed stream ("vmse"), separate from the
/// per-host stream so adding hosts never perturbs guest draws.
constexpr std::uint64_t kVmSeedSalt = 0x766d7365;

/// Fold one incarnation's metrics into the global VM's roll-up: counters
/// and steal sum, distributions merge, completion is the latest one.
void merge_vm(metrics::VmResult& acc, const metrics::VmResult& inc) {
  acc.exits_total += inc.exits_total;
  acc.exits_timer_related += inc.exits_timer_related;
  for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
    acc.exits_by_cause[c] += inc.exits_by_cause[c];
  }
  if (inc.completion_time) {
    acc.completion_time = acc.completion_time
                              ? std::max(*acc.completion_time, *inc.completion_time)
                              : *inc.completion_time;
  }
  acc.policy.ticks_handled += inc.policy.ticks_handled;
  acc.policy.virtual_ticks += inc.policy.virtual_ticks;
  acc.policy.msr_writes += inc.policy.msr_writes;
  acc.policy.msr_writes_avoided += inc.policy.msr_writes_avoided;
  acc.policy.idle_entries += inc.policy.idle_entries;
  acc.policy.idle_exits += inc.policy.idle_exits;
  acc.policy.busy_stops += inc.policy.busy_stops;
  acc.tick_intervals_us.merge(inc.tick_intervals_us);
  acc.task_blocks += inc.task_blocks;
  acc.task_wakes += inc.task_wakes;
  acc.wakeup_latency_us.merge(inc.wakeup_latency_us);
  acc.wakeup_latency_hist_us.merge(inc.wakeup_latency_hist_us);
  acc.io_errors += inc.io_errors;
  acc.steal_time += inc.steal_time;
  if (inc.steal_estimate) {
    acc.steal_estimate =
        acc.steal_estimate.value_or(sim::SimTime::zero()) + *inc.steal_estimate;
  }
}

}  // namespace

ClusterSpec cluster_spec_for(const ExperimentSpec& exp, guest::TickMode mode,
                             int hosts) {
  PARATICK_CHECK_MSG(exp.observer == nullptr,
                     "cluster runs take no engine observer (--record-trace)");
  PARATICK_CHECK_MSG(!exp.fault.any(),
                     "cluster runs inject no faults (--chaos, --fault-*)");
  PARATICK_CHECK_MSG(exp.wall_limit_sec == 0.0,
                     "cluster runs have no wall-clock limit (--run-timeout)");
  ClusterSpec cs;
  cs.hosts = hosts;
  cs.vms_per_host = exp.scenario.effective_copies();
  cs.vcpus_per_vm = exp.vcpus;
  cs.machine = exp.machine;
  cs.host = exp.host;
  cs.guest.tick_mode = mode;
  cs.guest.tick_freq = exp.guest_tick_freq;
  cs.guest.costs = exp.guest_costs;
  cs.duration = exp.max_duration;
  cs.seed = exp.guest_seed;  // pure in (root_seed, run_index)
  return cs;
}

const char* unsupported_cluster_flag(const SweepConfig& cfg) {
  if (cfg.record_trace || cfg.observer != nullptr) return "--record-trace";
  if (cfg.fault.any()) return "--chaos / --fault-<knob>";
  if (cfg.run_timeout_sec > 0.0) return "--run-timeout";
  return nullptr;
}

Cluster::Cluster(ClusterSpec spec) : spec_(std::move(spec)) {
  PARATICK_CHECK_MSG(spec_.hosts >= 1, "cluster needs at least one host");
  PARATICK_CHECK_MSG(spec_.vms_per_host >= 1, "cluster needs >= 1 VM per host");
  PARATICK_CHECK_MSG(spec_.vcpus_per_vm >= 1, "VMs need >= 1 vCPU");
  PARATICK_CHECK_MSG(spec_.duration > sim::SimTime::zero(),
                     "cluster duration must be > 0");
  PARATICK_CHECK_MSG(spec_.migration_blackout > sim::SimTime::zero(),
                     "migration blackout must be > 0 (it bounds the "
                     "engine's lookahead)");

  const int total_vms = spec_.hosts * spec_.vms_per_host;
  const std::vector<int> placement = place(spec_.hosts, total_vms);
  PARATICK_CHECK_MSG(placement.size() == static_cast<std::size_t>(total_vms),
                     "scheduler placement size mismatch");

  // Same shared-mode upgrade rule as make_system_spec: overcommitted
  // hosts (more vCPUs than pCPUs) need the time-sliced scheduler. A
  // rebalancing cluster gets it unconditionally — any migration can push
  // its destination past pCPU capacity, which pinned mode rejects.
  const bool can_migrate =
      spec_.hosts > 1 && spec_.rebalance_period > sim::SimTime::zero();
  hv::HostConfig host_template = spec_.host;
  if (can_migrate || static_cast<std::uint32_t>(spec_.vcpus_per_vm) *
                             static_cast<std::uint32_t>(spec_.vms_per_host) >
                         spec_.machine.total_cpus()) {
    host_template.sched_mode = hv::SchedMode::kShared;
  }

  // Per-host SystemSpecs, VMs in global-index order within each host.
  std::vector<SystemSpec> specs(static_cast<std::size_t>(spec_.hosts));
  for (int h = 0; h < spec_.hosts; ++h) {
    SystemSpec& sys = specs[static_cast<std::size_t>(h)];
    sys.machine = spec_.machine;
    sys.host = host_template;
    sys.host.seed = derive_seed(spec_.seed, static_cast<std::uint64_t>(h));
    sys.max_duration = spec_.duration;
    sys.stop_when_done = false;  // the cluster driver owns the event loop
  }
  vms_.resize(static_cast<std::size_t>(total_vms));
  for (int g = 0; g < total_vms; ++g) {
    const int h = placement[static_cast<std::size_t>(g)];
    PARATICK_CHECK_MSG(h >= 0 && h < spec_.hosts,
                       "scheduler placed a VM on a nonexistent host");
    SystemSpec& sys = specs[static_cast<std::size_t>(h)];
    vms_[static_cast<std::size_t>(g)].host = h;
    vms_[static_cast<std::size_t>(g)].local_index = sys.vms.size();
    sys.vms.push_back(make_vm_spec(g, 0));
  }
  for (int h = 0; h < spec_.hosts; ++h) {
    PARATICK_CHECK_MSG(!specs[static_cast<std::size_t>(h)].vms.empty(),
                       "initial placement left a host empty");
  }

  hosts_.reserve(static_cast<std::size_t>(spec_.hosts));
  for (int h = 0; h < spec_.hosts; ++h) {
    hosts_.push_back(
        std::make_unique<System>(std::move(specs[static_cast<std::size_t>(h)])));
  }

  if (spec_.hosts > 1) {
    const bool telemetry = spec_.telemetry_period > sim::SimTime::zero();
    if (telemetry) {
      PARATICK_CHECK_MSG(spec_.telemetry_latency > sim::SimTime::zero(),
                         "telemetry latency must be > 0 (it bounds the "
                         "engine's lookahead)");
      PARATICK_CHECK_MSG(spec_.telemetry_period >= spec_.telemetry_latency,
                         "telemetry period below the link latency would "
                         "queue unbounded in-flight reports");
    }
    // The lookahead is the shortest delay any cross-host message takes:
    // a migration's blackout, or a telemetry report's latency.
    fabric_ = std::make_unique<sim::ParallelEngine>(
        telemetry ? std::min(spec_.migration_blackout, spec_.telemetry_latency)
                  : spec_.migration_blackout);
    for (int h = 0; h < spec_.hosts; ++h) {
      fabric_->add_partition(hosts_[static_cast<std::size_t>(h)]->engine(),
                             "host" + std::to_string(h));
    }
    // The telemetry star: every other host streams load reports to the
    // coordinator, host 0.
    if (telemetry) {
      for (int h = 1; h < spec_.hosts; ++h) {
        auto pump = std::make_unique<TelemetryPump>();
        pump->fabric = fabric_.get();
        pump->engine = &hosts_[static_cast<std::size_t>(h)]->engine();
        pump->src = static_cast<sim::PartitionId>(h);
        pump->period = spec_.telemetry_period;
        pump->latency = spec_.telemetry_latency;
        pump->until = spec_.duration;
        pump->received = &telemetry_received_;
        pump->arm();
        telemetry_pumps_.push_back(std::move(pump));
      }
    }
  }
}

void Cluster::TelemetryPump::arm() {
  if (engine->now() + period > until) return;
  engine->schedule_after(period, [this] {
    fabric->send(src, 0, latency, [r = received] { ++*r; });
    arm();
  });
}

Cluster::~Cluster() = default;

VmSpec Cluster::make_vm_spec(int global_vm, std::uint64_t incarnation) const {
  VmSpec vm;
  vm.vcpus = spec_.vcpus_per_vm;
  vm.guest = spec_.guest;
  // Pure in (seed, global VM, incarnation): a migrated VM's new kernel
  // draws an independent stream, whatever window the move happened in.
  vm.guest.seed = derive_seed(
      derive_seed(derive_seed(spec_.seed, kVmSeedSalt),
                  static_cast<std::uint64_t>(global_vm)),
      incarnation);
  if (spec_.workload) {
    vm.setup = [workload = spec_.workload, global_vm](guest::GuestKernel& k) {
      workload(k, global_vm);
    };
  }
  return vm;
}

void Cluster::rebalance_at_barrier() {
  ++rebalance_rounds_;

  // Scheduler input: what the guests themselves measured this window.
  std::vector<VmLoadView> views;
  views.reserve(vms_.size());
  for (std::size_t g = 0; g < vms_.size(); ++g) {
    GlobalVm& gv = vms_[g];
    if (!gv.live) continue;  // migration in flight; no kernel to sample
    const sim::SimTime est =
        hosts_[static_cast<std::size_t>(gv.host)]->kernel(gv.local_index).steal_estimate();
    VmLoadView v;
    v.global_vm = static_cast<int>(g);
    v.host = gv.host;
    v.steal_total = est;
    v.steal_delta = est - gv.last_steal_estimate;
    views.push_back(v);
    gv.last_steal_estimate = est;
  }

  const std::optional<Migration> mig = rebalance(views, spec_.hosts);
  if (!mig) return;
  PARATICK_CHECK_MSG(mig->global_vm >= 0 && mig->global_vm < static_cast<int>(vms_.size()),
                     "scheduler migrated a nonexistent VM");
  PARATICK_CHECK_MSG(mig->to_host >= 0 && mig->to_host < spec_.hosts,
                     "scheduler migrated to a nonexistent host");
  GlobalVm& gv = vms_[static_cast<std::size_t>(mig->global_vm)];
  PARATICK_CHECK_MSG(gv.live && mig->to_host != gv.host,
                     "scheduler migrated an in-flight VM or onto its own host");

  const int src = gv.host;
  System& src_sys = *hosts_[static_cast<std::size_t>(src)];
  System& dst_sys = *hosts_[static_cast<std::size_t>(mig->to_host)];

  // Stop-and-copy: park the source incarnation, burn the dirty-page
  // copy on both ends, and boot the next incarnation on the
  // destination one blackout later — carried as a regular fabric
  // message, like any other cross-host traffic.
  src_sys.freeze_vm(gv.local_index);
  src_sys.machine().cpu(0).charge_cycles(hw::CycleCategory::kHostKernel,
                                         spec_.migration_dirty_cycles);
  dst_sys.machine().cpu(0).charge_cycles(hw::CycleCategory::kHostKernel,
                                         spec_.migration_dirty_cycles);
  gv.past.emplace_back(src, gv.local_index);
  gv.live = false;
  gv.last_steal_estimate = sim::SimTime::zero();
  ++gv.migrations;
  ++migrations_;

  // Heap-allocated: a VmSpec is far larger than the engine's inline
  // callback capacity, and the boot callback outlives this frame.
  auto vspec = std::make_shared<const VmSpec>(
      make_vm_spec(mig->global_vm, gv.migrations));
  GlobalVm* gvp = &gv;
  System* dst_ptr = &dst_sys;
  fabric_->send(static_cast<sim::PartitionId>(src),
                static_cast<sim::PartitionId>(mig->to_host),
                spec_.migration_blackout,
                [dst_ptr, vspec, gvp, to = mig->to_host] {
                  gvp->local_index = dst_ptr->attach_vm_live(*vspec);
                  gvp->host = to;
                  gvp->live = true;
                });
}

ClusterResult Cluster::run() {
  PARATICK_CHECK_MSG(!ran_, "Cluster may only run once");
  ran_ = true;

  for (auto& h : hosts_) h->power_on();

  if (fabric_ == nullptr) {
    // Single host: drive the engine directly. Byte-identical to an
    // equivalent plain System run — the cluster adds no events.
    hosts_.front()->engine().run_until(spec_.duration);
    return collect();
  }

  const bool barriers = spec_.rebalance_period > sim::SimTime::zero();
  const sim::SimTime step = barriers ? spec_.rebalance_period : spec_.duration;
  sim::SimTime t = sim::SimTime::zero();
  while (t < spec_.duration) {
    const sim::SimTime next = std::min(t + step, spec_.duration);
    fabric_->run_until(next);
    t = next;
    if (barriers && t < spec_.duration) rebalance_at_barrier();
  }
  return collect();
}

ClusterResult Cluster::collect() {
  ClusterResult out;
  out.hosts.reserve(hosts_.size());
  for (auto& h : hosts_) out.hosts.push_back(h->finish());

  metrics::RunResult& m = out.merged;
  for (const metrics::RunResult& hr : out.hosts) {
    m.wall = std::max(m.wall, hr.wall);
    m.cycles.merge(hr.cycles);
    m.exits_total += hr.exits_total;
    m.exits_timer_related += hr.exits_timer_related;
    for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
      m.exits_by_cause[c] += hr.exits_by_cause[c];
    }
    m.events_executed += hr.events_executed;
    m.events_scheduled += hr.events_scheduled;
    m.events_cancelled += hr.events_cancelled;
    m.callback_spills += hr.callback_spills;
    m.callback_spill_bytes += hr.callback_spill_bytes;
    m.slot_high_water = std::max(m.slot_high_water, hr.slot_high_water);
    m.queue_compactions += hr.queue_compactions;
    m.engine_wall_ns += hr.engine_wall_ns;
  }

  // One merged VmResult per global VM, incarnations in chronological
  // order. Each migration contributes one blackout-sized wake-latency
  // sample: the frozen tenant resumes exactly that much later.
  m.vms.reserve(vms_.size());
  for (const GlobalVm& gv : vms_) {
    metrics::VmResult acc;
    for (const auto& [h, local] : gv.past) {
      merge_vm(acc, out.hosts[static_cast<std::size_t>(h)].vms[local]);
    }
    if (gv.live) {
      merge_vm(acc,
               out.hosts[static_cast<std::size_t>(gv.host)].vms[gv.local_index]);
    }
    for (std::uint64_t i = 0; i < gv.migrations; ++i) {
      const double blackout_us = spec_.migration_blackout.microseconds();
      acc.wakeup_latency_us.add(blackout_us);
      acc.wakeup_latency_hist_us.add(blackout_us);
    }
    m.vms.push_back(std::move(acc));
  }

  out.placement.reserve(vms_.size());
  for (const GlobalVm& gv : vms_) out.placement.push_back(gv.host);
  out.migrations = migrations_;
  out.rebalance_rounds = rebalance_rounds_;
  out.telemetry_received = telemetry_received_;
  if (fabric_ != nullptr) {
    out.profile = fabric_->profile();
    out.state_digest = fabric_->state_digest();
    // Round counters ride the merged RunResult into the sweep pipeline
    // (runs -> cell accumulators -> sweep JSON / --profile table).
    // They are pure functions of the spec.
    m.par_windows = out.profile.quanta;
    m.par_windows_skipped = out.profile.windows_skipped;
  }
  return out;
}

}  // namespace paratick::core
