#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <utility>

#include "alloc_counter.hpp"
#include "core/cluster/cluster.hpp"
#include "core/experiment.hpp"
#include "hv/exit_stats.hpp"
#include "sim/engine.hpp"
#include "metrics/report.hpp"
#include "workload/fio.hpp"
#include "workload/micro.hpp"
#include "workload/parsec.hpp"
#include "workload/tenant_traffic.hpp"

namespace perfbench {

namespace guest = paratick::guest;
namespace hw = paratick::hw;
namespace metrics = paratick::metrics;
namespace workload = paratick::workload;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Small stable thread ids for trace spans.
int trace_tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

std::string run_label(const core::ExperimentSpec& exp, guest::TickMode mode) {
  return std::string(guest::to_string(mode)) +
         metrics::format(" seed=%016llx", static_cast<unsigned long long>(exp.guest_seed));
}

EventClass class_of(hw::ExitCause cause) {
  if (hw::is_timer_related(cause)) return EventClass::kTimerExit;
  switch (cause) {
    case hw::ExitCause::kHalt: return EventClass::kHaltExit;
    case hw::ExitCause::kIoKick:
    case hw::ExitCause::kIoAck:
    case hw::ExitCause::kDeviceCompletion: return EventClass::kIoExit;
    case hw::ExitCause::kIpiSend:
    case hw::ExitCause::kWakeIpi: return EventClass::kIpiExit;
    default: return EventClass::kOtherExit;
  }
}

/// Benchmark-owned engine observer for the traced pass: stamps every
/// event with the steady clock, classifies it by the change in
/// kvm().exits() per cause, aggregates per class and keeps every
/// kSampleEvery-th event as a span.
class TraceObserver final : public sim::EventObserver {
 public:
  static constexpr std::uint64_t kSampleEvery = 4096;

  /// Watch `exits` (the host's hv::Kvm exit stats). Call before the run.
  void attach(const paratick::hv::ExitStats& exits);
  /// Restart the inter-event stopwatch (right before events execute).
  void start();
  void on_event_executed(sim::Engine& engine, sim::SimTime when,
                         std::uint64_t seq) override;

  [[nodiscard]] const EventTotals& totals() const { return totals_; }
  [[nodiscard]] std::vector<Span> take_samples() { return std::move(samples_); }

 private:
  [[nodiscard]] EventClass classify();

  const paratick::hv::ExitStats* exits_ = nullptr;
  std::array<std::uint64_t, paratick::hw::kExitCauseCount> last_{};
  std::uint64_t last_ns_ = 0;
  std::uint64_t seen_ = 0;
  EventTotals totals_;
  std::vector<Span> samples_;
};

/// Shared by every run of one pass (runs execute on sweep workers).
class Probe {
 public:
  explicit Probe(TraceSink* sink) : sink_(sink) {}

  [[nodiscard]] TraceSink* sink() const { return sink_; }
  void add(const LayerTotals& run, std::vector<Span> spans);
  /// Cluster runs: ParallelEngine state digest keyed by the run's seed.
  void add_cluster_digest(std::uint64_t run_seed, std::uint64_t digest);

  [[nodiscard]] LayerTotals totals() const;
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> cluster_digests() const;

 private:
  TraceSink* sink_;  // null for untraced passes
  mutable std::mutex mu_;
  LayerTotals totals_;                                      // guarded by mu_
  std::map<std::uint64_t, std::uint64_t> cluster_digests_;  // guarded by mu_
};

void TraceObserver::attach(const paratick::hv::ExitStats& exits) {
  exits_ = &exits;
  for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
    last_[c] = exits.count(static_cast<hw::ExitCause>(c));
  }
}

void TraceObserver::start() { last_ns_ = now_ns(); }

EventClass TraceObserver::classify() {
  EventClass best = EventClass::kNoExit;
  for (std::size_t c = 0; c < hw::kExitCauseCount; ++c) {
    const auto cause = static_cast<hw::ExitCause>(c);
    const std::uint64_t n = exits_->count(cause);
    if (n == last_[c]) continue;
    last_[c] = n;
    best = std::min(best, class_of(cause));
  }
  return best;
}

void TraceObserver::on_event_executed(sim::Engine&, sim::SimTime, std::uint64_t) {
  const std::uint64_t t = now_ns();
  const std::uint64_t dur = t - last_ns_;
  last_ns_ = t;
  const EventClass c = classify();
  const auto i = static_cast<std::size_t>(c);
  ++totals_.events[i];
  totals_.ns[i] += dur;
  if (seen_++ % kSampleEvery == 0) {
    samples_.push_back({name(c), "event", t - dur, dur, trace_tid(), {}});
  }
}

// ---- Probe ----

void Probe::add(const LayerTotals& run, std::vector<Span> spans) {
  {
    std::scoped_lock lock(mu_);
    totals_.merge(run);
  }
  if (sink_ != nullptr) sink_->add(std::move(spans));
}

void Probe::add_cluster_digest(std::uint64_t run_seed, std::uint64_t digest) {
  std::scoped_lock lock(mu_);
  cluster_digests_[run_seed] = digest;
}

LayerTotals Probe::totals() const {
  std::scoped_lock lock(mu_);
  return totals_;
}

std::map<std::uint64_t, std::uint64_t> Probe::cluster_digests() const {
  std::scoped_lock lock(mu_);
  return cluster_digests_;
}

// ---- Timing scenario factories ----

/// Byte-for-byte what System::run() does, stamped at each call.
metrics::RunResult run_system(const core::ExperimentSpec& exp, guest::TickMode mode,
                              Probe& probe) {
  const bool traced = probe.sink() != nullptr;
  const std::string label = traced ? run_label(exp, mode) : std::string{};
  const int tid = trace_tid();
  std::vector<Span> spans;
  const auto span = [&](const char* what, std::uint64_t t0, std::uint64_t t1) {
    if (traced) spans.push_back({what, "phase", t0, t1 - t0, tid, label});
  };

  core::SystemSpec spec = core::make_system_spec(exp, mode);
  std::uint64_t install_ns = 0;
  for (core::VmSpec& vm : spec.vms) {
    if (!vm.setup) continue;
    vm.setup = [inner = std::move(vm.setup), &install_ns, &span](guest::GuestKernel& k) {
      const std::uint64_t t0 = now_ns();
      inner(k);
      const std::uint64_t t1 = now_ns();
      install_ns += t1 - t0;
      span("install", t0, t1);
    };
  }
  TraceObserver observer;
  if (traced) spec.observer = &observer;

  const alloc::Counts a0 = alloc::thread_counts();
  alloc::PhaseScope phase(alloc::Phase::kConstruct);
  const std::uint64_t t0 = now_ns();
  core::System system(std::move(spec));
  const std::uint64_t t1 = now_ns();
  if (traced) observer.attach(system.kvm().exits());
  system.power_on();
  const std::uint64_t t2 = now_ns();
  alloc::set_thread_phase(alloc::Phase::kRun);
  if (traced) observer.start();
  system.engine().run_until(exp.max_duration);
  const std::uint64_t t3 = now_ns();
  alloc::set_thread_phase(alloc::Phase::kCollect);
  metrics::RunResult result = system.finish();
  const std::uint64_t t4 = now_ns();
  const alloc::Counts a1 = alloc::thread_counts();

  LayerTotals run;
  run.construct_s = seconds(t1 - t0 - install_ns);
  run.install_s = seconds(install_ns);
  run.power_on_s = seconds(t2 - t1);
  run.run_s = seconds(t3 - t2);
  run.collect_s = seconds(t4 - t3);
  const auto delta = [&](alloc::Phase p) {
    const auto i = static_cast<std::size_t>(p);
    return a1[i] - a0[i];
  };
  run.construct_allocs = delta(alloc::Phase::kConstruct);
  run.run_allocs = delta(alloc::Phase::kRun);
  run.collect_allocs = delta(alloc::Phase::kCollect);
  if (traced) {
    run.events = observer.totals();
    // The construct span encloses this run's install spans.
    span("construct", t0, t1);
    span("power_on", t1, t2);
    span("run", t2, t3);
    span("collect", t3, t4);
    std::vector<Span> samples = observer.take_samples();
    spans.insert(spans.end(), std::make_move_iterator(samples.begin()),
                 std::make_move_iterator(samples.end()));
  }
  probe.add(run, std::move(spans));
  return result;
}

/// The cluster_oc topology (bench_cluster's runner with the workload's
/// fixed knobs). Allocation phases come from process-wide counter deltas,
/// which is exact because cluster sweeps run on one sweep worker.
metrics::RunResult run_cluster(const core::ExperimentSpec& exp, guest::TickMode mode,
                               Probe& probe, unsigned engine_threads) {
  const bool traced = probe.sink() != nullptr;
  const std::string label = traced ? run_label(exp, mode) : std::string{};
  const int tid = trace_tid();
  std::vector<Span> spans;

  core::ClusterSpec cs;
  cs.hosts = 4;
  cs.vms_per_host = exp.scenario.effective_copies();
  cs.vcpus_per_vm = exp.vcpus;
  cs.machine = exp.machine;
  cs.host = exp.host;
  cs.guest.tick_mode = mode;
  cs.guest.tick_freq = exp.guest_tick_freq;
  cs.guest.costs = exp.guest_costs;
  cs.guest.steal.enabled = true;
  cs.duration = exp.max_duration;
  cs.seed = exp.guest_seed;
  cs.engine_threads = engine_threads;
  cs.lookahead_mode = sim::LookaheadMode::kTopology;
  cs.telemetry_period = sim::SimTime::us(200);
  cs.telemetry_latency = sim::SimTime::us(50);
  cs.rebalance_period = sim::SimTime::ms(10);

  // Installs during construction are set-up; re-installs of migrated VMs
  // happen inside run() and are part of it.
  std::atomic<bool> in_setup{true};
  std::uint64_t install_ns = 0;
  cs.workload = [until = exp.max_duration, seed = exp.guest_seed, &in_setup,
                 &install_ns, &spans, &label, traced, tid](guest::GuestKernel& k, int g) {
    const bool timed = in_setup.load(std::memory_order_relaxed);
    const std::uint64_t t0 = timed ? now_ns() : 0;
    workload::TenantTrafficSpec traffic;
    traffic.workers = 2;
    traffic.until = until;
    traffic.seed = core::derive_seed(seed, 0x74726166u + static_cast<std::uint64_t>(g));
    workload::install_tenant_traffic(k, traffic);
    if (!timed) return;
    const std::uint64_t t1 = now_ns();
    install_ns += t1 - t0;
    if (traced) spans.push_back({"install", "phase", t0, t1 - t0, tid, label});
  };

  std::vector<TraceObserver> observers(traced ? static_cast<std::size_t>(cs.hosts) : 0);
  const alloc::Counts a0 = alloc::total_counts();
  alloc::PhaseScope phase(alloc::Phase::kConstruct);
  const std::uint64_t t0 = now_ns();
  core::Cluster cluster(std::move(cs));
  const std::uint64_t t1 = now_ns();
  in_setup.store(false, std::memory_order_relaxed);
  for (std::size_t h = 0; h < observers.size(); ++h) {
    core::System& host = cluster.host(static_cast<int>(h));
    observers[h].attach(host.kvm().exits());
    host.engine().set_observer(&observers[h]);
    observers[h].start();
  }
  alloc::set_thread_phase(alloc::Phase::kRun);
  alloc::set_default_phase(alloc::Phase::kRun);  // the engine's worker threads
  struct ResetDefaultPhase {
    ~ResetDefaultPhase() { alloc::set_default_phase(alloc::Phase::kOther); }
  } reset_default_phase;
  core::ClusterResult cr = cluster.run();
  const std::uint64_t t2 = now_ns();
  const alloc::Counts a1 = alloc::total_counts();

  LayerTotals run;
  run.construct_s = seconds(t1 - t0 - install_ns);
  run.install_s = seconds(install_ns);
  run.run_s = seconds(t2 - t1);
  const auto delta = [&](alloc::Phase p) {
    const auto i = static_cast<std::size_t>(p);
    return a1[i] - a0[i];
  };
  run.construct_allocs = delta(alloc::Phase::kConstruct);
  run.run_allocs = delta(alloc::Phase::kRun);
  run.par_run_s = seconds(cr.profile.wall_ns);
  run.par_windows = cr.profile.quanta;
  run.par_windows_skipped = cr.profile.windows_skipped;
  run.par_barriers_elided = cr.profile.barriers_elided;
  run.par_cross_messages = cr.profile.cross_messages;
  run.par_events = cr.profile.events_committed;
  run.migrations = cr.migrations;
  run.rebalance_rounds = cr.rebalance_rounds;
  if (traced) {
    spans.push_back({"construct", "phase", t0, t1 - t0, tid, label});
    spans.push_back({"run", "phase", t1, t2 - t1, tid, label});
    for (TraceObserver& obs : observers) {
      run.events.merge(obs.totals());
      std::vector<Span> samples = obs.take_samples();
      spans.insert(spans.end(), std::make_move_iterator(samples.begin()),
                   std::make_move_iterator(samples.end()));
    }
  }
  probe.add_cluster_digest(exp.guest_seed, cr.state_digest);
  probe.add(run, std::move(spans));
  return std::move(cr.merged);
}

core::SweepConfig base_config(std::uint64_t seed, unsigned threads) {
  core::SweepConfig cfg;
  cfg.root_seed = seed;
  cfg.threads = threads;
  cfg.progress = false;
  return cfg;
}

std::function<metrics::RunResult(const core::ExperimentSpec&, guest::TickMode)>
system_factory(Probe& probe) {
  return [&probe](const core::ExperimentSpec& exp, guest::TickMode mode) {
    return run_system(exp, mode, probe);
  };
}

/// Figure 5 medium + large: 13 PARSEC profiles x {dynticks, paratick}.
core::SweepConfig parsec_sweep(std::uint64_t seed, Probe& probe) {
  struct Size {
    const char* name;
    int vcpus;
    std::uint32_t sockets;
  };
  static constexpr Size kSizes[] = {{"medium", 16, 2}, {"large", 64, 4}};

  core::SweepConfig cfg = base_config(seed, 1);
  cfg.base.attach_disk = true;
  cfg.base.scenario.run = system_factory(probe);
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  for (const Size& size : kSizes) {
    for (const workload::ParsecProfile& profile : workload::parsec_suite()) {
      cfg.variants.push_back(
          {std::string(size.name) + "/" + std::string(profile.name),
           [&size, &profile](core::ExperimentSpec& exp) {
             exp.machine = hw::MachineSpec{
                 size.sockets, static_cast<std::uint32_t>(size.vcpus) / size.sockets,
                 sim::CpuFrequency{2.0}, sim::SimTime::ns(300)};
             exp.vcpus = size.vcpus;
             exp.setup = [&profile, vcpus = size.vcpus](guest::GuestKernel& k) {
               workload::install_parsec(k, profile, vcpus);
             };
           }});
    }
  }
  return cfg;
}

/// Table 1: W1-W4 x {periodic, dynticks, paratick} over a fixed 10 s
/// window, 16 pCPUs, 16-vCPU VMs, 250 Hz (bench_table1's grid).
core::SweepConfig table1_sweep(std::uint64_t seed, Probe& probe) {
  struct Scenario {
    const char* name;
    int vm_copies;
    bool sync_storm;
  };
  static constexpr Scenario kScenarios[] = {
      {"W1", 1, false}, {"W2", 4, false}, {"W3", 1, true}, {"W4", 4, true}};
  static constexpr int kVcpus = 16;

  core::SweepConfig cfg = base_config(seed, 2);
  cfg.base.machine = hw::MachineSpec::small(16);
  cfg.base.vcpus = kVcpus;
  cfg.base.max_duration = sim::SimTime::sec(10);
  cfg.base.stop_when_done = false;
  cfg.base.scenario.run = system_factory(probe);
  cfg.modes = {guest::TickMode::kPeriodic, guest::TickMode::kDynticksIdle,
               guest::TickMode::kParatick};
  for (const Scenario& sc : kScenarios) {
    cfg.variants.push_back({sc.name, [&sc](core::ExperimentSpec& exp) {
      exp.scenario.vm_copies = sc.vm_copies;
      if (sc.sync_storm) {
        exp.setup = [](guest::GuestKernel& k) {
          workload::SyncStormSpec storm;
          storm.threads = kVcpus;
          storm.sync_rate_hz = 1000.0 / (kVcpus - 1);
          storm.duration = sim::SimTime::sec(10);
          storm.load = 0.5;
          workload::install_sync_storm(k, storm);
        };
      }
    }});
  }
  return cfg;
}

/// Figure 6: fio, 4 patterns x 7 block sizes x {dynticks, paratick}.
core::SweepConfig fio_sweep(std::uint64_t seed, Probe& probe) {
  core::SweepConfig cfg = base_config(seed, 2);
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.attach_disk = true;
  cfg.base.scenario.run = system_factory(probe);
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  for (const workload::FioCategory& cat : workload::fio_categories()) {
    for (const std::uint32_t bs : workload::fio_block_sizes()) {
      workload::FioSpec spec;
      spec.dir = cat.dir;
      spec.pattern = cat.pattern;
      spec.block_bytes = bs;
      spec.ops = 1500;
      cfg.variants.push_back(
          {metrics::format("%s/bs=%uk", std::string(cat.name).c_str(), bs / 1024),
           [spec](core::ExperimentSpec& exp) {
             exp.setup = [spec](guest::GuestKernel& k) { workload::install_fio(k, spec); };
           }});
    }
  }
  return cfg;
}

/// 4 hosts x 8 tenant VMs x 2 vCPUs at overcommit 1 and 2.
core::SweepConfig cluster_sweep(std::uint64_t seed, Probe& probe,
                                unsigned engine_threads) {
  core::SweepConfig cfg = base_config(seed, 1);  // run_cluster relies on 1
  cfg.base.vcpus = 2;
  cfg.base.machine = hw::MachineSpec::small(16);
  cfg.base.scenario.vm_copies = 8;
  cfg.base.max_duration = sim::SimTime::ms(100);
  cfg.base.stop_when_done = false;
  cfg.base.scenario.run = [&probe, engine_threads](const core::ExperimentSpec& exp,
                                                   guest::TickMode mode) {
    return run_cluster(exp, mode, probe, engine_threads);
  };
  cfg.overcommit = {1.0, 2.0};
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.variants.push_back({"hosts=4", nullptr});
  return cfg;
}

/// One sweep of a workload, ready to run.
struct NamedSweep {
  std::string name;
  core::SweepConfig cfg;
};

/// The sweeps of `w`, every run timed into `probe`.
std::vector<NamedSweep> make_sweeps(Workload w, std::uint64_t seed, Probe& probe,
                                    unsigned engine_threads) {
  std::vector<NamedSweep> out;
  switch (w) {
    case Workload::kParsecMt:
      out.push_back({"fig5", parsec_sweep(seed, probe)});
      break;
    case Workload::kTimerIo:
      out.push_back({"table1", table1_sweep(seed, probe)});
      out.push_back({"fig6", fio_sweep(seed, probe)});
      break;
    case Workload::kClusterOc:
      out.push_back({"cluster", cluster_sweep(seed, probe, engine_threads)});
      break;
  }
  return out;
}

// ---- Digest ----

class Hasher {
 public:
  explicit Hasher(std::uint64_t h) : h_(h) {}
  void add(std::uint64_t v) {
    std::uint64_t z = h_ ^ (v + 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    h_ = z ^ (z >> 31);
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const sim::Accumulator& a) {
    const sim::Accumulator::State s = a.state();
    add(s.n);
    add(s.mean);
    add(s.m2);
    add(s.sum);
    add(s.min);
    add(s.max);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

void hash_vm(Hasher& h, const metrics::VmResult& vm) {
  h.add(vm.exits_total);
  h.add(vm.exits_timer_related);
  for (const std::uint64_t n : vm.exits_by_cause) h.add(n);
  h.add(vm.completion_time ? vm.completion_time->nanoseconds() : std::int64_t{-1});
  h.add(vm.policy.ticks_handled);
  h.add(vm.policy.virtual_ticks);
  h.add(vm.policy.msr_writes);
  h.add(vm.policy.msr_writes_avoided);
  h.add(vm.policy.idle_entries);
  h.add(vm.policy.idle_exits);
  h.add(vm.policy.busy_stops);
  h.add(vm.tick_intervals_us);
  h.add(vm.task_blocks);
  h.add(vm.task_wakes);
  h.add(vm.wakeup_latency_us);
  h.add(static_cast<std::uint64_t>(vm.wakeup_latency_hist_us.buckets().size()));
  for (const std::uint64_t b : vm.wakeup_latency_hist_us.buckets()) h.add(b);
  h.add(vm.io_errors);
  h.add(vm.steal_time.nanoseconds());
  h.add(vm.steal_estimate ? vm.steal_estimate->nanoseconds() : std::int64_t{-1});
}

void hash_result(Hasher& h, const metrics::RunResult& r) {
  h.add(r.wall.nanoseconds());
  for (std::size_t c = 0; c < hw::kCycleCategoryCount; ++c) {
    h.add(r.cycles.total(static_cast<hw::CycleCategory>(c)).count());
  }
  h.add(r.exits_total);
  h.add(r.exits_timer_related);
  for (const std::uint64_t n : r.exits_by_cause) h.add(n);
  h.add(static_cast<std::uint64_t>(r.vms.size()));
  for (const metrics::VmResult& vm : r.vms) hash_vm(h, vm);
  h.add(r.events_executed);
  const auto& f = r.faults;
  for (const std::uint64_t n :
       {f.timer_dropped, f.timer_delayed, f.timer_coalesced, f.io_errors, f.io_spikes,
        f.steal_bursts, f.ticks_delayed, f.softirq_spurious, f.softirq_dropped}) {
    h.add(n);
  }
  h.add(r.events_scheduled);
  h.add(r.events_cancelled);
  h.add(r.callback_spills);
  h.add(r.callback_spill_bytes);
  h.add(r.slot_high_water);
  h.add(r.queue_compactions);
  h.add(r.par_windows);
  h.add(r.par_windows_skipped);
  h.add(r.par_barriers_elided);
  h.add(r.par_horizon_max_ns);
}

}  // namespace

// ---- Names ----

const char* name(Workload w) {
  switch (w) {
    case Workload::kParsecMt: return "parsec_mt";
    case Workload::kTimerIo: return "timer_io";
    case Workload::kClusterOc: return "cluster_oc";
  }
  return "?";
}

std::optional<Workload> workload_from_name(std::string_view text) {
  for (const Workload w : kWorkloads) {
    if (text == name(w)) return w;
  }
  return std::nullopt;
}

const char* name(EventClass c) {
  switch (c) {
    case EventClass::kTimerExit: return "timer-exit";
    case EventClass::kHaltExit: return "halt-exit";
    case EventClass::kIoExit: return "io-exit";
    case EventClass::kIpiExit: return "ipi-exit";
    case EventClass::kOtherExit: return "other-exit";
    case EventClass::kNoExit: return "no-exit";
    case EventClass::kCount: break;
  }
  return "?";
}

// ---- Totals ----

void EventTotals::merge(const EventTotals& o) {
  for (std::size_t i = 0; i < kEventClassCount; ++i) {
    events[i] += o.events[i];
    ns[i] += o.ns[i];
  }
}

void LayerTotals::merge(const LayerTotals& o) {
  construct_s += o.construct_s;
  install_s += o.install_s;
  power_on_s += o.power_on_s;
  run_s += o.run_s;
  collect_s += o.collect_s;
  construct_allocs += o.construct_allocs;
  run_allocs += o.run_allocs;
  collect_allocs += o.collect_allocs;
  par_run_s += o.par_run_s;
  par_windows += o.par_windows;
  par_windows_skipped += o.par_windows_skipped;
  par_barriers_elided += o.par_barriers_elided;
  par_cross_messages += o.par_cross_messages;
  par_events += o.par_events;
  migrations += o.migrations;
  rebalance_rounds += o.rebalance_rounds;
  events.merge(o.events);
}

// ---- Trace ----

void TraceSink::add(std::vector<Span> spans) {
  std::scoped_lock lock(mu_);
  for (Span& s : spans) {
    if (s.cat == "phase" || spans_.size() < kMaxSpans) spans_.push_back(std::move(s));
  }
}

std::string TraceSink::to_json() const {
  std::scoped_lock lock(mu_);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"paratick perfbench\"}}";
  for (const Span& s : spans_) {
    // Names and labels are built by this file: no characters need escaping.
    out += metrics::format(
        ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
        "\"dur\": %.3f, \"pid\": 1, \"tid\": %d",
        s.name.c_str(), s.cat.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.dur_ns) / 1e3, s.tid);
    if (!s.run.empty()) out += ", \"args\": {\"run\": \"" + s.run + "\"}";
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

PassResult run_pass(Workload w, std::uint64_t seed, TraceSink* sink,
                    unsigned engine_threads) {
  Probe probe(sink);
  PassResult out;
  const std::uint64_t allocs0 = alloc::sum(alloc::total_counts());
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  for (NamedSweep& s : make_sweeps(w, seed, probe, engine_threads)) {
    core::SweepResult res = core::SweepRunner(std::move(s.cfg)).run();
    const std::uint64_t e0 = now_ns();
    std::string csv = res.to_csv();
    const std::string json = res.to_json();
    out.export_s += seconds(now_ns() - e0);
    out.csv.emplace(s.name, std::move(csv));
    out.sweeps.emplace_back(std::move(s.name), std::move(res));
  }
  out.wall_s = seconds(now_ns() - t0);
  out.cpu_s = cpu_seconds() - cpu0;
  out.allocs = alloc::sum(alloc::total_counts()) - allocs0;
  out.layers = probe.totals();

  const std::map<std::uint64_t, std::uint64_t> cluster_digests = probe.cluster_digests();
  std::uint64_t digest = 0x70657266ull;  // "perf"
  for (const auto& [sweep_name, res] : out.sweeps) {
    out.runs += res.executed_run_count();
    out.runs_failed += res.failed_runs().size();
    digest = digest_runs(res, cluster_digests, digest);

    std::vector<std::string> failures = check_runs_ok(res);
    for (std::string& f : check_paratick_guarantee(res)) failures.push_back(std::move(f));
    if (sweep_name == "table1") {
      for (std::string& f : check_table1_periodic(res)) failures.push_back(std::move(f));
    }
    for (std::string& f : failures) {
      out.check_failures.push_back(sweep_name + ": " + std::move(f));
    }
  }
  out.digest = digest;
  return out;
}

// ---- Checks ----

bool same_cell_but_mode(const core::SweepCellKey& a, const core::SweepCellKey& b) {
  return a.variant == b.variant && a.tick_freq_hz == b.tick_freq_hz &&
         a.vcpus == b.vcpus && a.overcommit == b.overcommit;
}

std::vector<std::string> check_paratick_guarantee(const core::SweepResult& res) {
  std::vector<std::string> out;
  for (const core::SweepCellSummary& base : res.cells) {
    if (base.key.mode != guest::TickMode::kDynticksIdle) continue;
    for (const core::SweepCellSummary& treat : res.cells) {
      if (treat.key.mode != guest::TickMode::kParatick ||
          !same_cell_but_mode(base.key, treat.key)) {
        continue;
      }
      if (treat.exits_timer.mean() > base.exits_timer.mean()) {
        out.push_back(metrics::format(
            "section 4.2 violated in %s: paratick %.0f timer exits > dynticks %.0f",
            treat.key.label().c_str(), treat.exits_timer.mean(),
            base.exits_timer.mean()));
      }
    }
  }
  return out;
}

std::vector<std::string> check_table1_periodic(const core::SweepResult& res) {
  std::vector<std::string> out;
  for (const auto& [variant, expected] :
       {std::pair{"W1", std::uint64_t{40000}}, std::pair{"W2", std::uint64_t{160000}}}) {
    const core::SweepCellSummary* cell = res.find(variant, guest::TickMode::kPeriodic);
    if (cell == nullptr || cell->exits_timer.count() == 0) {
      out.push_back(metrics::format("Table 1 %s periodic cell missing", variant));
      continue;
    }
    const metrics::RunResult& r = cell->first;
    const std::uint64_t host_ticks =
        r.exits_by_cause[static_cast<std::size_t>(hw::ExitCause::kHostTick)];
    const std::uint64_t guest_timer = r.exits_timer_related - host_ticks;
    if (guest_timer != expected) {
      out.push_back(metrics::format(
          "Table 1 %s periodic: %llu guest timer exits, expected %llu", variant,
          static_cast<unsigned long long>(guest_timer),
          static_cast<unsigned long long>(expected)));
    }
  }
  return out;
}

std::vector<std::string> check_runs_ok(const core::SweepResult& res) {
  std::vector<std::string> out;
  for (const core::SweepRun& r : res.runs) {
    if (!r.executed) {
      out.push_back(metrics::format("run %zu not executed", r.run_index));
    } else if (!r.ok) {
      out.push_back(metrics::format(
          "run %zu failed (%s): %s", r.run_index,
          r.failure ? core::RunFailure::kind_name(r.failure->kind) : "?",
          r.failure ? r.failure->message.c_str() : ""));
    }
  }
  return out;
}

std::uint64_t digest_runs(const core::SweepResult& res,
                          const std::map<std::uint64_t, std::uint64_t>& cluster_digests,
                          std::uint64_t seed) {
  Hasher h(seed);
  h.add(static_cast<std::uint64_t>(res.runs.size()));
  for (const core::SweepRun& r : res.runs) {
    h.add(static_cast<std::uint64_t>(r.run_index));
    h.add(r.seed);
    h.add(static_cast<std::uint64_t>(r.executed && r.ok));
    if (!r.executed) continue;
    if (!r.ok) {
      h.add(r.failure ? r.failure->message : std::string{});
      continue;
    }
    hash_result(h, r.result);
    const auto it = cluster_digests.find(r.seed);
    if (it != cluster_digests.end()) h.add(it->second);
  }
  return h.value();
}

}  // namespace perfbench
