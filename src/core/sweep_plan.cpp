#include "core/sweep_plan.hpp"

#include <cmath>
#include <utility>

#include "core/record_replay/record_replay.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core {

namespace {

int effective_copies(const ExperimentSpec& exp) {
  return exp.scenario.effective_copies();
}

/// Materialize the ExperimentSpec for one cell: variant first, then the
/// numeric axes override whatever the variant left in place.
ExperimentSpec materialize(const SweepConfig& cfg, const SweepVariant& variant,
                           bool freq_axis, double freq_hz, bool vcpu_axis,
                           int vcpus, bool oc_axis, double overcommit) {
  ExperimentSpec spec = cfg.base;
  if (variant.apply) variant.apply(spec);
  if (freq_axis) spec.guest_tick_freq = sim::Frequency{freq_hz};
  if (vcpu_axis) spec.vcpus = vcpus;
  if (oc_axis) {
    PARATICK_CHECK_MSG(overcommit > 0.0, "overcommit ratio must be > 0");
    const double total =
        static_cast<double>(spec.vcpus) * effective_copies(spec);
    const auto pcpus = static_cast<std::uint32_t>(
        std::max<long long>(1, std::llround(total / overcommit)));
    spec.machine = hw::MachineSpec::small(pcpus);
  }
  return spec;
}

}  // namespace

std::string failure_artifact_stem(const SweepConfig& cfg, std::size_t run_index) {
  std::string stem =
      cfg.failure_dir + "/" + (cfg.bench_name.empty() ? "sweep" : cfg.bench_name);
  if (!cfg.scenario.empty()) stem += "/" + cfg.scenario;
  return stem + metrics::format("/run%llu",
                                static_cast<unsigned long long>(run_index));
}

SweepPlan SweepPlan::make(SweepConfig cfg) {
  PARATICK_CHECK_MSG(cfg.repeat >= 1, "sweep repeat must be >= 1");
  PARATICK_CHECK_MSG(cfg.observer == nullptr || !cfg.record_trace,
                     "SweepConfig::observer and record_trace both attach an "
                     "engine observer; set one");
  SweepPlan plan;
  Grid& g = plan.grid_;
  g.variants = cfg.variants.empty()
                   ? std::vector<SweepVariant>{{std::string{}, nullptr}}
                   : cfg.variants;
  g.modes = cfg.modes;
  PARATICK_CHECK_MSG(!g.modes.empty(), "sweep needs at least one tick mode");
  g.freq_axis = !cfg.tick_freqs_hz.empty();
  g.vcpu_axis = !cfg.vcpu_counts.empty();
  g.oc_axis = !cfg.overcommit.empty();
  g.freqs = g.freq_axis ? cfg.tick_freqs_hz
                        : std::vector<double>{cfg.base.guest_tick_freq.hertz()};
  g.vcpus = g.vcpu_axis ? cfg.vcpu_counts : std::vector<int>{cfg.base.vcpus};
  g.overcommit = g.oc_axis ? cfg.overcommit : std::vector<double>{0.0};
  plan.cfg_ = std::move(cfg);

  // Cell expansion order is the public contract: variants, then modes, then
  // tick freqs, then vcpus, then overcommit, innermost last.
  for (const auto& variant : g.variants) {
    for (const auto mode : g.modes) {
      for (const double freq : g.freqs) {
        for (const int vc : g.vcpus) {
          for (const double oc : g.overcommit) {
            const ExperimentSpec spec =
                materialize(plan.cfg_, variant, g.freq_axis, freq, g.vcpu_axis,
                            vc, g.oc_axis, oc);
            SweepCellKey key;
            key.variant = variant.name;
            key.mode = mode;
            key.tick_freq_hz = spec.guest_tick_freq.hertz();
            key.vcpus = spec.vcpus;
            key.overcommit = static_cast<double>(spec.vcpus) *
                             effective_copies(spec) /
                             spec.machine.total_cpus();
            plan.keys_.push_back(std::move(key));
          }
        }
      }
    }
  }
  return plan;
}

SweepWorkItem SweepPlan::item(std::size_t run_index) const {
  PARATICK_CHECK_MSG(run_index < total_runs(), "work item index out of range");
  const auto repeat = static_cast<std::size_t>(cfg_.repeat);
  SweepWorkItem w;
  w.run_index = run_index;
  w.cell = run_index / repeat;
  w.replica = static_cast<int>(run_index % repeat);
  w.seed = derive_seed(cfg_.root_seed, run_index);
  return w;
}

ExperimentSpec SweepPlan::spec_for_cell(std::size_t cell) const {
  const Grid& g = grid_;
  // Decompose the cell index along the axes, innermost (overcommit) first —
  // must match the nested-loop expansion order in make().
  std::size_t c = cell;
  const std::size_t oc_i = c % g.overcommit.size();
  c /= g.overcommit.size();
  const std::size_t vc_i = c % g.vcpus.size();
  c /= g.vcpus.size();
  const std::size_t f_i = c % g.freqs.size();
  c /= g.freqs.size();
  c /= g.modes.size();  // mode does not shape the spec, only the policy
  return materialize(cfg_, g.variants[c], g.freq_axis, g.freqs[f_i],
                     g.vcpu_axis, g.vcpus[vc_i], g.oc_axis, g.overcommit[oc_i]);
}

SweepRun SweepPlan::execute(std::size_t run_index) const {
  const SweepWorkItem w = item(run_index);
  SweepRun out;
  out.run_index = w.run_index;
  out.cell = w.cell;
  out.replica = w.replica;
  out.seed = w.seed;
  out.executed = true;

  const std::size_t mode_i =
      out.cell / grid_.overcommit.size() / grid_.vcpus.size() /
      grid_.freqs.size() % grid_.modes.size();

  ExperimentSpec spec = spec_for_cell(out.cell);
  // Seeds depend only on (root_seed, run index): bit-identical results
  // for any thread count or schedule.
  spec.guest_seed = w.seed;
  spec.host.seed = derive_seed(w.seed, 0x686f7374);  // independent host stream
  if (cfg_.fault.any()) spec.fault = cfg_.fault;
  spec.fault_seed = derive_seed(w.seed, 0x6661756c);  // independent fault plan
  if (cfg_.run_timeout_sec > 0.0) spec.wall_limit_sec = cfg_.run_timeout_sec;

  // Trace recording hooks the run's own engine, so each pool thread
  // produces its run's trace in-process.
  record_replay::TraceRecorder recorder;
  if (cfg_.record_trace) {
    spec.observer = &recorder;
  } else if (cfg_.observer != nullptr) {
    spec.observer = cfg_.observer;
  }

  try {
    out.result = run_mode(spec, grid_.modes[mode_i]);
    out.ok = true;
  } catch (const sim::SimError& e) {
    out.ok = false;
    RunFailure f;
    switch (e.kind()) {
      case sim::SimError::Kind::kCheck: f.kind = RunFailure::Kind::kCheck; break;
      case sim::SimError::Kind::kWatchdog: f.kind = RunFailure::Kind::kWatchdog; break;
      case sim::SimError::Kind::kTimeout: f.kind = RunFailure::Kind::kTimeout; break;
      case sim::SimError::Kind::kDivergence: f.kind = RunFailure::Kind::kDivergence; break;
    }
    f.expr = e.expr();
    f.file = e.file();
    f.line = e.line();
    f.message = e.msg();
    if (e.sim_time()) f.sim_time_ns = e.sim_time()->nanoseconds();
    f.events_executed = e.events_executed();
    out.failure = std::move(f);
  } catch (const std::exception& e) {
    out.ok = false;
    RunFailure f;
    f.kind = RunFailure::Kind::kException;
    f.message = e.what();
    out.failure = std::move(f);
  }

  // Persist failed runs' traces next to where their replay bundles go.
  // Written here, on the thread that ran it, while the trace is still in
  // hand.
  if (cfg_.record_trace && !out.ok && !cfg_.failure_dir.empty()) {
    out.trace_path = record_replay::write_trace_file(
        recorder.trace(), failure_artifact_stem(cfg_, out.run_index) + ".trace");
  }
  return out;
}

}  // namespace paratick::core
