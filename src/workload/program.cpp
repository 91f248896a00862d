#include "workload/program.hpp"

#include <utility>

#include "sim/check.hpp"

namespace paratick::workload {

std::int64_t Program::mean_compute_cycles_per_iteration() const {
  std::int64_t sum = 0;
  for (const auto& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kCompute:
      case Op::Kind::kComputeExp:
      case Op::Kind::kComputeNorm:
        sum += op.cycles;
        break;
      default:
        break;
    }
  }
  return sum;
}

namespace {

/// Interpreter state, owned by the task body. Each call runs the program
/// up to its next op, issues it and returns; the op's completion calls
/// step() again.
struct Interp {
  /// Where a kCritical op is: lock -> hold -> unlock, one step each.
  enum class Critical : std::uint8_t { kOff, kLocked, kHeld };

  Program program;
  std::size_t pc = 0;
  int iteration = 0;
  Critical critical = Critical::kOff;
  int critical_lock = 0;

  void step(guest::TaskApi& api) {
    switch (critical) {
      case Critical::kOff:
        break;
      case Critical::kLocked:
        critical = Critical::kHeld;
        api.compute(sim::Cycles{program.ops()[pc - 1].cycles});
        return;
      case Critical::kHeld:
        critical = Critical::kOff;
        api.mutex_unlock(critical_lock);
        return;
    }
    for (;;) {
      if (pc >= program.ops().size()) {
        pc = 0;
        if (++iteration >= program.repeat_count()) {
          api.finish();
          return;
        }
      }
      const Op& op = program.ops()[pc++];
      // A probability-gated op that does not fire this iteration.
      if (op.prob < 1.0 && !api.rng().bernoulli(op.prob)) continue;

      switch (op.kind) {
        case Op::Kind::kCompute:
          api.compute(sim::Cycles{op.cycles});
          return;
        case Op::Kind::kComputeExp: {
          const double c = api.rng().exponential(static_cast<double>(op.cycles));
          api.compute(sim::Cycles{static_cast<std::int64_t>(c) + 1});
          return;
        }
        case Op::Kind::kComputeNorm: {
          const double mean = static_cast<double>(op.cycles);
          const double c = api.rng().normal(mean, mean * op.cv, 1.0);
          api.compute(sim::Cycles{static_cast<std::int64_t>(c)});
          return;
        }
        case Op::Kind::kBarrier:
          api.barrier_wait(op.sync_id);
          return;
        case Op::Kind::kSemWait:
          api.sem_wait(op.sync_id);
          return;
        case Op::Kind::kSemPost:
          api.sem_post(op.sync_id);
          return;
        case Op::Kind::kCritical:
          critical_lock = static_cast<int>(api.rng().uniform_int(0, op.sync_id - 1));
          critical = Critical::kLocked;
          api.mutex_lock(critical_lock);
          return;
        case Op::Kind::kLock:
          api.mutex_lock(op.sync_id);
          return;
        case Op::Kind::kUnlock:
          api.mutex_unlock(op.sync_id);
          return;
        case Op::Kind::kIo:
          api.sync_io(op.io);
          return;
        case Op::Kind::kSleep:
          api.sleep_for(op.duration);
          return;
        case Op::Kind::kSleepExp:
          api.sleep_for(api.rng().exp_time(op.duration));
          return;
        case Op::Kind::kFault:
          api.background_fault();
          return;
      }
      PARATICK_CHECK_MSG(false, "unknown op kind");
    }
  }
};

}  // namespace

std::function<void(guest::TaskApi&)> make_task_body(Program program) {
  PARATICK_CHECK_MSG(!program.empty(), "empty workload program");
  return [interp = Interp{std::move(program)}](guest::TaskApi& api) mutable {
    interp.step(api);
  };
}

}  // namespace paratick::workload
