// A small op language for workload behaviour, plus an interpreter that
// turns a Program into a guest task body.
//
// Workload models only need to reproduce the *timer-relevant* behaviour
// of the paper's benchmarks: compute-burst lengths, blocking-sync rates,
// I/O blocking patterns. A Program is a loopable list of such ops.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "guest/task.hpp"
#include "hw/block_device.hpp"
#include "sim/types.hpp"

namespace paratick::workload {

struct Op {
  enum class Kind : std::uint8_t {
    kCompute,     // fixed-length burst
    kComputeExp,  // exponentially distributed burst (mean = cycles)
    kComputeNorm, // normal burst (mean = cycles, stddev = cycles * cv)
    kBarrier,     // blocking barrier (sync_id)
    kLock,        // mutex acquire (sync_id)
    kUnlock,      // mutex release (sync_id)
    kCritical,    // lock a random mutex in [0, sync_id), hold `cycles`, unlock
    kSemWait,     // semaphore wait (sync_id)
    kSemPost,     // semaphore post (sync_id)
    kIo,          // synchronous block I/O
    kSleep,       // timed sleep
    kSleepExp,    // exponentially distributed sleep (mean = duration)
    kFault,       // background VM exit (page fault / cpuid noise)
  };

  Kind kind = Kind::kCompute;
  std::int64_t cycles = 0;
  double cv = 0.0;
  int sync_id = 0;
  hw::IoRequest io;
  sim::SimTime duration;
  /// Execute the op with this probability per iteration (1 = always).
  double prob = 1.0;
};

class Program {
 public:
  /// Room for `n` ops, so a builder that knows its op count allocates the
  /// list once instead of growing it one push at a time.
  Program& reserve(std::size_t n) {
    ops_.reserve(n);
    return *this;
  }
  Program& compute(std::int64_t cycles) {
    ops_.push_back({Op::Kind::kCompute, cycles, 0.0, 0, {}, {}});
    return *this;
  }
  Program& compute_exp(std::int64_t mean_cycles) {
    ops_.push_back({Op::Kind::kComputeExp, mean_cycles, 0.0, 0, {}, {}});
    return *this;
  }
  Program& compute_norm(std::int64_t mean_cycles, double cv) {
    ops_.push_back({Op::Kind::kComputeNorm, mean_cycles, cv, 0, {}, {}});
    return *this;
  }
  Program& barrier(int id) {
    ops_.push_back({Op::Kind::kBarrier, 0, 0.0, id, {}, {}});
    return *this;
  }
  Program& lock(int id) {
    ops_.push_back({Op::Kind::kLock, 0, 0.0, id, {}, {}});
    return *this;
  }
  Program& unlock(int id) {
    ops_.push_back({Op::Kind::kUnlock, 0, 0.0, id, {}, {}});
    return *this;
  }
  /// Contended critical section: a uniformly random lock out of
  /// `hot_locks`, held for `hold_cycles`.
  Program& critical(int hot_locks, std::int64_t hold_cycles) {
    ops_.push_back({Op::Kind::kCritical, hold_cycles, 0.0, hot_locks, {}, {}});
    return *this;
  }
  Program& sem_wait(int id) {
    ops_.push_back({Op::Kind::kSemWait, 0, 0.0, id, {}, {}});
    return *this;
  }
  Program& sem_post(int id) {
    ops_.push_back({Op::Kind::kSemPost, 0, 0.0, id, {}, {}});
    return *this;
  }
  Program& io(const hw::IoRequest& req, double prob = 1.0) {
    ops_.push_back({Op::Kind::kIo, 0, 0.0, 0, req, {}, prob});
    return *this;
  }
  Program& sleep(sim::SimTime d) {
    ops_.push_back({Op::Kind::kSleep, 0, 0.0, 0, {}, d});
    return *this;
  }
  /// Poisson-process style wait: sleep for an Exp(mean = d) duration.
  Program& sleep_exp(sim::SimTime d) {
    ops_.push_back({Op::Kind::kSleepExp, 0, 0.0, 0, {}, d});
    return *this;
  }
  Program& fault(double prob = 1.0) {
    ops_.push_back({Op::Kind::kFault, 0, 0.0, 0, {}, {}, prob});
    return *this;
  }
  Program& repeat(int n) {
    repeat_ = n;
    return *this;
  }

  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }
  [[nodiscard]] int repeat_count() const { return repeat_; }
  [[nodiscard]] bool empty() const { return ops_.empty(); }

  /// Sum of deterministic + mean compute cycles over one iteration.
  [[nodiscard]] std::int64_t mean_compute_cycles_per_iteration() const;

 private:
  std::vector<Op> ops_;
  int repeat_ = 1;
};

/// Compile a Program into a task body for GuestKernel::add_task.
[[nodiscard]] std::function<void(guest::TaskApi&)> make_task_body(Program program);

}  // namespace paratick::workload
