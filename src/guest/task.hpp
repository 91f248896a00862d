// Guest tasks and the syscall-ish API workload code runs against.
//
// A task body is a resumable step: the kernel calls it whenever the task
// runs again (first dispatch, after each op completes, after a wake or a
// preemption), and each call issues at most one TaskApi op — or finishes
// the task — and returns. The body keeps its own progress (a program
// counter), so ops take no continuation. The guest kernel schedules tasks
// onto vCPUs, blocks them on sync/I/O/timers and wakes them from interrupt
// handlers — generating exactly the idle-transition patterns whose cost
// the paper studies.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "hw/block_device.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace paratick::guest {

class GuestCpu;

/// The ops a task body may issue, bound to the vCPU the task runs on.
/// Every op except finish() ends by re-entering the task's body.
class TaskApi {
 public:
  explicit TaskApi(GuestCpu& cpu) : cpu_(cpu) {}

  [[nodiscard]] sim::SimTime now() const;
  [[nodiscard]] sim::Rng& rng();

  /// Burn `c` user cycles (the task may be preempted at the boundary).
  void compute(sim::Cycles c);

  /// Blocking barrier (futex-based, like pthread_barrier_wait).
  void barrier_wait(int barrier_id);

  /// Blocking mutex with an adaptive spin before sleeping.
  void mutex_lock(int mutex_id);
  void mutex_unlock(int mutex_id);

  /// Counting semaphore (producer/consumer queues, condvar-style waits).
  void sem_wait(int sem_id);
  void sem_post(int sem_id);

  /// Synchronous block I/O: submit and sleep until the completion irq.
  void sync_io(const hw::IoRequest& req);

  /// Sleep for `d`: until the exact deadline if `d` is under four
  /// ticks, else until the first jiffy boundary at or after it.
  void sleep_for(sim::SimTime d);

  /// Model a non-timer VM exit (page fault etc.) on this task's path.
  void background_fault();

  /// Task is finished; its body is never called again.
  void finish();

 private:
  GuestCpu& cpu_;
};

struct GuestTask {
  enum class State : std::uint8_t { kRunnable, kRunning, kBlocked, kDone };

  int id = 0;
  int home_cpu = 0;
  State state = State::kRunnable;
  /// A wake arrived while the task was still on its way to sleep (the
  /// futex "value changed before sleeping" case): the next block_current
  /// consumes it and continues without blocking.
  bool wake_pending = false;
  /// The task's one resume entry, called each time it runs again.
  std::function<void(TaskApi&)> body;

  /// Per-task random stream: draws are identical across tick modes no
  /// matter how scheduling interleaves, keeping A/B comparisons exact.
  std::optional<sim::Rng> rng;

  // statistics
  std::uint64_t blocks = 0;
  std::uint64_t wakes = 0;
  sim::SimTime finished_at;
  // wake-to-run latency measurement (the §4.2 critical-path quantity)
  sim::SimTime woken_at;
  bool measure_wake = false;
};

}  // namespace paratick::guest
