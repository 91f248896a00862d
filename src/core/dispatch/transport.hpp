// Worker transport: how the dispatcher starts a live worker process that
// takes `#run N` assignments on its control line and streams the dispatch
// protocol back. ForkWorkerTransport is the one real launcher: fork()
// without exec, so the worker shares the coordinator's in-process
// SweepConfig, closures and all — zero serialization, full crash
// isolation, and no way for the two to disagree about the plan. The
// WorkerTransport interface exists so tests can plug in fake workers that
// misbehave on purpose.
#pragma once

#include <sys/types.h>

#include "core/dispatch/worker.hpp"
#include "core/run_record.hpp"

namespace paratick::core::dispatch {

/// A launched worker as the coordinator sees it.
struct WorkerProcess {
  pid_t pid = -1;
  int out_fd = -1;  // read end of the worker's protocol stream
  int ctl_fd = -1;  // write end of the worker's control line (#run N)
};

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;
  /// The sweep identity this transport's workers execute.
  [[nodiscard]] virtual PlanInfo plan() = 0;
  /// Launch one worker that serves assignments until its control line
  /// reaches EOF. PARATICK_CHECKs (throws sim::SimError) if the process
  /// cannot be created at all; a worker that launches but misbehaves is
  /// the dispatcher's problem.
  [[nodiscard]] virtual WorkerProcess launch() = 0;
};

/// fork()-without-exec workers sharing the coordinator's SweepConfig.
class ForkWorkerTransport final : public WorkerTransport {
 public:
  explicit ForkWorkerTransport(SweepConfig cfg);

  [[nodiscard]] PlanInfo plan() override;
  [[nodiscard]] WorkerProcess launch() override;

 private:
  SweepConfig cfg_;
};

}  // namespace paratick::core::dispatch
