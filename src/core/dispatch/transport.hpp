// Worker transports: how the dispatcher turns "execute these run indices"
// into a live worker process streaming the dispatch protocol.
//
// Two implementations cover the fleet shapes this repo cares about:
//
//   ForkWorkerTransport     fork() without exec — the worker shares the
//                           coordinator's in-process SweepConfig, closures
//                           and all. Default for a bench's --dispatch mode
//                           and the unit tests: zero serialization, full
//                           crash isolation.
//   CommandWorkerTransport  fork()+exec of a bench command line with the
//                           hidden worker flags appended; the worker
//                           rebuilds the plan from its own argv (validated
//                           against the coordinator's via the #plan
//                           header). An optional shell template ("ssh
//                           hostN {cmd}") wraps the command, which is how
//                           the sweep_dispatch tool reaches remote hosts
//                           or a job queue without this repo growing an
//                           ssh dependency.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "core/dispatch/protocol.hpp"
#include "core/dispatch/worker.hpp"

namespace paratick::core::dispatch {

/// A launched worker as the coordinator sees it.
struct WorkerProcess {
  pid_t pid = -1;
  int out_fd = -1;  // read end of the worker's protocol stream
  int ctl_fd = -1;  // write end of the #limit control line; -1 = none
};

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// The sweep identity this transport's workers execute. Every launched
  /// worker's #plan header must match it (the coordinator enforces this).
  [[nodiscard]] virtual PlanInfo plan() = 0;
  /// Launch one worker on `indices`, executed in the given order.
  /// PARATICK_CHECKs (throws sim::SimError) if the process cannot be
  /// created at all; a worker that launches but misbehaves is the
  /// dispatcher's problem.
  [[nodiscard]] virtual WorkerProcess launch(
      const std::vector<std::size_t>& indices) = 0;
};

/// fork()-without-exec workers sharing the coordinator's SweepConfig.
class ForkWorkerTransport final : public WorkerTransport {
 public:
  explicit ForkWorkerTransport(SweepConfig cfg);

  [[nodiscard]] const char* name() const override { return "fork"; }
  [[nodiscard]] PlanInfo plan() override;
  [[nodiscard]] WorkerProcess launch(
      const std::vector<std::size_t>& indices) override;

 private:
  SweepConfig cfg_;
};

/// fork()+exec workers built from a bench command line. The plan is
/// probed once by running `base_cmd --worker-plan` and parsing its #plan
/// header — the only way a standalone dispatcher can learn a grid whose
/// variants are C++ closures living inside the bench binary.
class CommandWorkerTransport final : public WorkerTransport {
 public:
  /// shell_template: "" = exec base_cmd directly; otherwise a /bin/sh -c
  /// command line with "{cmd}" replaced by the shell-quoted worker
  /// command (e.g. "ssh -T worker3 {cmd}").
  explicit CommandWorkerTransport(std::vector<std::string> base_cmd,
                                  std::string shell_template = "");

  [[nodiscard]] const char* name() const override { return "command"; }
  [[nodiscard]] PlanInfo plan() override;
  [[nodiscard]] WorkerProcess launch(
      const std::vector<std::size_t>& indices) override;

 private:
  [[nodiscard]] WorkerProcess spawn(const std::vector<std::string>& extra,
                                    bool want_ctl) const;

  std::vector<std::string> base_cmd_;
  std::string shell_template_;
  bool plan_probed_ = false;
  PlanInfo plan_;
};

}  // namespace paratick::core::dispatch
