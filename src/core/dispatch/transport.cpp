#include "core/dispatch/transport.hpp"

#include <unistd.h>

#include <cstdlib>
#include <utility>

#include "sim/check.hpp"

namespace paratick::core::dispatch {

ForkWorkerTransport::ForkWorkerTransport(SweepConfig cfg)
    : cfg_(std::move(cfg)) {
  // Workers must not interleave per-run progress lines with the
  // coordinator's own; the dispatcher reports progress itself.
  cfg_.progress = false;
}

PlanInfo ForkWorkerTransport::plan() { return plan_info_for(cfg_); }

WorkerProcess ForkWorkerTransport::launch() {
  int out_fds[2];
  int ctl_fds[2];
  PARATICK_CHECK_MSG(::pipe(out_fds) == 0, "dispatch: pipe() failed");
  if (::pipe(ctl_fds) != 0) {
    ::close(out_fds[0]);
    ::close(out_fds[1]);
    PARATICK_CHECK_MSG(false, "dispatch: pipe() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {out_fds[0], out_fds[1], ctl_fds[0], ctl_fds[1]}) {
      ::close(fd);
    }
    PARATICK_CHECK_MSG(false, "dispatch: fork() failed");
  }
  if (pid == 0) {
    ::close(out_fds[0]);
    ::close(ctl_fds[1]);
    // Nothing may unwind out of the child into the coordinator frames it
    // was forked from; a malformed assignment exits 2.
    int rc = 2;
    try {
      rc = run_worker(cfg_, ctl_fds[0], out_fds[1]);
    } catch (...) {
    }
    // _Exit: no destructors, no atexit — the coordinator holds the real
    // state, and flushing shared stdio buffers would duplicate output.
    std::_Exit(rc);
  }
  ::close(out_fds[1]);
  ::close(ctl_fds[0]);
  return {pid, out_fds[0], ctl_fds[1]};
}

}  // namespace paratick::core::dispatch
