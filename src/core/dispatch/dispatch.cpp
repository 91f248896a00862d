#include "core/dispatch/dispatch.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dispatch/protocol.hpp"
#include "core/experiment.hpp"
#include "core/run_record.hpp"
#include "core/safe_io.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core::dispatch {

namespace {

double monotonic_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The whole coordinator lives in one stack object so that any exception
/// unwinding out of run() reaps every child on the way.
class Coordinator {
 public:
  Coordinator(WorkerTransport& transport, const DispatchOptions& opts,
              DispatchStats& stats)
      : transport_(transport), opts_(opts), stats_(stats) {
    workers_ = opts_.workers != 0
                   ? opts_.workers
                   : std::max(1u, std::thread::hardware_concurrency());
  }

  ~Coordinator() {
    for (Active& w : active_) {
      if (w.proc.pid > 0) ::kill(w.proc.pid, SIGKILL);
      reap(w);
    }
  }

  SweepResult run(const std::optional<std::vector<std::size_t>>& subset) {
    // Assigning a run to a worker that died must not kill the coordinator.
    ::signal(SIGPIPE, SIG_IGN);

    const double start = monotonic_sec();
    plan_ = transport_.plan();
    const std::size_t total = plan_.total_runs;

    runs_.resize(total);
    stamp_identities();
    if (subset) {
      for (const std::size_t idx : *subset) {
        PARATICK_CHECK_MSG(idx < total,
                           "dispatch: run index outside the plan");
      }
      todo_ = *subset;
      std::sort(todo_.begin(), todo_.end());
      todo_.erase(std::unique(todo_.begin(), todo_.end()), todo_.end());
    } else {
      for (std::size_t i = 0; i < total; ++i) todo_.push_back(i);
    }

    // A run is pending, held by exactly one worker, or done: while any is
    // not done, some worker is alive.
    while (done_count_ < todo_.size()) {
      assign_work(monotonic_sec());
      poll_workers(monotonic_sec());
      expire_leases(monotonic_sec());
    }

    // Every wanted run is in and no worker holds an assignment: EOF on the
    // control lines tells the idle workers to exit.
    for (Active& w : active_) {
      ::close(w.proc.ctl_fd);
      w.proc.ctl_fd = -1;
    }
    while (!active_.empty()) {
      poll_workers(monotonic_sec());
      expire_leases(monotonic_sec());
    }

    SweepResult res;
    res.backend_name = "dispatch";
    res.threads_used = workers_;
    res.runs = std::move(runs_);
    aggregate_sweep_runs(res, plan_.cells);
    res.wall_seconds = monotonic_sec() - start;
    return res;
  }

 private:
  struct Active {
    WorkerProcess proc;
    std::optional<std::size_t> assigned;  // the one run it holds
    std::string buf;                      // partial protocol line
    double last_activity = 0.0;
    std::string killed;  // why the coordinator killed it; "" = it did not
    int status = 0;      // waitpid status, valid after reap()
  };

  void note(const char* fmt, ...) const __attribute__((format(printf, 2, 3))) {
    if (!opts_.progress) return;
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "dispatch: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

  void stamp_identities() {
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      SweepRun& r = runs_[i];
      r.run_index = i;
      r.cell = i / static_cast<std::size_t>(plan_.repeat);
      r.replica = static_cast<int>(i % static_cast<std::size_t>(plan_.repeat));
      r.seed = derive_seed(plan_.root_seed, i);
    }
  }

  std::optional<std::size_t> take_next() {
    if (next_ == todo_.size()) return std::nullopt;
    return todo_[next_++];
  }

  /// Hand every idle worker its next run, then launch workers for runs
  /// nobody could take. Each launch comes with a run, so no more workers
  /// start than there are runs left.
  void assign_work(double now) {
    for (Active& w : active_) {
      if (w.assigned || !w.killed.empty()) continue;
      const std::optional<std::size_t> idx = take_next();
      if (!idx) return;
      assign(w, *idx);
    }
    while (active_.size() < workers_) {
      const std::optional<std::size_t> idx = take_next();
      if (!idx) return;
      Active w;
      w.proc = transport_.launch();
      w.last_activity = now;
      ++stats_.workers_launched;
      note("worker %d launched", static_cast<int>(w.proc.pid));
      active_.push_back(std::move(w));
      assign(active_.back(), *idx);
    }
  }

  void assign(Active& w, std::size_t idx) {
    w.assigned = idx;
    const std::string line = assignment_line(idx) + "\n";
    if (!write_all(w.proc.ctl_fd, line.data(), line.size())) {
      kill_worker(w, "closed its control line");
    }
  }

  void kill_worker(Active& w, std::string why) {
    w.killed = std::move(why);
    ::kill(w.proc.pid, SIGKILL);
  }

  void poll_workers(double now) {
    std::vector<pollfd> fds;
    fds.reserve(active_.size());
    for (const Active& w : active_) {
      fds.push_back({w.proc.out_fd, POLLIN, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0) {
      PARATICK_CHECK_MSG(errno == EINTR, "dispatch: poll() failed");
      return;
    }
    // Iterate by index over a stable snapshot; finalize() erases from
    // active_, so collect the dead first.
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Active& w = active_[i];
      char buf[1 << 16];
      const ssize_t got = read_retry(w.proc.out_fd, buf, sizeof buf);
      if (got <= 0) {
        dead.push_back(i);
        continue;
      }
      // A killed worker's pipe is drained to EOF, but nothing it still
      // says counts.
      if (!w.killed.empty()) continue;
      w.buf.append(buf, static_cast<std::size_t>(got));
      w.last_activity = now;
      std::size_t nl;
      while (w.killed.empty() && (nl = w.buf.find('\n')) != std::string::npos) {
        const std::string line = w.buf.substr(0, nl);
        w.buf.erase(0, nl + 1);
        process_line(w, line);
      }
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      finalize(*it);
    }
  }

  void process_line(Active& w, const std::string& line) {
    // "#hb": the lease was renewed when its bytes arrived.
    if (line == "#hb") return;
    if (line.empty() || line[0] != '{') {
      protocol_error(w, "sent a line that is neither a record nor #hb");
      return;
    }
    SweepRun run;
    try {
      run = parse_run_record(json::parse(line), plan_);
    } catch (const sim::SimError& e) {
      // A worker emitting garbage is as dead as one emitting nothing:
      // kill it and let the EOF path charge its assignment.
      protocol_error(w, "sent a corrupt record (" + e.msg() + ")");
      return;
    }
    if (!w.assigned || *w.assigned != run.run_index) {
      protocol_error(w, "sent a record for run " +
                            std::to_string(run.run_index) +
                            ", which it was not assigned");
      return;
    }
    w.assigned.reset();
    ++stats_.records_received;
    accept_record(run);
    if (opts_.test_kill_after != 0 && !test_killed_ &&
        stats_.records_received >= opts_.test_kill_after) {
      test_killed_ = true;
      note("test hook: SIGKILL worker %d after record %zu",
           static_cast<int>(w.proc.pid), stats_.records_received);
      kill_worker(w, "killed by the test hook");
    }
  }

  void protocol_error(Active& w, const std::string& what) {
    std::fprintf(stderr, "dispatch: worker %d %s; killing it\n",
                 static_cast<int>(w.proc.pid), what.c_str());
    kill_worker(w, "broke the protocol");
  }

  void accept_record(const SweepRun& run) {
    const std::size_t idx = run.run_index;
    runs_[idx] = run;
    runs_[idx].executed = true;
    ++done_count_;
  }

  void reap(Active& w) {
    if (w.proc.out_fd >= 0) ::close(w.proc.out_fd);
    if (w.proc.ctl_fd >= 0) ::close(w.proc.ctl_fd);
    w.proc.out_fd = w.proc.ctl_fd = -1;
    if (w.proc.pid > 0) {
      while (::waitpid(w.proc.pid, &w.status, 0) < 0 && errno == EINTR) {
      }
      w.proc.pid = -1;
    }
  }

  void finalize(std::size_t slot) {
    Active w = std::move(active_[slot]);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(slot));
    const int pid = static_cast<int>(w.proc.pid);
    reap(w);
    const bool clean =
        w.killed.empty() && WIFEXITED(w.status) && WEXITSTATUS(w.status) == 0;
    if (!clean) ++stats_.workers_died;
    if (clean && !w.assigned) return;
    const std::string cause = death_cause(w);
    note("worker %d %s%s", pid, cause.c_str(),
         w.assigned ? " holding an assignment" : "");
    // Whatever the exit status, a worker gone with an assignment costs
    // exactly that run.
    if (w.assigned) crash(*w.assigned, cause);
  }

  /// Why a reaped worker died, for the log and for the kCrash record of
  /// the run it held.
  static std::string death_cause(const Active& w) {
    if (!w.killed.empty()) return w.killed;
    if (WIFSIGNALED(w.status)) {
      const int sig = WTERMSIG(w.status);
      return metrics::format("killed by signal %d (%s)", sig, strsignal(sig));
    }
    return metrics::format("exited with status %d",
                           WIFEXITED(w.status) ? WEXITSTATUS(w.status) : -1);
  }

  /// Record run `idx` as lost with its worker: a kCrash failure carrying
  /// the identity stamped from the plan.
  void crash(std::size_t idx, const std::string& cause) {
    SweepRun run = runs_[idx];
    run.ok = false;
    RunFailure f;
    f.kind = RunFailure::Kind::kCrash;
    f.message = "dispatch: lost with its worker (" + cause +
                "); the cell is degraded, not the sweep";
    run.failure = std::move(f);
    if (opts_.bundle_writer) opts_.bundle_writer(run);
    ++stats_.runs_crashed;
    accept_record(run);
  }

  void expire_leases(double now) {
    if (opts_.lease_sec <= 0.0) return;
    for (Active& w : active_) {
      if (!w.killed.empty()) continue;
      if (now - w.last_activity <= opts_.lease_sec) continue;
      ++stats_.leases_expired;
      note("lease expired on worker %d (silent %.1fs); killing it",
           static_cast<int>(w.proc.pid), now - w.last_activity);
      kill_worker(w, "lease expired");
    }
  }

  WorkerTransport& transport_;
  const DispatchOptions& opts_;
  DispatchStats& stats_;
  unsigned workers_ = 1;

  PlanInfo plan_;
  std::vector<SweepRun> runs_;
  std::vector<std::size_t> todo_;  // the wanted run indices, in order
  std::size_t next_ = 0;           // todo_[next_] is the next to assign
  std::vector<Active> active_;
  std::size_t done_count_ = 0;
  bool test_killed_ = false;
};

}  // namespace

SweepResult dispatch_sweep(WorkerTransport& transport,
                           const DispatchOptions& opts, DispatchStats* stats,
                           const std::optional<std::vector<std::size_t>>& indices) {
  DispatchStats local;
  Coordinator c(transport, opts, stats != nullptr ? *stats : local);
  return c.run(indices);
}

}  // namespace paratick::core::dispatch
