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
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/safe_io.hpp"
#include "core/dispatch/protocol.hpp"
#include "core/run_record.hpp"
#include "metrics/report.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core::dispatch {

namespace {

/// Minimum wall-clock gap between two checkpoint writes (the final one
/// at shutdown is forced).
constexpr double kCheckpointIntervalSec = 5.0;

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
              SweepDispatcher::Stats& stats)
      : transport_(transport), opts_(opts), stats_(stats) {}

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
    done_.assign(total, false);
    attempts_.assign(total, 0);
    last_death_.assign(total, std::string());
    wanted_.assign(total, !subset.has_value());
    if (subset) {
      for (const std::size_t idx : *subset) {
        PARATICK_CHECK_MSG(idx < total,
                           "dispatch: run index outside the plan");
        wanted_[idx] = true;
      }
    }
    const auto target = static_cast<std::size_t>(
        std::count(wanted_.begin(), wanted_.end(), true));
    stamp_identities();
    resume_from_checkpoint();
    for (std::size_t i = 0; i < total; ++i) {
      if (wanted_[i] && !done_[i]) pending_.push_back({i, 0.0});
    }

    while (done_count_ < target) {
      assign_work(monotonic_sec());
      if (active_.empty()) {
        // Everything unfinished is waiting out a retry backoff.
        ::poll(nullptr, 0, 20);
        continue;
      }
      poll_workers(monotonic_sec());
      expire_leases(monotonic_sec());
      maybe_checkpoint(monotonic_sec(), /*force=*/false);
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
    maybe_checkpoint(monotonic_sec(), /*force=*/true);

    SweepResult res;
    res.backend_name = "dispatch";
    res.threads_used = opts_.workers;
    res.runs = std::move(runs_);
    aggregate_sweep_runs(res, plan_.cells);
    res.wall_seconds = monotonic_sec() - start;
    return res;
  }

 private:
  struct Pending {
    std::size_t idx = 0;
    double eligible_at = 0.0;  // retry backoff gate; 0 = now
  };

  struct Active {
    WorkerProcess proc;
    std::optional<std::size_t> assigned;  // the one run it holds
    std::string buf;                      // partial protocol line
    double last_activity = 0.0;
    bool got_plan = false;
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

  void resume_from_checkpoint() {
    if (opts_.checkpoint_path.empty()) return;
    if (::access(opts_.checkpoint_path.c_str(), F_OK) != 0) return;
    PartialSnapshot snap;
    try {
      snap = load_partial_snapshot(opts_.checkpoint_path);
    } catch (const sim::SimError& e) {
      std::fprintf(stderr,
                   "dispatch: ignoring unreadable checkpoint: %s\n",
                   e.msg().c_str());
      return;
    }
    std::string why;
    if (!plans_match(plan_, snap.plan, &why)) {
      std::fprintf(stderr,
                   "dispatch: checkpoint %s belongs to a different sweep "
                   "(%s differs); starting fresh\n",
                   opts_.checkpoint_path.c_str(), why.c_str());
      return;
    }
    for (const SweepRun& run : snap.runs) {
      if (!run.executed || !wanted_[run.run_index] || done_[run.run_index]) {
        continue;
      }
      runs_[run.run_index] = run;
      done_[run.run_index] = true;
      ++done_count_;
      ++stats_.runs_resumed;
    }
    note("resumed %zu/%zu runs from %s", stats_.runs_resumed, runs_.size(),
         opts_.checkpoint_path.c_str());
  }

  void maybe_checkpoint(double now, bool force) {
    if (opts_.checkpoint_path.empty()) return;
    if (!force && (!checkpoint_dirty_ ||
                   now - last_checkpoint_ < kCheckpointIntervalSec)) {
      return;
    }
    if (force && !checkpoint_dirty_) return;
    PartialSnapshot snap{plan_, {}};
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (done_[i]) snap.runs.push_back(runs_[i]);
    }
    write_partial_snapshot(snap, opts_.checkpoint_path);
    checkpoint_dirty_ = false;
    last_checkpoint_ = now;
  }

  /// Hand every idle worker its next run, then launch workers for
  /// eligible runs nobody could take. Each launch comes with a run, so no
  /// more workers start than there are runs left.
  void assign_work(double now) {
    for (Active& w : active_) {
      if (w.assigned || !w.killed.empty()) continue;
      const std::optional<std::size_t> idx = take_eligible(now);
      if (!idx) return;
      assign(w, *idx);
    }
    while (active_.size() < opts_.workers) {
      const std::optional<std::size_t> idx = take_eligible(now);
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

  std::optional<std::size_t> take_eligible(double now) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->eligible_at <= now) {
        const std::size_t idx = it->idx;
        pending_.erase(it);
        return idx;
      }
    }
    return std::nullopt;
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
    if (line.empty()) return;
    if (line[0] == '{') {
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
      return;
    }
    if (line.rfind("#plan ", 0) == 0) {
      PlanInfo theirs;
      try {
        theirs = parse_plan_info(json::parse(line.substr(6)));
      } catch (const sim::SimError& e) {
        const std::string msg =
            "dispatch: worker sent an unparseable #plan header: " + e.msg();
        PARATICK_CHECK_MSG(false, msg.c_str());
      }
      std::string why;
      if (!plans_match(plan_, theirs, &why)) {
        const std::string msg =
            "dispatch: worker " + std::to_string(w.proc.pid) +
            " disagrees with the coordinator about the sweep (" + why +
            ") — all fleet hosts must run the same binary with the same "
            "grid flags";
        PARATICK_CHECK_MSG(false, msg.c_str());
      }
      w.got_plan = true;
      return;
    }
    // "#hb", transport banner noise: lease renewal already happened on
    // byte arrival; nothing else to do.
  }

  void protocol_error(Active& w, const std::string& what) {
    std::fprintf(stderr, "dispatch: worker %d %s; killing it\n",
                 static_cast<int>(w.proc.pid), what.c_str());
    kill_worker(w, "broke the protocol");
  }

  /// Record a run nobody else holds: a worker's own assignment or a
  /// degraded run.
  void accept_record(const SweepRun& run) {
    const std::size_t idx = run.run_index;
    runs_[idx] = run;
    runs_[idx].executed = true;
    done_[idx] = true;
    ++done_count_;
    checkpoint_dirty_ = true;
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

    // Transport sanity: workers that die without ever speaking the
    // protocol (exec failure, wrong binary) would otherwise respawn until
    // every run burned its retries.
    if (!w.got_plan) {
      if (++barren_deaths_ >= 3) {
        PARATICK_CHECK_MSG(
            false,
            "dispatch: 3 consecutive workers died without a #plan header — "
            "the worker command is broken (exec failure or not a SweepCli "
            "binary), not the runs");
      }
    } else {
      barren_deaths_ = 0;
    }

    if (!clean) ++stats_.workers_died;
    if (clean && !w.assigned) return;
    const std::string cause = death_cause(w);
    note("worker %d %s%s", pid, cause.c_str(),
         w.assigned ? " holding an assignment" : "");
    if (!w.assigned) return;
    if (!w.got_plan) {
      // It died before speaking the protocol, so it never started the run;
      // the barren-death check above catches a broken worker command.
      pending_.push_front({*w.assigned, 0.0});
      return;
    }
    // Whatever the exit status, a worker gone with an assignment is
    // charged for that run: it may be the poison pill.
    last_death_[*w.assigned] = "worker " + cause;
    requeue(*w.assigned);
  }

  /// Why a reaped worker died, for the log and for the kCrash record of a
  /// run that exhausts its retries.
  static std::string death_cause(const Active& w) {
    if (!w.killed.empty()) return w.killed;
    if (WIFSIGNALED(w.status)) {
      const int sig = WTERMSIG(w.status);
      return metrics::format("killed by signal %d (%s)", sig, strsignal(sig));
    }
    return metrics::format("exited with status %d",
                           WIFEXITED(w.status) ? WEXITSTATUS(w.status) : -1);
  }

  /// Charge a failed attempt to `idx`: retry it after a backoff, or
  /// degrade it once its attempts exceed --max-retries.
  void requeue(std::size_t idx) {
    ++attempts_[idx];
    ++stats_.retries;
    if (attempts_[idx] > opts_.max_retries) {
      degrade(idx);
      return;
    }
    double delay = 0.0;
    if (opts_.retry_backoff_sec > 0.0) {
      const unsigned exp = std::min(attempts_[idx] - 1u, 6u);
      delay = opts_.retry_backoff_sec * static_cast<double>(1u << exp);
      // Deterministic jitter in [1.0, 1.5): de-synchronizes fleet retries
      // without making the schedule depend on wall time.
      const std::uint64_t j =
          derive_seed(plan_.root_seed + idx, attempts_[idx]) % 1000;
      delay *= 1.0 + static_cast<double>(j) / 2000.0;
    }
    pending_.push_back({idx, delay > 0.0 ? monotonic_sec() + delay : 0.0});
  }

  void degrade(std::size_t idx) {
    SweepRun run = runs_[idx];  // the identity stamped from the plan
    run.executed = true;
    run.ok = false;
    RunFailure f;
    f.kind = RunFailure::Kind::kCrash;
    f.message = "dispatch: abandoned after " + std::to_string(attempts_[idx]) +
                " failed attempts (last: " + last_death_[idx] +
                "); the cell is degraded, not the sweep";
    run.failure = std::move(f);
    if (opts_.bundle_writer) opts_.bundle_writer(run);
    ++stats_.runs_degraded;
    note("run %zu degraded after %u attempts", idx, attempts_[idx]);
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
  SweepDispatcher::Stats& stats_;

  PlanInfo plan_;
  std::vector<SweepRun> runs_;
  std::vector<bool> done_;
  std::vector<unsigned> attempts_;
  std::vector<std::string> last_death_;  // cause of the last charged death
  std::vector<bool> wanted_;             // the run-index subset dispatched
  std::deque<Pending> pending_;
  std::vector<Active> active_;
  std::size_t done_count_ = 0;
  std::size_t barren_deaths_ = 0;
  bool test_killed_ = false;
  bool checkpoint_dirty_ = false;
  double last_checkpoint_ = 0.0;
};

}  // namespace

SweepDispatcher::SweepDispatcher(std::unique_ptr<WorkerTransport> transport,
                                 DispatchOptions opts)
    : transport_(std::move(transport)), opts_(std::move(opts)) {
  PARATICK_CHECK_MSG(transport_ != nullptr, "dispatch: null transport");
  if (opts_.workers == 0) opts_.workers = 1;
}

SweepResult SweepDispatcher::run(
    const std::optional<std::vector<std::size_t>>& indices) {
  PARATICK_CHECK_MSG(!ran_, "dispatch: run() is one-shot");
  ran_ = true;
  Coordinator c(*transport_, opts_, stats_);
  return c.run(indices);
}

}  // namespace paratick::core::dispatch
