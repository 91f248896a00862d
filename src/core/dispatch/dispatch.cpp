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
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/experiment.hpp"
#include "core/safe_io.hpp"
#include "core/sweep_shard.hpp"
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
    // Writing #limit to a worker that died must not kill the coordinator.
    ::signal(SIGPIPE, SIG_IGN);

    const double start = monotonic_sec();
    plan_ = transport_.plan();
    const std::size_t total = plan_.total_runs;
    PARATICK_CHECK_MSG(
        total == plan_.cells.size() * static_cast<std::size_t>(plan_.repeat),
        "dispatch: plan header is inconsistent (cells * repeat != runs)");

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
      const double now = monotonic_sec();
      fill_slots(now);
      maybe_steal(now);
      if (active_.empty()) {
        // Everything unfinished is waiting out a retry backoff.
        ::poll(nullptr, 0, 20);
        continue;
      }
      poll_workers(now);
      expire_leases(monotonic_sec());
      maybe_checkpoint(monotonic_sec(), /*force=*/false);
    }

    // Steal races can leave workers re-executing runs someone else already
    // delivered; their records are no longer needed.
    for (Active& w : active_) {
      ::kill(w.proc.pid, SIGKILL);
      reap(w);
    }
    active_.clear();
    maybe_checkpoint(monotonic_sec(), /*force=*/true);

    SweepResult res;
    res.backend_name = "dispatch";
    res.threads_used = opts_.workers;
    res.cells.reserve(plan_.cells.size());
    for (const SweepCellKey& key : plan_.cells) {
      SweepCellSummary cell;
      cell.key = key;
      res.cells.push_back(std::move(cell));
    }
    res.runs = std::move(runs_);
    aggregate_sweep_runs(res);
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
    std::vector<std::size_t> slice;     // assignment, executed in order
    std::size_t limit = 0;              // effective end (stealing shrinks it)
    std::size_t records_seen = 0;       // record lines received
    std::optional<std::size_t> current; // announced in-flight run
    std::string buf;                    // partial protocol line
    double last_activity = 0.0;
    bool got_plan = false;
    bool lease_expired = false;
    bool protocol_error = false;
    int status = 0;  // waitpid status, valid after reap()
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
    PlanInfo ckpt;
    ckpt.root_seed = snap.root_seed;
    ckpt.repeat = snap.repeat;
    ckpt.total_runs = snap.total_runs;
    ckpt.cells = snap.cells;
    std::string why;
    if (!plans_match(plan_, ckpt, &why)) {
      std::fprintf(stderr,
                   "dispatch: checkpoint %s belongs to a different sweep "
                   "(%s differs); starting fresh\n",
                   opts_.checkpoint_path.c_str(), why.c_str());
      return;
    }
    for (const SweepRun& run : snap.runs) {
      if (run.run_index >= runs_.size() || !run.executed) continue;
      if (!wanted_[run.run_index] || done_[run.run_index]) continue;
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
    PartialSnapshot snap;
    snap.bench = opts_.bench_name;
    snap.root_seed = plan_.root_seed;
    snap.repeat = plan_.repeat;
    snap.total_runs = runs_.size();
    snap.cells = plan_.cells;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (done_[i]) snap.runs.push_back(runs_[i]);
    }
    (void)write_partial_snapshot(snap, opts_.checkpoint_path);
    checkpoint_dirty_ = false;
    last_checkpoint_ = now;
  }

  void fill_slots(double now) {
    while (active_.size() < opts_.workers) {
      std::vector<std::size_t> eligible;
      for (const Pending& p : pending_) {
        if (p.eligible_at <= now) eligible.push_back(p.idx);
      }
      if (eligible.empty()) return;
      const std::size_t free_slots = opts_.workers - active_.size();
      const std::size_t take =
          (eligible.size() + free_slots - 1) / free_slots;
      eligible.resize(take);
      for (const std::size_t idx : eligible) {
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
          if (it->idx == idx) {
            pending_.erase(it);
            break;
          }
        }
      }
      Active w;
      w.proc = transport_.launch(eligible);
      w.slice = std::move(eligible);
      w.limit = w.slice.size();
      w.last_activity = now;
      ++stats_.workers_launched;
      note("worker %d <- %zu runs [%zu..%zu]", static_cast<int>(w.proc.pid),
           w.slice.size(), w.slice.front(), w.slice.back());
      active_.push_back(std::move(w));
    }
  }

  void maybe_steal(double now) {
    if (active_.size() >= opts_.workers) return;
    for (const Pending& p : pending_) {
      if (p.eligible_at <= now) return;  // real work is ready; no need
    }
    // Victim: the worker with the most unstarted assigned work.
    Active* victim = nullptr;
    std::size_t best = 0;
    for (Active& w : active_) {
      if (w.proc.ctl_fd < 0) continue;  // transport without a control line
      const std::size_t next_pos = w.records_seen + (w.current ? 1 : 0);
      const std::size_t end = std::min(w.limit, w.slice.size());
      const std::size_t stealable = end > next_pos ? end - next_pos : 0;
      if (stealable >= 2 && stealable > best) {
        best = stealable;
        victim = &w;
      }
    }
    if (victim == nullptr) return;
    const std::size_t next_pos =
        victim->records_seen + (victim->current ? 1 : 0);
    const std::size_t keep = (best + 1) / 2;
    const std::size_t new_limit = next_pos + keep;
    const std::string msg = "#limit " + std::to_string(new_limit) + "\n";
    (void)write_all(victim->proc.ctl_fd, msg.data(), msg.size());
    std::vector<std::size_t> stolen;
    for (std::size_t k = new_limit; k < std::min(victim->limit,
                                                 victim->slice.size());
         ++k) {
      if (!done_[victim->slice[k]]) stolen.push_back(victim->slice[k]);
    }
    victim->limit = new_limit;
    if (stolen.empty()) return;
    ++stats_.steals;
    stats_.stolen_indices += stolen.size();
    note("stole %zu runs from worker %d", stolen.size(),
         static_cast<int>(victim->proc.pid));
    // Front of the queue, original order: the thief picks them up next.
    for (auto it = stolen.rbegin(); it != stolen.rend(); ++it) {
      pending_.push_front({*it, 0.0});
    }
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
      w.buf.append(buf, static_cast<std::size_t>(got));
      w.last_activity = now;
      std::size_t nl;
      while ((nl = w.buf.find('\n')) != std::string::npos) {
        const std::string line = w.buf.substr(0, nl);
        w.buf.erase(0, nl + 1);
        process_line(w, line);
        if (w.protocol_error) break;
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
        run = parse_run_record(line);
      } catch (const sim::SimError& e) {
        // A worker emitting garbage is as dead as one emitting nothing:
        // kill it and let the EOF path requeue its work.
        std::fprintf(stderr,
                     "dispatch: worker %d sent a corrupt record (%s); "
                     "killing it\n",
                     static_cast<int>(w.proc.pid), e.msg().c_str());
        w.protocol_error = true;
        ::kill(w.proc.pid, SIGKILL);
        return;
      }
      ++w.records_seen;
      if (w.current && *w.current == run.run_index) w.current.reset();
      ++stats_.records_received;
      accept_record(run);
      if (opts_.test_kill_after != 0 && !test_killed_ &&
          stats_.records_received >= opts_.test_kill_after) {
        test_killed_ = true;
        note("test hook: SIGKILL worker %d after record %zu",
             static_cast<int>(w.proc.pid), stats_.records_received);
        ::kill(w.proc.pid, SIGKILL);
      }
      return;
    }
    if (line.rfind("#plan ", 0) == 0) {
      PlanInfo theirs;
      try {
        theirs = parse_plan_info(line.substr(6));
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
    if (line.rfind("#run ", 0) == 0) {
      w.current = static_cast<std::size_t>(parse_u64_flag("#run", line.substr(5)));
      return;
    }
    // "#hb", "#end", transport banner noise: lease renewal already
    // happened on byte arrival; nothing else to do.
  }

  void accept_record(const SweepRun& run) {
    const std::size_t idx = run.run_index;
    // Corrupt-but-parseable, or outside this dispatch's subset: drop.
    if (idx >= runs_.size() || !wanted_[idx]) return;
    if (done_[idx]) {
      ++stats_.duplicate_records;
      // Identical by determinism; prefer an ok record over a degraded one
      // in case a synthesized crash raced a late completion.
      if (run.ok && !runs_[idx].ok) runs_[idx] = run;
      return;
    }
    runs_[idx] = run;
    runs_[idx].executed = true;
    done_[idx] = true;
    ++done_count_;
    checkpoint_dirty_ = true;
    // Steal races: someone else may still have this queued.
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->idx == idx) {
        pending_.erase(it);
        break;
      }
    }
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
    reap(w);
    const bool clean = !w.protocol_error && !w.lease_expired &&
                       WIFEXITED(w.status) && WEXITSTATUS(w.status) == 0;

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

    const std::size_t end = std::min(w.limit, w.slice.size());
    const std::size_t next_pos = std::min(w.records_seen, end);
    std::vector<std::size_t> outstanding;
    for (std::size_t k = next_pos; k < end; ++k) {
      if (!done_[w.slice[k]]) outstanding.push_back(w.slice[k]);
    }

    if (clean) {
      if (outstanding.empty()) return;
      // Clean exit but records are missing (worker stopped early without
      // being truncated): penalize so a chronically lazy worker cannot
      // spin the sweep forever.
      note("worker exited cleanly but left %zu runs unexecuted",
           outstanding.size());
      for (const std::size_t idx : outstanding) {
        last_death_[idx] = "worker exited cleanly without running it";
        requeue(idx, true);
      }
      return;
    }

    ++stats_.workers_died;
    const std::string cause = death_cause(w);
    const std::size_t in_flight =
        w.current && !done_[*w.current] ? *w.current
                                        : static_cast<std::size_t>(-1);
    note("worker died (%s)%s: %zu runs back to the queue", cause.c_str(),
         in_flight != static_cast<std::size_t>(-1) ? " mid-run" : "",
         outstanding.size());
    // The in-flight run is charged with the death (it may be the poison
    // pill); the untouched tail re-enqueues penalty-free at the front so
    // run-index locality survives crashes.
    std::vector<std::size_t> tail;
    for (const std::size_t idx : outstanding) {
      if (idx != in_flight) tail.push_back(idx);
    }
    for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
      pending_.push_front({*it, 0.0});
    }
    if (in_flight != static_cast<std::size_t>(-1)) {
      last_death_[in_flight] = "worker " + cause;
      requeue(in_flight, true);
    }
  }

  /// Why a reaped worker died, for the log and for the kCrash record of a
  /// run that exhausts its retries.
  static std::string death_cause(const Active& w) {
    if (w.lease_expired) return "lease expired";
    if (w.protocol_error) return "sent a corrupt record";
    if (WIFSIGNALED(w.status)) {
      const int sig = WTERMSIG(w.status);
      return metrics::format("killed by signal %d (%s)", sig, strsignal(sig));
    }
    return metrics::format("exited with status %d",
                           WIFEXITED(w.status) ? WEXITSTATUS(w.status) : -1);
  }

  void requeue(std::size_t idx, bool penalized) {
    if (done_[idx]) return;
    if (penalized) {
      ++attempts_[idx];
      ++stats_.retries;
    }
    if (attempts_[idx] > opts_.max_retries) {
      degrade(idx);
      return;
    }
    double delay = 0.0;
    if (penalized && opts_.retry_backoff_sec > 0.0) {
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
    SweepRun run;
    run.run_index = idx;
    run.cell = idx / static_cast<std::size_t>(plan_.repeat);
    run.replica = static_cast<int>(idx % static_cast<std::size_t>(plan_.repeat));
    run.seed = derive_seed(plan_.root_seed, idx);
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
      if (w.lease_expired) continue;
      if (now - w.last_activity <= opts_.lease_sec) continue;
      w.lease_expired = true;
      ++stats_.leases_expired;
      note("lease expired on worker %d (silent %.1fs); killing it",
           static_cast<int>(w.proc.pid), now - w.last_activity);
      ::kill(w.proc.pid, SIGKILL);
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
