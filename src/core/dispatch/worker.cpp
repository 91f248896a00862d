#include "core/dispatch/worker.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "core/cli_parse.hpp"
#include "core/dispatch/protocol.hpp"
#include "core/replay.hpp"
#include "core/safe_io.hpp"
#include "core/sweep_plan.hpp"
#include "core/sweep_shard.hpp"
#include "sim/check.hpp"

namespace paratick::core::dispatch {

namespace {

/// Serializes the record stream against the heartbeat thread: a `#hb`
/// landing inside a half-written record would corrupt the frame.
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}

  bool write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ok_) return false;
    std::string framed = line;
    framed += '\n';
    ok_ = write_all(fd_, framed.data(), framed.size());
    return ok_;
  }

 private:
  int fd_;
  std::mutex mu_;
  bool ok_ = true;
};

}  // namespace

int run_worker_slice(const SweepConfig& cfg,
                     const std::vector<std::size_t>& indices, int out_fd,
                     int ctl_fd, const WorkerOptions& opts) {
  // A dead coordinator must surface as a failed write, not SIGPIPE death.
  ::signal(SIGPIPE, SIG_IGN);

  const SweepPlan plan = SweepPlan::make(cfg);
  for (const std::size_t idx : indices) {
    PARATICK_CHECK_MSG(idx < plan.total_runs(),
                       "worker slice: run index outside the plan");
  }

  LineWriter out(out_fd);
  if (!out.write_line("#plan " + to_json(plan_info_for(cfg)))) return 1;

  // The coordinator's control line is read non-blockingly between runs:
  // stealing only truncates *future* work, never the run in flight.
  if (ctl_fd >= 0) {
    const int flags = ::fcntl(ctl_fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(ctl_fd, F_SETFL, flags | O_NONBLOCK);
  }
  std::size_t limit = indices.size();
  bool ctl_eof = false;
  std::string ctl_buf;
  const auto poll_ctl = [&] {
    if (ctl_fd < 0 || ctl_eof) return;
    char buf[4096];
    while (true) {
      const ssize_t got = ::read(ctl_fd, buf, sizeof buf);
      if (got > 0) {
        ctl_buf.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0) {
        ctl_eof = true;  // coordinator is gone: stop taking new work
        break;
      }
      if (errno == EINTR) continue;
      break;  // EAGAIN: no control traffic right now
    }
    std::size_t nl;
    while ((nl = ctl_buf.find('\n')) != std::string::npos) {
      const std::string line = ctl_buf.substr(0, nl);
      ctl_buf.erase(0, nl + 1);
      if (line.rfind("#limit ", 0) == 0) {
        const auto n =
            static_cast<std::size_t>(parse_u64_flag("#limit", line.substr(7)));
        if (n < limit) limit = n;
      }
    }
    if (ctl_eof) limit = 0;
  };

  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread hb;
  if (opts.heartbeat_sec > 0.0) {
    hb = std::thread([&] {
      std::unique_lock<std::mutex> lock(hb_mu);
      while (true) {
        if (hb_cv.wait_for(lock,
                           std::chrono::duration<double>(opts.heartbeat_sec),
                           [&] { return hb_stop; })) {
          return;
        }
        if (!out.write_line("#hb")) return;
      }
    });
  }
  const auto join_hb = [&] {
    if (!hb.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    hb.join();
  };
  // Join on every way out: a corrupt #limit line throws from poll_ctl(),
  // and a joinable thread left behind would std::terminate the worker.
  struct HbJoiner {
    decltype(join_hb)& join;
    ~HbJoiner() { join(); }
  } hb_joiner{join_hb};

  const std::string failure_dir =
      opts.write_bundles
          ? resolve_output_path(cfg.output_dir, cfg.failure_dir)
          : std::string();
  const auto& keys = plan.cell_keys();

  int rc = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    poll_ctl();
    if (k >= limit) break;
    const std::size_t idx = indices[k];
    if (!out.write_line("#run " + std::to_string(idx))) {
      rc = 1;
      break;
    }
    const auto t0 = std::chrono::steady_clock::now();
    SweepRun run = plan.execute(idx);
    run.host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!run.ok && run.failure && !failure_dir.empty()) {
      run.bundle_path =
          write_replay_bundle(cfg, run, failure_dir, keys[run.cell].label());
    }
    if (!out.write_line(run_record_to_json(run))) {
      rc = 1;
      break;
    }
  }
  if (rc == 0) (void)out.write_line("#end");
  return rc;
}

}  // namespace paratick::core::dispatch
