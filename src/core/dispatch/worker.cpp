#include "core/dispatch/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "core/dispatch/protocol.hpp"
#include "core/replay.hpp"
#include "core/run_record.hpp"
#include "core/safe_io.hpp"
#include "core/sweep_plan.hpp"
#include "sim/check.hpp"

namespace paratick::core::dispatch {

namespace {

/// Heartbeat period; the coordinator's lease must stay well above it.
constexpr double kHeartbeatSec = 0.5;

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

/// Longest control line accepted: "#run " plus a 20-digit index, with room
/// to spare. Anything longer is not an assignment.
constexpr std::size_t kMaxCtlLine = 64;

/// Block for the next control line (newline stripped). False on EOF at a
/// line boundary: the coordinator has no more work.
bool read_ctl_line(int fd, std::string& line) {
  line.clear();
  while (true) {
    char c;
    const ssize_t got = read_retry(fd, &c, 1);
    if (got <= 0) {
      PARATICK_CHECK_MSG(line.empty(), "#run: assignment line cut off by EOF");
      return false;
    }
    if (c == '\n') return true;
    line += c;
    PARATICK_CHECK_MSG(line.size() <= kMaxCtlLine, "#run: assignment line too long");
  }
}

}  // namespace

int run_worker(const SweepConfig& cfg, int ctl_fd, int out_fd) {
  // A dead coordinator must surface as a failed write, not SIGPIPE death.
  ::signal(SIGPIPE, SIG_IGN);

  const SweepPlan plan = SweepPlan::make(cfg);
  LineWriter out(out_fd);

  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread hb([&] {
    std::unique_lock<std::mutex> lock(hb_mu);
    while (true) {
      if (hb_cv.wait_for(lock, std::chrono::duration<double>(kHeartbeatSec),
                         [&] { return hb_stop; })) {
        return;
      }
      if (!out.write_line("#hb")) return;
    }
  });
  const auto join_hb = [&] {
    {
      std::lock_guard<std::mutex> lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    hb.join();
  };
  // Join on every way out: a corrupt assignment throws, and a joinable
  // thread left behind would std::terminate the worker.
  struct HbJoiner {
    decltype(join_hb)& join;
    ~HbJoiner() { join(); }
  } hb_joiner{join_hb};

  std::string line;
  while (read_ctl_line(ctl_fd, line)) {
    const std::size_t idx = parse_assignment(line, plan.total_runs());
    const auto t0 = std::chrono::steady_clock::now();
    SweepRun run = plan.execute(idx);
    run.host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!run.ok && run.failure && !cfg.failure_dir.empty()) {
      run.bundle_path = write_replay_bundle(cfg, run, cfg.failure_dir);
    }
    if (!out.write_line(run_record_to_json(run))) return 1;
  }
  return 0;
}

}  // namespace paratick::core::dispatch
