#include "core/dispatch/transport.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "core/safe_io.hpp"
#include "sim/check.hpp"

namespace paratick::core::dispatch {

namespace {

/// POSIX single-quote an argument for a /bin/sh (or ssh remote-shell)
/// command line: 'a'\''b' survives every byte except NUL.
std::string shell_quote(const std::string& arg) {
  std::string out = "'";
  for (const char c : arg) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += '\'';
  return out;
}

std::string render_template(const std::string& shell_template,
                            const std::vector<std::string>& cmd) {
  std::string quoted;
  for (const std::string& arg : cmd) {
    if (!quoted.empty()) quoted += ' ';
    quoted += shell_quote(arg);
  }
  const std::size_t at = shell_template.find("{cmd}");
  PARATICK_CHECK_MSG(at != std::string::npos,
                     "--dispatch-cmd template must contain {cmd}");
  std::string line = shell_template;
  line.replace(at, 5, quoted);
  return line;
}

}  // namespace

ForkWorkerTransport::ForkWorkerTransport(SweepConfig cfg)
    : cfg_(std::move(cfg)) {
  // Workers must not interleave per-run progress lines with the
  // coordinator's own; the dispatcher reports progress itself.
  cfg_.progress = false;
}

PlanInfo ForkWorkerTransport::plan() { return plan_info_for(cfg_); }

WorkerProcess ForkWorkerTransport::launch(
    const std::vector<std::size_t>& indices) {
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
    const int rc = run_worker_slice(cfg_, indices, out_fds[1], ctl_fds[0]);
    // _Exit: no destructors, no atexit — the coordinator holds the real
    // state, and flushing shared stdio buffers would duplicate output.
    std::_Exit(rc);
  }
  ::close(out_fds[1]);
  ::close(ctl_fds[0]);
  return {pid, out_fds[0], ctl_fds[1]};
}

CommandWorkerTransport::CommandWorkerTransport(
    std::vector<std::string> base_cmd, std::string shell_template)
    : base_cmd_(std::move(base_cmd)),
      shell_template_(std::move(shell_template)) {
  PARATICK_CHECK_MSG(!base_cmd_.empty(),
                     "dispatch: empty worker command line");
}

WorkerProcess CommandWorkerTransport::spawn(
    const std::vector<std::string>& extra, bool want_ctl) const {
  std::vector<std::string> cmd = base_cmd_;
  cmd.insert(cmd.end(), extra.begin(), extra.end());

  std::vector<std::string> argv_store;
  if (shell_template_.empty()) {
    argv_store = cmd;
  } else {
    argv_store = {"/bin/sh", "-c", render_template(shell_template_, cmd)};
  }

  int out_fds[2];
  int ctl_fds[2] = {-1, -1};
  PARATICK_CHECK_MSG(::pipe(out_fds) == 0, "dispatch: pipe() failed");
  if (want_ctl && ::pipe(ctl_fds) != 0) {
    ::close(out_fds[0]);
    ::close(out_fds[1]);
    PARATICK_CHECK_MSG(false, "dispatch: pipe() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {out_fds[0], out_fds[1], ctl_fds[0], ctl_fds[1]}) {
      if (fd >= 0) ::close(fd);
    }
    PARATICK_CHECK_MSG(false, "dispatch: fork() failed");
  }
  if (pid == 0) {
    ::close(out_fds[0]);
    if (want_ctl) {
      ::close(ctl_fds[1]);
      ::dup2(ctl_fds[0], STDIN_FILENO);
      ::close(ctl_fds[0]);
    }
    ::dup2(out_fds[1], STDOUT_FILENO);
    ::close(out_fds[1]);
    std::vector<char*> argv;
    argv.reserve(argv_store.size() + 1);
    for (const std::string& arg : argv_store) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    std::_Exit(127);  // exec failed; the dispatcher sees a barren death
  }
  ::close(out_fds[1]);
  if (want_ctl) ::close(ctl_fds[0]);
  return {pid, out_fds[0], want_ctl ? ctl_fds[1] : -1};
}

PlanInfo CommandWorkerTransport::plan() {
  if (plan_probed_) return plan_;
  const WorkerProcess probe =
      spawn({"--worker-plan", "--quiet"}, /*want_ctl=*/false);
  const std::string out = read_to_eof(probe.out_fd);
  ::close(probe.out_fd);
  int status = 0;
  while (::waitpid(probe.pid, &status, 0) < 0 && errno == EINTR) {
  }
  const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;

  // Scan for the #plan line: transports may prepend banner noise.
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t nl = out.find('\n', pos);
    if (nl == std::string::npos) nl = out.size();
    const std::string line = out.substr(pos, nl - pos);
    if (line.rfind("#plan ", 0) == 0) {
      plan_ = parse_plan_info(line.substr(6));
      plan_probed_ = true;
      return plan_;
    }
    pos = nl + 1;
  }
  const std::string msg =
      "dispatch: worker command produced no #plan header" +
      std::string(clean ? "" : " (and exited uncleanly)") +
      " — does it take sweep flags (is it built on SweepCli)? Output began: " +
      out.substr(0, 200);
  PARATICK_CHECK_MSG(false, msg.c_str());
  return plan_;  // unreachable
}

WorkerProcess CommandWorkerTransport::launch(
    const std::vector<std::size_t>& indices) {
  return spawn({"--worker-slice", encode_slice(indices), "--quiet"},
               /*want_ctl=*/true);
}

}  // namespace paratick::core::dispatch
