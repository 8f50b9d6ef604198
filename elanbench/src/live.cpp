// The `live` workload: tools/elan_launch runs a real job — one AM and two to
// four elan_worker processes over SocketTransport — through repeated 2 -> 4
// -> 2 scale cycles. The benchmark times the launcher's stdout markers as
// they arrive and checks the launcher's verdict, every SCALED count, and
// that no process of the run outlives it.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"

namespace elanbench {
namespace {

constexpr int kSmall = 2;
constexpr int kLarge = 4;
constexpr int kCyclesPerLaunch = 25;
constexpr const char* kSpeed = "1000";
constexpr std::chrono::seconds kLaunchTimeout{90};

struct Line {
  std::string text;
  Clock::time_point at;
};

/// Direct children of this process (a subreaper inherits orphans).
std::vector<pid_t> living_children() {
  std::vector<pid_t> out;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return out;
  const pid_t self = ::getpid();
  while (dirent* e = ::readdir(proc)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(e->d_name));
    if (pid <= 0) continue;
    std::ifstream stat("/proc/" + std::string(e->d_name) + "/stat");
    std::string content((std::istreambuf_iterator<char>(stat)), {});
    const auto close = content.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    int ppid = 0;
    if (std::sscanf(content.c_str() + close + 1, " %c %d", &state, &ppid) == 2 &&
        ppid == self) {
      out.push_back(pid);
    }
  }
  ::closedir(proc);
  return out;
}

/// Spawns elan_launch and collects its stdout lines with arrival times.
/// Returns the launcher's exit status (-1 when it had to be killed).
int run_launcher(const Context& ctx, const std::vector<int>& targets, std::vector<Line>& lines) {
  std::string scale;
  for (int t : targets) scale += (scale.empty() ? "" : ",") + std::to_string(t);
  const std::string bin = ctx.bin_dir + "/elan_launch";
  const std::string dir = ctx.work_dir + "/live";
  const std::string log = ctx.work_dir + "/live-launcher.log";
  std::vector<std::string> args = {bin,      "--workers", std::to_string(kSmall),
                                   "--scale", scale,       "--speed",
                                   kSpeed,    "--dir",     dir,
                                   "--step-timeout", "30"};
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  const auto deadline = Clock::now() + kLaunchTimeout;
  std::string partial;
  char buf[4096];
  bool timed_out = false;
  for (;;) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    const int left_ms = static_cast<int>(ms_between(Clock::now(), deadline));
    if (left_ms <= 0) {
      timed_out = true;
      break;
    }
    const int ready = ::poll(&pfd, 1, left_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
    const auto now = Clock::now();
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    partial.append(buf, static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = partial.find('\n')) != std::string::npos;) {
      lines.push_back(Line{partial.substr(0, nl), now});
      partial.erase(0, nl + 1);
    }
  }
  ::close(out_pipe[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

Outcome run_live(const Context& ctx, Budget budget, Spans& spans, Checks& checks) {
  // Orphaned descendants of the launcher become our children, so a process
  // left running by the run is visible (and reaped) here.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  Outcome out;
  std::vector<double> scale_out, scale_in;
  bool have_steady = false;
  double measured_s = 0;
  for (;;) {
    const int cycles = budget.seconds > 0 ? kCyclesPerLaunch : budget.rounds;
    std::vector<int> targets;
    for (int c = 0; c < cycles; ++c) {
      targets.push_back(kLarge);
      targets.push_back(kSmall);
    }
    std::vector<Line> lines;
    const int status = run_launcher(ctx, targets, lines);
    out.attempted += targets.size();

    bool ok_marker = false, steady = false;
    std::size_t scaled = 0;
    int current = kSmall;
    Clock::time_point previous, steady_at;
    for (const auto& line : lines) {
      if (line.text == "OK") ok_marker = true;
      if (line.text == "STEADY workers=" + std::to_string(kSmall)) {
        steady = true;
        steady_at = previous = line.at;
      }
      if (line.text.rfind("SCALED workers=", 0) != 0 || !steady) continue;
      const int count = std::atoi(line.text.c_str() + std::strlen("SCALED workers="));
      const bool matches = scaled < targets.size() && count == targets[scaled];
      checks.expect(matches, "live.scaled_count",
                    "marker " + std::to_string(scaled) + " reports " + std::to_string(count));
      if (matches) {
        (count > current ? scale_out : scale_in).push_back(ms_between(previous, line.at));
        spans.add(count > current ? "live.scale_out" : "live.scale_in", previous, line.at);
        current = count;
      }
      previous = line.at;
      ++scaled;
    }
    out.failed += targets.size() - std::min(targets.size(), scaled);
    checks.expect(status == 0 && ok_marker, "live.launcher_ok",
                  "exit status " + std::to_string(status) +
                      (ok_marker ? "" : ", no OK marker") + " (log: " + ctx.work_dir +
                      "/live-launcher.log)");
    checks.expect(scaled == targets.size(), "live.scaled_count",
                  std::to_string(scaled) + " of " + std::to_string(targets.size()) +
                      " SCALED markers");

    // No process of the run may outlive the launcher.
    int leftovers = 0;
    for (pid_t child : living_children()) {
      ++leftovers;
      ::kill(child, SIGKILL);
    }
    for (;;) {
      const pid_t r = ::waitpid(-1, nullptr, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) break;
    }
    checks.expect(leftovers == 0, "live.no_leftover_processes",
                  std::to_string(leftovers) + " processes outlived the launcher");

    if (!steady) break;
    if (!have_steady) {
      have_steady = true;
      out.end_to_end["setup_s"] = seconds_between(ctx.process_start, steady_at);
    }
    measured_s += seconds_between(steady_at, previous);
    if (status != 0 || budget.seconds <= 0 || measured_s >= budget.seconds) break;
  }
  // The launcher waits for its AM and workers, so this is the largest
  // process of the run.
  out.per_layer["process.peak_rss_mb"] = peak_rss_mb_children();
  if (!scale_out.empty()) out.end_to_end["live_scale_out_ms"] = median(scale_out);
  if (!scale_in.empty()) out.end_to_end["live_scale_in_ms"] = median(scale_in);
  std::fprintf(stderr, "live: %zu scale-outs (median %.2f ms), %zu scale-ins (median %.2f ms)\n",
               scale_out.size(), scale_out.empty() ? 0.0 : median(scale_out), scale_in.size(),
               scale_in.empty() ? 0.0 : median(scale_in));
  return out;
}

}  // namespace elanbench
