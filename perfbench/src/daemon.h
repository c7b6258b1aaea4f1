// Runs pipemap_server as a child process the way an operator does, and
// reads its resource use from /proc.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary args...` with stderr appended to `stderr_path`, and
  /// returns once the daemon has printed its `listening HOST PORT` line
  /// (a blocking read of its stdout, no polling). Throws pipemap::Error
  /// when it exits first. The child is killed if this process dies.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& stderr_path);
  /// Stops the daemon if Stop() was not called.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM, then waits for the graceful drain. Returns true when the
  /// daemon exited 0 within the grace period (it is killed otherwise).
  bool Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// User plus system CPU seconds `pid` has used, its finished threads
/// included (/proc/PID/stat).
double ProcessCpuSeconds(pid_t pid);

/// Peak resident set of `pid` in KiB (VmHWM in /proc/PID/status).
long PeakRssKiB(pid_t pid);

/// This machine's CPU time so far (/proc/stat), in ticks: the time its
/// CPUs ran (user, nice, system, irq, softirq), and the time the
/// hypervisor stole from them while they had work to run.
struct HostCpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};
HostCpuTicks ReadHostCpuTicks();

/// Share of the CPU time this machine wanted between two readings that
/// the hypervisor stole, steal / (busy + steal); 0 when none passed.
double StealShare(const HostCpuTicks& before, const HostCpuTicks& after);

}  // namespace perfbench
