#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "support/error.h"
#include "support/parse.h"

namespace perfbench {
namespace {

/// A graceful drain of an idle daemon takes milliseconds; past this the
/// daemon is killed so a run always ends.
constexpr auto kStopGrace = std::chrono::seconds(30);

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::string& stderr_path) {
  int out[2];
  if (::pipe(out) != 0) {
    throw pipemap::Error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    throw pipemap::Error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int err = ::open(stderr_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (err >= 0) ::dup2(err, STDERR_FILENO);
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  stdout_fd_ = out[0];

  std::string line;
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(stdout_fd_, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Stop();
      throw pipemap::Error("pipemap_server exited before listening (see " +
                           stderr_path + ")");
    }
    if (c == '\n') break;
    line += c;
  }
  std::istringstream words(line);
  std::string tag, host, port;
  words >> tag >> host >> port;
  const std::optional<int> parsed = pipemap::TryParseInt(port);
  if (tag != "listening" || !parsed) {
    Stop();
    throw pipemap::Error("unexpected pipemap_server banner: " + line);
  }
  port_ = *parsed;
}

Daemon::~Daemon() {
  if (pid_ > 0) Stop();
}

bool Daemon::Stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  // The daemon's final counters document is small enough for the pipe
  // buffer, so it never blocks writing it; it is left unread.
  int status = 0;
  bool exited = false;
  const auto deadline = std::chrono::steady_clock::now() + kStopGrace;
  while (!exited && std::chrono::steady_clock::now() < deadline) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited = true;
    } else if (r < 0 && errno != EINTR) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  ::close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) {
    throw pipemap::Error("cannot read /proc/" + std::to_string(pid) + "/stat");
  }
  // After "pid (comm)" come state (field 3) ... utime (14), stime (15).
  std::istringstream fields(stat.substr(paren + 1));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14 || index == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

long PeakRssKiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  throw pipemap::Error("no VmHWM for pid " + std::to_string(pid));
}

HostCpuTicks ReadHostCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line: user nice system idle iowait
              // irq softirq steal ...
  HostCpuTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && (in >> value); ++field) {
    if (field == 7) {
      ticks.steal = value;
    } else if (field != 3 && field != 4) {
      ticks.busy += value;
    }
  }
  return ticks;
}

double StealShare(const HostCpuTicks& before, const HostCpuTicks& after) {
  const double steal = after.steal - before.steal;
  const double wanted = after.busy - before.busy + steal;
  return wanted > 0.0 ? steal / wanted : 0.0;
}

}  // namespace perfbench
