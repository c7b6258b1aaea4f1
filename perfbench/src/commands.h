// The perfbench subcommands; run.py drives them and turns their JSON
// documents into the benchmark's metrics.
#pragma once

#include <cstdint>
#include <string>

#include "problems.h"

namespace perfbench {

struct DriveOptions {
  WorkloadKind kind = WorkloadKind::kTable2Hot;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Times the whole set-up runs before the timed window, each on a
  /// fresh daemon, and again after it; the last one before serves it.
  int setups = 5;
  std::string server;    ///< pipemap_server binary
  std::string work_dir;  ///< access logs, daemon stderr
};

/// The socket run: set-up, then kCallers closed-loop callers for
/// `seconds`, then the answer check. Prints one JSON document.
int Drive(const DriveOptions& options);

struct ReplayOptions {
  WorkloadKind kind = WorkloadKind::kTable2Hot;
  std::uint64_t seed = 1;
  /// Wall-clock budget for replaying the window's requests.
  double seconds = 10.0;
  /// Window requests each caller sent in the socket run; the replay
  /// stops at these counts or at the budget, whichever comes first.
  std::int64_t requests[kCallers] = {0, 0};
  std::string work_dir;    ///< the probe's cache directory
  std::string spans_path;  ///< where the span log is written
};

/// The traced in-process replay. Prints one JSON document of per-layer
/// metrics.
int Replay(const ReplayOptions& options);

/// Shows that the answer check accepts a correct response and rejects a
/// perturbed mapping, a wrong trace id and the other failure modes.
int Selftest();

}  // namespace perfbench
