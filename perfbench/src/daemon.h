// A bundlemined child process under the benchmark's control.
//
// Unlike the fleet spawner used by the orchestrator, this keeps the child's
// exit status (a run that loses its daemon must say how it died), polls
// readiness at a fine grain (spawn-to-ready is part of the set-up time the
// benchmark reports) and keeps the port handshake file inside the
// benchmark's own work directory.

#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <optional>
#include <string>

#include "util/status.h"

namespace perfbench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Kill(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `binary --port=0 --port-file=<port_file> --workers=4
  /// --threads=1 --queue-depth=64` and waits until it listens. UNAVAILABLE
  /// when it exits or stays silent for `ready_timeout_seconds`.
  bundlemine::Status Start(const std::string& binary,
                           const std::string& port_file,
                           double ready_timeout_seconds);

  int port() const { return port_; }

  /// True while the child runs; reaps it (recording how it ended) once it
  /// has exited.
  bool Alive();

  /// How the child ended ("exit 0", "killed by signal 9"); "running" before.
  std::string ExitDescription() const;
  bool exited_cleanly() const { return reaped_ && exit_code_ == 0; }

  /// The child's peak resident set (VmHWM) in MiB, while it runs.
  std::optional<double> PeakRssMb() const;

  /// Graceful stop: a shutdown request, then up to `timeout_seconds` for the
  /// child to exit; SIGKILL after that. OK iff the child exited with 0.
  bundlemine::Status Stop(double timeout_seconds);

  /// SIGKILL and reap; no-op once reaped.
  void Kill();

 private:
  void Reap(int options);

  int pid_ = -1;
  int port_ = 0;
  bool reaped_ = false;
  int exit_code_ = -1;
  int exit_signal_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
