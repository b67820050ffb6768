#include "daemon.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "serve/client.h"
#include "util/strings.h"

namespace perfbench {

using bundlemine::Status;
using bundlemine::StrFormat;

Status Daemon::Start(const std::string& binary, const std::string& port_file,
                     double ready_timeout_seconds) {
  std::remove(port_file.c_str());
  const std::string port_file_flag = "--port-file=" + port_file;
  const int pid = ::fork();
  if (pid < 0) return Status::Unavailable("fork failed");
  if (pid == 0) {
    // The daemon's banner and shutdown summary would interleave with the
    // benchmark's report.
    if (std::freopen("/dev/null", "w", stderr) == nullptr) ::_exit(126);
    ::execl(binary.c_str(), binary.c_str(), "--port=0", port_file_flag.c_str(),
            "--workers=4", "--threads=1", "--queue-depth=64",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pid_ = pid;
  reaped_ = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(ready_timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(port_file);
    long long port = 0;
    // The daemon writes "<port>\n" once listening; the newline marks a
    // complete write.
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n' &&
        (std::istringstream(text) >> port) && port > 0) {
      port_ = static_cast<int>(port);
      return Status::Ok();
    }
    if (!Alive()) {
      return Status::Unavailable("bundlemined exited before listening (" +
                                 ExitDescription() + ")");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Kill();
  return Status::Unavailable(StrFormat("bundlemined not ready within %.1fs",
                                       ready_timeout_seconds));
}

void Daemon::Reap(int options) {
  if (pid_ <= 0 || reaped_) return;
  int status = 0;
  if (::waitpid(pid_, &status, options) != pid_) return;
  reaped_ = true;
  if (WIFEXITED(status)) exit_code_ = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) exit_signal_ = WTERMSIG(status);
}

bool Daemon::Alive() {
  Reap(WNOHANG);
  return pid_ > 0 && !reaped_;
}

std::string Daemon::ExitDescription() const {
  if (!reaped_) return "running";
  if (exit_signal_ != 0) return StrFormat("killed by signal %d", exit_signal_);
  return StrFormat("exit %d", exit_code_);
}

std::optional<double> Daemon::PeakRssMb() const {
  if (pid_ <= 0 || reaped_) return std::nullopt;
  std::ifstream in(StrFormat("/proc/%d/status", pid_));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    if (fields >> kib) return kib / 1024.0;
  }
  return std::nullopt;
}

Status Daemon::Stop(double timeout_seconds) {
  if (pid_ <= 0 || reaped_) {
    return exited_cleanly() ? Status::Ok()
                            : Status::Unavailable("bundlemined " +
                                                  ExitDescription());
  }
  bundlemine::StatusOr<bundlemine::WireClient> client =
      bundlemine::WireClient::Connect("127.0.0.1", port_);
  if (client.ok()) {
    client->set_call_timeout(timeout_seconds);
    if (!client->Call(R"({"kind":"shutdown"})").ok()) {
      std::fprintf(stderr, "perfbench: shutdown request unanswered\n");
    }
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (Alive() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (Alive()) {
    Kill();
    return Status::Unavailable("bundlemined did not exit after shutdown");
  }
  return exited_cleanly()
             ? Status::Ok()
             : Status::Unavailable("bundlemined " + ExitDescription());
}

void Daemon::Kill() {
  if (pid_ <= 0 || reaped_) return;
  ::kill(pid_, SIGKILL);
  Reap(0);
}

}  // namespace perfbench
