// Daemon processes the benchmark drives: spawn with stdout/stderr to
// files, read the port handshakes from the log, read peak RSS, scrape
// the admin endpoint, and stop them (waiting until each has ended).
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Starts argv[0] (a path) with stdin on /dev/null and stdout / stderr
  /// appended to `<log_prefix>.out` / `<log_prefix>.err`, pinned to the
  /// `cpu`-th CPU the harness may run on (modulo their count).
  Daemon(std::vector<std::string> argv, const std::string& log_prefix, int cpu);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for "<needle><port>" on stderr; 0 on timeout or early exit.
  std::uint16_t wait_port(const std::string& needle, double timeout_seconds) const;
  /// Peak resident set (VmHWM) in kB; 0 when unreadable.
  long peak_rss_kb() const;
  /// SIGTERM, wait up to `grace` seconds, then SIGKILL. Returns true when
  /// the process exited with status 0 on its own after the SIGTERM.
  bool stop(double grace_seconds);
  const std::string& out_path() const { return out_path_; }

 private:
  pid_t pid_ = -1;
  std::string out_path_;
  std::string err_path_;
};

/// Pins the calling thread to the `cpu`-th CPU it may run on (modulo
/// their count) for its lifetime, then restores its former CPU set.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int cpu);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
};

/// HTTP/1.0 GET on 127.0.0.1:port; returns the body ("" on failure).
std::string http_get(std::uint16_t port, const std::string& path);

/// Prometheus text exposition -> {"name" or "name{labels}": value}.
std::map<std::string, double> parse_prometheus(const std::string& text);

/// Peak resident set (VmHWM) in kB of process `pid` ("self" for this
/// one); 0 when unreadable.
long peak_rss_kb(const std::string& pid);

}  // namespace perfbench
