#include "procs.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "util/fsio.hpp"
#include "util/socket.hpp"

namespace perfbench {

namespace {

/// Restricts the calling thread to the `index`-th CPU (modulo their
/// count) of those it may run on.
void pin_to_cpu(int index) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0 || CPU_COUNT(&allowed) == 0) return;
  int skip = index % CPU_COUNT(&allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

}  // namespace

ScopedCpuPin::ScopedCpuPin(int cpu) {
  ::sched_getaffinity(0, sizeof saved_, &saved_);
  pin_to_cpu(cpu);
}

ScopedCpuPin::~ScopedCpuPin() { ::sched_setaffinity(0, sizeof saved_, &saved_); }

Daemon::Daemon(std::vector<std::string> argv, const std::string& log_prefix, int cpu)
    : out_path_(log_prefix + ".out"), err_path_(log_prefix + ".err") {
  // A log left by an earlier daemon still holds its port handshake.
  ::unlink(out_path_.c_str());
  ::unlink(err_path_.c_str());
  std::vector<char*> raw;
  for (auto& a : argv) raw.push_back(a.data());
  raw.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ == 0) {
    const int in = ::open("/dev/null", O_RDONLY);
    const int out = ::open(out_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in < 0 || out < 0 || err < 0) ::_exit(126);
    ::dup2(in, STDIN_FILENO);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    pin_to_cpu(cpu);
    ::execv(raw[0], raw.data());
    ::_exit(127);
  }
}

Daemon::~Daemon() { stop(2.0); }

std::uint16_t Daemon::wait_port(const std::string& needle, double timeout_seconds) const {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string log = misuse::read_file(err_path_).value_or("");
    const auto pos = log.find(needle);
    if (pos != std::string::npos) {
      const auto digits = log.find_first_not_of("0123456789", pos + needle.size());
      const std::string port = log.substr(pos + needle.size(), digits - pos - needle.size());
      if (!port.empty() && digits != std::string::npos) {
        return static_cast<std::uint16_t>(std::stoul(port));
      }
    }
    int status = 0;
    if (pid_ <= 0 || ::waitpid(pid_, &status, WNOHANG) == pid_) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return 0;
}

long Daemon::peak_rss_kb() const {
  return pid_ > 0 ? perfbench::peak_rss_kb(std::to_string(pid_)) : 0;
}

bool Daemon::stop(double grace_seconds) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(grace_seconds);
  int status = 0;
  bool exited = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  try {
    misuse::TcpStream stream = misuse::tcp_connect("127.0.0.1", port);
    stream.set_read_timeout(5.0);
    stream.io() << "GET " << path << " HTTP/1.0\r\nHost: localhost\r\n\r\n" << std::flush;
    std::stringstream reply;
    reply << stream.io().rdbuf();
    const std::string text = reply.str();
    const auto body = text.find("\r\n\r\n");
    return body == std::string::npos ? std::string{} : text.substr(body + 4);
  } catch (const std::exception&) {
    return {};
  }
}

std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    try {
      out[line.substr(0, space)] = std::stod(line.substr(space + 1));
    } catch (const std::exception&) {
    }
  }
  return out;
}

long peak_rss_kb(const std::string& pid) {
  const std::string status = misuse::read_file("/proc/" + pid + "/status").value_or("");
  const auto pos = status.find("VmHWM:");
  return pos == std::string::npos ? 0 : std::strtol(status.c_str() + pos + 6, nullptr, 10);
}

}  // namespace perfbench
