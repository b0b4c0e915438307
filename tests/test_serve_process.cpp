// End-to-end process tests of the misusedet_serve binary (path baked in
// as MISUSEDET_SERVE_BIN): SIGTERM graceful drain with live TCP
// connections mid-session, and kill -9 crash recovery via --wal-dir —
// the recovered run's session reports must match an uninterrupted run's.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "synth/portal.hpp"
#include "util/line_io.hpp"
#include "util/socket.hpp"
#include "temp_dir.hpp"

namespace misuse::serve {
namespace {

std::string scratch_dir(const std::string& name) {
  const std::string dir = testing_support::test_temp_path("misusedet_proc_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A spawned misusedet_serve with its three standard streams piped.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& extra_args) {
    int in_pipe[2];
    int out_pipe[2];
    int err_pipe[2];
    if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0) {
      throw std::runtime_error("pipe failed");
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::dup2(err_pipe[1], STDERR_FILENO);
      for (const int fd :
           {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1], err_pipe[0], err_pipe[1]}) {
        ::close(fd);
      }
      std::vector<std::string> args = {MISUSEDET_SERVE_BIN};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stdout_fd_ = out_pipe[0];
    stderr_fd_ = err_pipe[0];
    stdout_buf_ = std::make_unique<FdStreamBuf>(stdout_fd_);
    stdout_stream_ = std::make_unique<std::istream>(stdout_buf_.get());
    stderr_buf_ = std::make_unique<FdStreamBuf>(stderr_fd_);
    stderr_stream_ = std::make_unique<std::istream>(stderr_buf_.get());
  }

  ~ServeProcess() {
    close_stdin();
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    if (stderr_fd_ >= 0) ::close(stderr_fd_);
  }

  /// Writes one NDJSON line to the child's stdin (EINTR-safe full write).
  /// Returns false once the child stopped reading (EPIPE).
  bool write_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::write(stdin_fd_, framed.data() + off, framed.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void close_stdin() {
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
  }

  std::istream& out() { return *stdout_stream_; }
  std::istream& err() { return *stderr_stream_; }

  /// Blocks until the child logs its listening port on stderr.
  std::uint16_t wait_for_port() {
    LineReader reader(*stderr_stream_);
    std::string line;
    while (reader.next(line)) {
      const auto pos = line.find("listening on port ");
      if (pos != std::string::npos) {
        return static_cast<std::uint16_t>(
            std::stoul(line.substr(pos + std::string("listening on port ").size())));
      }
    }
    ADD_FAILURE() << "child exited before logging its port";
    return 0;
  }

  void signal(int sig) { ::kill(pid_, sig); }

  void kill_hard() {
    ::kill(pid_, SIGKILL);
    wait();
  }

  int wait() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  int stderr_fd_ = -1;
  std::unique_ptr<FdStreamBuf> stdout_buf_;
  std::unique_ptr<std::istream> stdout_stream_;
  std::unique_ptr<FdStreamBuf> stderr_buf_;
  std::unique_ptr<std::istream> stderr_stream_;
};

class ServeProcessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The child dying mid-write must surface as a failed write, not kill
    // this test process.
    ::signal(SIGPIPE, SIG_IGN);

    synth::PortalConfig pc;
    pc.sessions = 200;
    pc.users = 30;
    pc.action_count = 50;
    pc.seed = 9;
    synth::Portal portal(pc);
    const SessionStore store = portal.generate();
    core::DetectorConfig dc;
    dc.ensemble.topic_counts = {8, 10};
    dc.ensemble.iterations = 8;
    dc.expert.target_clusters = 3;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 8;
    dc.lm.epochs = 2;
    dc.lm.patience = 0;
    const core::MisuseDetector detector = core::MisuseDetector::train(store, dc);

    model_path_ = new std::string(scratch_dir("model") + "/detector.bin");
    std::ofstream out(*model_path_, std::ios::binary);
    BinaryWriter writer(out);
    detector.save(writer);

    // An interleaved six-session NDJSON trace over the trained vocabulary.
    trace_ = new std::vector<std::string>();
    trace_sessions_ = new std::vector<std::size_t>();
    actions_ = new std::vector<std::string>();
    std::vector<std::vector<int>> sessions;
    for (std::size_t i = 0; i < store.size() && sessions.size() < 6; ++i) {
      if (store.at(i).length() >= 3 && store.at(i).length() <= 15) {
        sessions.push_back(store.at(i).actions);
      }
    }
    std::vector<std::size_t> cursor(sessions.size(), 0);
    double t = 0.0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        if (cursor[s] >= sessions[s].size()) continue;
        const std::string action = detector.vocab().name(sessions[s][cursor[s]]);
        actions_->push_back(action);
        trace_sessions_->push_back(s);
        std::string user = "u";
        user += std::to_string(s % 3);
        std::string session = "s";
        session += std::to_string(s);
        trace_->push_back(event_line(user, session, action, t));
        t += 1.0;
        ++cursor[s];
        progressed = true;
      }
    }
  }
  static void TearDownTestSuite() {
    delete model_path_;
    delete trace_;
    delete trace_sessions_;
    delete actions_;
    model_path_ = nullptr;
    trace_ = nullptr;
    trace_sessions_ = nullptr;
    actions_ = nullptr;
  }

  static std::string event_line(const std::string& user, const std::string& session,
                                const std::string& action, double t) {
    std::ostringstream line;
    line << R"({"user_id":")" << user << R"(","session_id":")" << session
         << R"(","action":")" << action << R"(","timestamp":)" << t << "}";
    return line.str();
  }

  static std::vector<std::string> session_reports(const std::vector<std::string>& lines) {
    std::vector<std::string> reports;
    for (const auto& line : lines) {
      if (line.find("\"type\":\"session_report\"") != std::string::npos) {
        reports.push_back(line);
      }
    }
    std::sort(reports.begin(), reports.end());
    return reports;
  }

  static std::vector<std::string> drain(std::istream& in) {
    std::vector<std::string> lines;
    LineReader reader(in);
    std::string line;
    while (reader.next(line)) lines.push_back(line);
    return lines;
  }

  /// Feeds lines on a helper thread (so the child's stdout never backs up
  /// against our stdin writes), drains stdout to EOF, reaps the child.
  static std::vector<std::string> feed_and_drain(ServeProcess& proc,
                                                 const std::vector<std::string>& lines,
                                                 int& exit_status) {
    std::thread feeder([&proc, &lines] {
      for (const auto& line : lines) {
        if (!proc.write_line(line)) break;
      }
      proc.close_stdin();
    });
    const auto out = drain(proc.out());
    feeder.join();
    exit_status = proc.wait();
    return out;
  }

  /// Reference run: the whole trace through one uninterrupted pipe-mode
  /// process, no WAL.
  static std::vector<std::string> baseline_reports() {
    ServeProcess proc({"--model=" + *model_path_, "--batch=4"});
    int status = 0;
    const auto lines = feed_and_drain(proc, *trace_, status);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    return session_reports(lines);
  }

  static std::string* model_path_;
  static std::vector<std::string>* trace_;
  static std::vector<std::size_t>* trace_sessions_;  // session index of each trace line
  static std::vector<std::string>* actions_;
};

std::string* ServeProcessFixture::model_path_ = nullptr;
std::vector<std::string>* ServeProcessFixture::trace_ = nullptr;
std::vector<std::size_t>* ServeProcessFixture::trace_sessions_ = nullptr;
std::vector<std::string>* ServeProcessFixture::actions_ = nullptr;

// SIGTERM with multiple TCP connections mid-session: every open session
// gets a session_report on stdout before the process exits cleanly.
TEST_F(ServeProcessFixture, SigtermDrainsOpenTcpSessions) {
  ServeProcess proc({"--model=" + *model_path_, "--listen=0"});
  const std::uint16_t port = proc.wait_for_port();
  ASSERT_GT(port, 0);

  // Two concurrent connections, two in-flight sessions each; every
  // submitted event's verdict is read back, so all events are applied
  // before the signal lands.
  std::vector<TcpStream> clients;
  clients.push_back(tcp_connect("127.0.0.1", port));
  clients.push_back(tcp_connect("127.0.0.1", port));
  double t = 0.0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      for (int k = 0; k < 2; ++k) {
        const std::string& action =
            (*actions_)[(static_cast<std::size_t>(round) * 4 + c * 2 +
                         static_cast<std::size_t>(k)) %
                        actions_->size()];
        clients[c].io() << event_line("tcp" + std::to_string(c),
                                      "conn" + std::to_string(c) + "-" + std::to_string(k),
                                      action, t)
                        << "\n";
        clients[c].io().flush();
        t += 1.0;
        std::string verdict;
        LineReader reader(clients[c].io());
        ASSERT_TRUE(reader.next(verdict)) << "no verdict for connection " << c;
        EXPECT_NE(verdict.find("\"type\":\"step\""), std::string::npos) << verdict;
      }
    }
  }

  proc.signal(SIGTERM);
  const auto lines = drain(proc.out());
  const int status = proc.wait();
  EXPECT_TRUE(WIFEXITED(status)) << "server must exit, not die on a signal";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const auto reports = session_reports(lines);
  ASSERT_EQ(reports.size(), 4u) << "one report per open session";
  for (std::size_t c = 0; c < 2; ++c) {
    for (int k = 0; k < 2; ++k) {
      const std::string id = "conn" + std::to_string(c) + "-" + std::to_string(k);
      EXPECT_TRUE(std::any_of(reports.begin(), reports.end(),
                              [&](const std::string& r) {
                                return r.find(id) != std::string::npos;
                              }))
          << "missing report for session " << id;
    }
  }
}

// Differential lockdown of the TCP front end against stdin pipe mode.
// Pipe mode with --batch=1 scores one event at a time in input order, so
// its stdout is one verdict line per input line (step or error record)
// followed by the shutdown session reports. The TCP runs must match it
// byte for byte on the same event order:
//   * lockstep — send one event, read its verdict — over two connections
//     taking the trace's lines alternately, so the server sees exactly
//     the trace order;
//   * session-pinned streams (a malformed line and an unknown action in
//     connection 0's middle), sent lockstep connection after connection,
//     and sent pipelined: each connection's whole stream in one write,
//     then a half-close. Pipelining puts several events of one session
//     into one epoll wakeup (one fused submit_batch), so any divergence
//     is a framing, batching or reply-routing bug in the front end.
TEST_F(ServeProcessFixture, TcpFrontEndMatchesPipeModeByteForByte) {
  struct Run {
    std::vector<std::vector<std::string>> per_connection;
    std::vector<std::string> reports;
  };
  // Splits pipe-mode stdout into per-connection verdicts: line i of
  // `lines` belongs to connection owner[i]. `batch` is the --batch flag
  // ("" = the default).
  const auto run_pipe = [&](const std::vector<std::string>& lines,
                            const std::vector<std::size_t>& owner, std::size_t connections,
                            const std::string& batch) {
    Run result;
    std::vector<std::string> args = {"--model=" + *model_path_};
    if (!batch.empty()) args.push_back(batch);
    ServeProcess proc(args);
    int status = 0;
    const auto out = feed_and_drain(proc, lines, status);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "pipe mode";
    result.reports = session_reports(out);
    EXPECT_EQ(out.size(), lines.size() + result.reports.size()) << "one verdict per line";
    result.per_connection.resize(connections);
    for (std::size_t i = 0; i < lines.size() && i < out.size(); ++i) {
      result.per_connection[owner[i]].push_back(out[i]);
    }
    return result;
  };
  // streams[c] goes out on connection c: lockstep, taking the next line
  // of connection order[k] at step k, or pipelined with a half-close.
  const auto run_listen = [&](const std::vector<std::vector<std::string>>& streams,
                           const std::vector<std::size_t>& order, bool pipelined) {
    Run result;
    ServeProcess proc({"--model=" + *model_path_, "--listen=0"});
    const std::uint16_t port = proc.wait_for_port();
    EXPECT_GT(port, 0);
    std::vector<TcpStream> clients;
    std::vector<std::unique_ptr<LineReader>> readers;
    for (std::size_t c = 0; c < streams.size(); ++c) {
      clients.push_back(tcp_connect("127.0.0.1", port));
      clients.back().set_read_timeout(30.0);  // a missing reply fails, never hangs
      readers.push_back(std::make_unique<LineReader>(clients.back().io()));
    }
    result.per_connection.resize(clients.size());
    if (pipelined) {
      for (std::size_t c = 0; c < clients.size(); ++c) {
        std::string blob;
        for (const auto& line : streams[c]) {
          blob += line;
          blob += '\n';
        }
        clients[c].io() << blob;
        clients[c].io().flush();
        clients[c].shutdown_write();
      }
      for (std::size_t c = 0; c < clients.size(); ++c) {
        result.per_connection[c] = drain(clients[c].io());
      }
    } else {
      std::vector<std::size_t> next(clients.size(), 0);
      for (const std::size_t c : order) {
        const std::string& line = streams[c][next[c]++];
        clients[c].io() << line << "\n";
        clients[c].io().flush();
        std::string verdict;
        if (!readers[c]->next(verdict)) {
          ADD_FAILURE() << "no verdict for " << line;
          break;
        }
        result.per_connection[c].push_back(verdict);
      }
      for (auto& client : clients) client.shutdown_write();
    }
    proc.signal(SIGTERM);
    const auto lines = drain(proc.out());
    const int status = proc.wait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << (pipelined ? "pipelined" : "lockstep");
    result.reports = session_reports(lines);
    return result;
  };
  const auto expect_same = [](const Run& expected, const Run& actual, const char* what) {
    ASSERT_EQ(expected.per_connection.size(), actual.per_connection.size()) << what;
    for (std::size_t c = 0; c < expected.per_connection.size(); ++c) {
      EXPECT_EQ(expected.per_connection[c], actual.per_connection[c])
          << what << ", connection " << c;
    }
    ASSERT_EQ(actual.reports.size(), 6u) << what << ": one shutdown report per session";
    EXPECT_EQ(expected.reports, actual.reports) << what;
  };

  // Trace order, connections alternating.
  std::vector<std::vector<std::string>> alternating(2);
  std::vector<std::size_t> alternating_owner;
  for (std::size_t i = 0; i < trace_->size(); ++i) {
    alternating[i % 2].push_back((*trace_)[i]);
    alternating_owner.push_back(i % 2);
  }
  expect_same(run_pipe(*trace_, alternating_owner, 2, "--batch=1"),
              run_listen(alternating, alternating_owner, false), "alternating lockstep");

  // Session-pinned stream per connection, with a malformed line and an
  // unknown action in connection 0's middle; lockstep order is
  // connection 0's whole stream, then connection 1's.
  std::vector<std::vector<std::string>> streams(2);
  for (std::size_t i = 0; i < trace_->size(); ++i) {
    streams[(*trace_sessions_)[i] % 2].push_back((*trace_)[i]);
  }
  const auto mid = static_cast<std::ptrdiff_t>(streams[0].size() / 2);
  streams[0].insert(streams[0].begin() + mid,
                    {R"({"user_id":"u0","session_id":)",
                     event_line("u0", "s-unknown", "no_such_action", 1.5)});
  std::vector<std::string> pinned_lines;
  std::vector<std::size_t> pinned_owner;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    pinned_lines.insert(pinned_lines.end(), streams[c].begin(), streams[c].end());
    pinned_owner.insert(pinned_owner.end(), streams[c].size(), c);
  }
  const Run pipe = run_pipe(pinned_lines, pinned_owner, 2, "--batch=1");
  for (std::size_t c = 0; c < streams.size(); ++c) {
    ASSERT_EQ(pipe.per_connection[c].size(), streams[c].size()) << "connection " << c;
  }
  EXPECT_NE(pipe.per_connection[0][static_cast<std::size_t>(mid)].find("\"error\""),
            std::string::npos);
  EXPECT_NE(pipe.per_connection[0][static_cast<std::size_t>(mid) + 1].find("unknown action"),
            std::string::npos);
  // One batch per line or one batch for the whole stream: the error
  // records land in their lines' slots either way.
  expect_same(pipe, run_pipe(pinned_lines, pinned_owner, 2, ""), "pinned pipe, default batch");
  expect_same(pipe, run_listen(streams, pinned_owner, false), "pinned lockstep");
  expect_same(pipe, run_listen(streams, pinned_owner, true), "pinned pipelined");
}

// kill -9 mid-replay, restart on the same --wal-dir with --resume-replay,
// resend the stream from origin: the surviving run's session reports
// equal an uninterrupted run's.
TEST_F(ServeProcessFixture, Kill9RecoveryMatchesBaseline) {
  const auto baseline = baseline_reports();
  ASSERT_GT(baseline.size(), 0u);
  const std::string wal_dir = scratch_dir("kill9_wal");
  const std::size_t cut = trace_->size() / 2;

  {
    ServeProcess crashed({"--model=" + *model_path_, "--batch=1", "--wal-dir=" + wal_dir,
                          "--wal-sync=1"});
    LineReader reader(crashed.out());
    std::string line;
    std::size_t steps_seen = 0;
    for (std::size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(crashed.write_line((*trace_)[i]));
      // --batch=1 flushes after every event; wait for its verdict so the
      // event is known applied (and, with --wal-sync=1, fsynced).
      while (reader.next(line)) {
        if (line.find("\"type\":\"step\"") != std::string::npos) {
          ++steps_seen;
          break;
        }
      }
    }
    ASSERT_EQ(steps_seen, cut);
    crashed.kill_hard();
  }

  ServeProcess restarted({"--model=" + *model_path_, "--batch=4", "--wal-dir=" + wal_dir,
                          "--resume-replay"});
  int status = 0;
  const auto lines = feed_and_drain(restarted, *trace_, status);  // from origin
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(session_reports(lines), baseline);
}

// CliArgs folds "--no-X" into key "X" with value "false", so main must
// read negative flags through their positive name; a consumption bug
// once left --no-steps silently inert. Pin it through the real binary:
// --no-steps suppresses per-step verdicts while reports still drain.
TEST_F(ServeProcessFixture, NegativeFlagsReachTheServer) {
  ServeProcess proc({"--model=" + *model_path_, "--batch=4", "--no-steps"});
  int status = 0;
  const auto lines = feed_and_drain(proc, *trace_, status);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("\"type\":\"step\""), std::string::npos) << line;
  }
  EXPECT_EQ(session_reports(lines).size(), 6u) << "one report per drained session";
}

// EOF drain without --metrics-out: the final metrics snapshot must still
// surface, logged at INFO on stderr, so operators of bare deployments
// (no scrape file, no admin port) get the run's counters post-mortem.
TEST_F(ServeProcessFixture, DrainLogsFinalMetricsSnapshotWithoutMetricsOut) {
  ServeProcess proc({"--model=" + *model_path_, "--batch=4"});
  int status = 0;
  (void)feed_and_drain(proc, *trace_, status);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const auto logs = drain(proc.err());
  const auto snapshot = std::find_if(logs.begin(), logs.end(), [](const std::string& l) {
    return l.find("final metrics snapshot: ") != std::string::npos;
  });
  ASSERT_NE(snapshot, logs.end()) << "no final snapshot logged on EOF drain";
  EXPECT_NE(snapshot->find("\"serve.steps\""), std::string::npos) << *snapshot;
  EXPECT_NE(snapshot->find("\"serve.sessions_finished\""), std::string::npos) << *snapshot;
}

}  // namespace
}  // namespace misuse::serve
