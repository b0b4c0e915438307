// EpollLoop hardening tests: the nonblocking NDJSON front end must
// survive adversarial producers (slow-loris drips, oversized lines,
// half-closes, consumers that stop reading) and high connection churn
// without leaking a connection or stalling the loop thread. Scoring
// byte-identity between the TCP front end and stdin pipe mode is pinned
// separately in test_serve_process.cpp; these tests exercise the loop
// in isolation with an echo handler.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/epoll_loop.hpp"
#include "util/line_io.hpp"
#include "util/socket.hpp"

namespace misuse::serve {
namespace {

using namespace std::chrono_literals;

/// Runs an EpollLoop on its own thread; the default handler echoes
/// every line back as "ack:<line>\n".
class EpollFixture : public ::testing::Test {
 protected:
  void SetUp() override { std::signal(SIGPIPE, SIG_IGN); }

  void start(EpollConfig config = {}, EpollHandlers handlers = {}) {
    config.host = "127.0.0.1";
    if (!handlers.on_lines) {
      handlers.on_lines = each_line(
          [this](std::uint64_t conn, std::string_view line, std::string& replies) {
            last_conn_.store(conn, std::memory_order_relaxed);
            lines_seen_.fetch_add(1, std::memory_order_relaxed);
            replies.append("ack:");
            replies.append(line);
            replies.push_back('\n');
          });
    }
    if (!handlers.on_close) {
      handlers.on_close = [this](std::uint64_t) {
        closes_seen_.fetch_add(1, std::memory_order_relaxed);
      };
    }
    loop_ = std::make_unique<EpollLoop>(config, std::move(handlers));
    thread_ = std::thread([this] { loop_->run(); });
  }

  void TearDown() override {
    if (loop_) loop_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  TcpStream connect() { return tcp_connect("127.0.0.1", loop_->port()); }

  /// Polls `pred` until true or the deadline passes.
  static bool eventually(const std::function<bool()>& pred, std::chrono::milliseconds limit = 5s) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(2ms);
    }
    return pred();
  }

  std::unique_ptr<EpollLoop> loop_;
  std::thread thread_;
  std::atomic<std::uint64_t> last_conn_{0};
  std::atomic<std::uint64_t> lines_seen_{0};
  std::atomic<std::uint64_t> closes_seen_{0};
};

TEST_F(EpollFixture, EchoesLinesAndFoldsCrlf) {
  start();
  TcpStream client = connect();
  client.io() << "alpha\r\n" << "beta\n";
  client.io().flush();
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:alpha");  // CRLF folded: no '\r' in the frame
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:beta");
}

TEST_F(EpollFixture, SlowLorisPartialFramesAssembleOneLine) {
  start();
  TcpStream client = connect();
  const std::string payload = "slow-loris-frame-0123456789";
  for (char ch : payload) {
    ASSERT_EQ(::write(client.fd(), &ch, 1), 1);
    std::this_thread::sleep_for(1ms);  // every byte is its own read(2) on the loop
  }
  ASSERT_EQ(::write(client.fd(), "\n", 1), 1);
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:" + payload);
  EXPECT_EQ(lines_seen_.load(), 1u);  // one frame, not one per byte
}

TEST_F(EpollFixture, HalfCloseDeliversFinalUnterminatedLine) {
  start();
  TcpStream client = connect();
  client.io() << "first\n" << "tail-no-newline";
  client.io().flush();
  client.shutdown_write();  // peer EOF with a partial frame pending
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:first");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:tail-no-newline");
  EXPECT_FALSE(reader.next(line));  // server closed after the flush
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() == 1; }));
}

TEST_F(EpollFixture, OversizedLinePoisonsConnection) {
  EpollConfig config;
  config.max_line_bytes = 64;
  start(config);
  TcpStream client = connect();
  const std::string oversized(256, 'x');  // no newline: an unbounded frame
  client.io() << oversized;
  client.io().flush();
  LineReader reader(client.io());
  std::string line;
  EXPECT_FALSE(reader.next(line));  // connection dropped, nothing echoed
  EXPECT_EQ(lines_seen_.load(), 0u);
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() == 1; }));
}

TEST_F(EpollFixture, SlowConsumerPastOutputCapIsDisconnected) {
  EpollConfig config;
  config.max_output_bytes = 32 << 10;
  EpollHandlers handlers;
  const std::string big_reply(64 << 10, 'y');
  // By value: the loop thread outlives this scope (TearDown joins it),
  // so a by-reference capture would race the local's destruction.
  handlers.on_lines = each_line([big_reply](std::uint64_t, std::string_view, std::string& replies) {
    replies.append(big_reply);
    replies.push_back('\n');
  });
  start(config, std::move(handlers));
  TcpStream client = connect();
  // Never read; each request provokes a 64KB reply, so the backlog blows
  // the 32KB cap as soon as the kernel buffers fill.
  for (int i = 0; i < 256; ++i) {
    const char* req = "hit\n";
    if (::write(client.fd(), req, 4) < 0) break;  // server already hung up
    std::this_thread::sleep_for(1ms);
    if (loop_->overflowed_total() > 0) break;
  }
  EXPECT_TRUE(eventually([this] { return loop_->overflowed_total() >= 1; }));
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() >= 1; }));
}

TEST_F(EpollFixture, PostedBacklogPastOutputCapIsDisconnected) {
  // Same slow-consumer contract as on_lines replies, but through post():
  // in the router every verdict reaches the client via post, so a
  // client that stops reading must still hit the cap.
  EpollConfig config;
  config.max_output_bytes = 32 << 10;
  start(config);
  TcpStream client = connect();
  client.io() << "hello\n";
  client.io().flush();
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));  // learns the connection id
  const std::uint64_t conn = last_conn_.load();
  ASSERT_NE(conn, 0u);
  // Stop reading and inject 64KB chunks from off-loop; once the kernel
  // socket buffer is full the backlog crosses the 32KB cap.
  const std::string chunk(64 << 10, 'z');
  for (int i = 0; i < 256; ++i) {
    if (!loop_->post(conn, chunk + "\n")) break;  // already retired
    std::this_thread::sleep_for(1ms);
    if (loop_->overflowed_total() > 0) break;
  }
  EXPECT_TRUE(eventually([this] { return loop_->overflowed_total() >= 1; }));
  EXPECT_TRUE(eventually([this] { return closes_seen_.load() >= 1; }));
  EXPECT_FALSE(loop_->post(conn, "after-retire\n"));
}

TEST_F(EpollFixture, PostInjectsOutputFromAnotherThread) {
  start();
  TcpStream client = connect();
  client.io() << "hello\n";
  client.io().flush();
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "ack:hello");
  const std::uint64_t conn = last_conn_.load();
  ASSERT_NE(conn, 0u);
  EXPECT_TRUE(loop_->post(conn, "injected-1\ninjected-2\n"));
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "injected-1");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "injected-2");
  EXPECT_FALSE(loop_->post(conn + 999, "nobody\n"));  // unknown connection
}

TEST_F(EpollFixture, PostToRetiredConnectionIsRejected) {
  start();
  {
    TcpStream client = connect();
    client.io() << "hello\n";
    client.io().flush();
    LineReader reader(client.io());
    std::string line;
    ASSERT_TRUE(reader.next(line));
  }  // client gone
  const std::uint64_t conn = last_conn_.load();
  ASSERT_TRUE(eventually([this] { return closes_seen_.load() == 1; }));
  EXPECT_FALSE(loop_->post(conn, "too-late\n"));
}

TEST_F(EpollFixture, ConnectionChurnLeaksNothing) {
  start();
  constexpr int kSequential = 1000;
  for (int i = 0; i < kSequential; ++i) {
    TcpStream client = connect();
    client.io() << "churn-" << i << "\n";
    client.io().flush();
    LineReader reader(client.io());
    std::string line;
    ASSERT_TRUE(reader.next(line)) << "connection " << i;
    ASSERT_EQ(line, "ack:churn-" + std::to_string(i));
  }
  // A burst of concurrent connections on top of the sequential churn.
  constexpr int kConcurrent = 50;
  std::vector<std::thread> workers;
  std::atomic<int> ok{0};
  workers.reserve(kConcurrent);
  for (int i = 0; i < kConcurrent; ++i) {
    workers.emplace_back([this, i, &ok] {
      TcpStream client = connect();
      client.io() << "burst-" << i << "\n";
      client.io().flush();
      LineReader reader(client.io());
      std::string line;
      if (reader.next(line) && line == "ack:burst-" + std::to_string(i)) ok.fetch_add(1);
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(ok.load(), kConcurrent);
  EXPECT_EQ(loop_->accepted_total(), static_cast<std::uint64_t>(kSequential + kConcurrent));
  EXPECT_TRUE(eventually([this] {
    return closes_seen_.load() == static_cast<std::uint64_t>(kSequential + kConcurrent);
  }));
  EXPECT_EQ(lines_seen_.load(), static_cast<std::uint64_t>(kSequential + kConcurrent));
}

TEST_F(EpollFixture, TwoConnectionsInterleaveIndependently) {
  start();
  TcpStream a = connect();
  TcpStream b = connect();
  LineReader reader_a(a.io());
  LineReader reader_b(b.io());
  std::string line;
  for (int round = 0; round < 20; ++round) {
    a.io() << "a-" << round << "\n";
    a.io().flush();
    b.io() << "b-" << round << "\n";
    b.io().flush();
    ASSERT_TRUE(reader_b.next(line));  // read b first: replies are per-connection
    EXPECT_EQ(line, "ack:b-" + std::to_string(round));
    ASSERT_TRUE(reader_a.next(line));
    EXPECT_EQ(line, "ack:a-" + std::to_string(round));
  }
}

// Lines that two connections deliver while the loop is busy reach the
// handler together, in one on_lines call, and every connection gets its
// replies back in its own line order — a half-closed peer's final
// unterminated line included.
TEST_F(EpollFixture, OneWakeupBatchesLinesAcrossConnections) {
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> calls;
  EpollHandlers handlers;
  handlers.on_lines = [&](std::span<const EpollLine> lines, std::span<std::string> replies) {
    std::unique_lock<std::mutex> lock(mutex);
    auto& call = calls.emplace_back();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      call.emplace_back(lines[i].conn, std::string(lines[i].text));
      // Two reply lines per input line: order must hold within a line too.
      replies[i] += "ack:" + std::string(lines[i].text) + "\n";
      replies[i] += "end:" + std::string(lines[i].text) + "\n";
    }
    cv.notify_all();
    // The first call parks the loop until both clients have written
    // (bounded, so a failed assertion cannot hang TearDown's join).
    cv.wait_for(lock, 5s, [&] { return release; });
  };
  start({}, std::move(handlers));

  TcpStream a = connect();
  TcpStream b = connect();
  a.io() << "warmup\n";
  a.io().flush();
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return !calls.empty(); }));
  }
  a.io() << "a1\na2\n";
  a.io().flush();
  b.io() << "b1\nb2\nb-tail";
  b.io().flush();
  b.shutdown_write();
  std::this_thread::sleep_for(100ms);  // both sockets' bytes land in the kernel
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();

  LineReader reader_a(a.io());
  LineReader reader_b(b.io());
  std::string line;
  for (const char* want : {"ack:warmup", "end:warmup", "ack:a1", "end:a1", "ack:a2", "end:a2"}) {
    ASSERT_TRUE(reader_a.next(line));
    EXPECT_EQ(line, want);
  }
  for (const char* want : {"ack:b1", "end:b1", "ack:b2", "end:b2", "ack:b-tail", "end:b-tail"}) {
    ASSERT_TRUE(reader_b.next(line));
    EXPECT_EQ(line, want);
  }
  EXPECT_FALSE(reader_b.next(line));  // half-closed peer: closed after its replies

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(calls.size(), 2u) << "the second wakeup must carry both connections' lines";
  const auto& batch = calls[1];
  ASSERT_EQ(batch.size(), 5u);
  const std::uint64_t conn_a = calls[0].front().first;  // the warmup line's connection
  std::vector<std::string> from_a;
  std::vector<std::string> from_b;
  for (const auto& [conn, text] : batch) {
    (conn == conn_a ? from_a : from_b).push_back(text);
  }
  EXPECT_EQ(from_a, (std::vector<std::string>{"a1", "a2"}));
  EXPECT_EQ(from_b, (std::vector<std::string>{"b1", "b2", "b-tail"}));
  EXPECT_NE(batch.front().first, batch.back().first) << "one connection's lines, then the other's";
}

TEST_F(EpollFixture, StopFlushesAndClosesEverything) {
  start();
  TcpStream client = connect();
  client.io() << "pre-stop\n";
  client.io().flush();
  LineReader reader(client.io());
  std::string line;
  ASSERT_TRUE(reader.next(line));
  loop_->request_stop();
  thread_.join();
  EXPECT_FALSE(reader.next(line));  // server side closed
  EXPECT_EQ(closes_seen_.load(), 1u);
  EXPECT_EQ(loop_->open_connections(), 0u);  // loop retired everything
}

}  // namespace
}  // namespace misuse::serve
