// Nonblocking NDJSON front end for the serving layer: one thread, one
// level-triggered epoll set, any number of connections — the only TCP
// front end of misusedet_serve and misusedet_router (the
// millions-of-sessions topology needs the router + node cluster in
// src/router, and each node needs to hold thousands of sockets without a
// thread each).
//
// Framing and hardening:
//   * per-connection input buffer accumulates partial reads until a
//     complete '\n'-terminated line is available (CRLF folded to LF, as
//     LineReader does) — a slow-loris producer dripping one byte per
//     write costs memory, never a stalled thread;
//   * per-connection output buffer holds replies a congested peer has
//     not drained; writes go through util/socket write_some, so EAGAIN
//     parks the connection on EPOLLOUT instead of busy-spinning, and a
//     consumer that stops reading past the buffer cap is disconnected;
//   * half-close (read EOF with a final unterminated line) delivers the
//     last line, flushes pending replies, then closes;
//   * lines above max_line_bytes poison the connection (an unbounded
//     line is a protocol violation or an attack, same contract as
//     LineReader).
//
// The loop owns no scoring state. Each epoll_wait round it gathers the
// complete lines of every ready connection and hands them to the
// on_lines handler in one call, which decides what they mean:
// misusedet_serve scores them as one ScoringServer::submit_batch (one
// fused model step across sessions and shards; per-connection output
// stays byte-identical to stdin pipe mode on the same event order), and
// misusedet_router forwards each line to a cluster node (each_line).
// Replies return to each connection in line order. Cross-thread writers
// (the router's upstream reply readers) inject output via post(), which
// wakes the loop through an eventfd. See DESIGN.md "Cluster serving".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/socket.hpp"

namespace misuse::serve {

struct EpollConfig {
  std::uint16_t port = 0;  // 0 binds an ephemeral port (read back via port())
  std::string host = "0.0.0.0";
  /// Input framing cap, same default as LineReader: a connection whose
  /// unterminated line exceeds this is closed.
  std::size_t max_line_bytes = 1 << 20;
  /// Output backlog cap per connection: a peer that stops reading while
  /// this many reply bytes are pending is disconnected (slow-consumer
  /// protection; the alternative is unbounded server memory).
  std::size_t max_output_bytes = 8u << 20;
  /// on_tick cadence; also bounds stop-flag latency.
  double tick_seconds = 0.5;
};

/// One complete input line (terminator stripped) and its connection.
struct EpollLine {
  std::uint64_t conn = 0;
  std::string_view text;  // valid for the duration of the on_lines call
};

/// Per-line handler shape: append '\n'-terminated reply lines to `replies`.
using EpollLineHandler =
    std::function<void(std::uint64_t conn, std::string_view line, std::string& replies)>;

struct EpollHandlers {
  /// Every complete line one epoll_wait round gathered: connection by
  /// connection, each connection's lines in arrival order (a half-closed
  /// peer's final unterminated line included). replies[i] arrives empty;
  /// append '\n'-terminated reply lines for lines[i] to it — they return
  /// on lines[i].conn in line order. Required.
  std::function<void(std::span<const EpollLine> lines, std::span<std::string> replies)> on_lines;
  /// Periodic callback on the loop thread (TTL sweeps, checkpoints,
  /// registry reloads). Optional.
  std::function<void()> on_tick;
  /// Connection retired (peer EOF drained, error, overflow, or
  /// shutdown). Fired exactly once per connection. Optional.
  std::function<void(std::uint64_t conn)> on_close;
};

/// Adapts a per-line handler to on_lines: calls it for each line in order.
inline auto each_line(EpollLineHandler handler) {
  return [handler = std::move(handler)](std::span<const EpollLine> lines,
                                        std::span<std::string> replies) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      handler(lines[i].conn, lines[i].text, replies[i]);
    }
  };
}

class EpollLoop {
 public:
  /// Binds the listener and creates the epoll set; throws
  /// std::runtime_error when either fails.
  EpollLoop(EpollConfig config, EpollHandlers handlers);
  ~EpollLoop();

  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Serves until request_stop(). On stop: pending replies get one
  /// best-effort flush, every connection is closed (on_close fires),
  /// and the listener is released. Call from one thread only.
  void run();

  /// Thread-safe: wakes the loop and makes run() return.
  void request_stop();

  /// Thread-safe output injection: queues `data` (already framed — the
  /// caller terminates its lines) for `conn` and wakes the loop. False
  /// when the connection is unknown or already retired; best-effort —
  /// the connection can still die before the bytes flush.
  bool post(std::uint64_t conn, std::string data);

  /// Connections currently open (loop thread's view; racy elsewhere).
  std::size_t open_connections() const { return conns_.size(); }

  /// Lifetime counters for tests and /statusz-style introspection.
  std::uint64_t accepted_total() const { return accepted_.load(std::memory_order_relaxed); }
  std::uint64_t overflowed_total() const { return overflowed_.load(std::memory_order_relaxed); }

 private:
  struct Conn {
    int fd = -1;
    std::string in;          // unconsumed partial frame
    std::string out;         // unflushed replies
    std::size_t out_off = 0; // flushed prefix of `out`
    bool want_write = false; // EPOLLOUT armed
    bool peer_eof = false;   // half-closed: no more input, flush then close
    std::size_t consumed = 0;  // prefix of `in` the current round handed out
  };

  void accept_ready();
  /// Reads what the socket holds (bounded per round) into conn.in.
  /// Returns false when the connection died (already retired).
  bool read_ready(std::uint64_t id, Conn& conn);
  /// Runs on_lines once over the complete lines of every connection in
  /// ready_, then routes replies, enforces the caps, and flushes.
  void dispatch_ready();
  /// Flushes conn.out; arms/disarms EPOLLOUT. Returns false when the
  /// connection died (already retired).
  bool flush_conn(std::uint64_t id, Conn& conn);
  void retire(std::uint64_t id, Conn& conn);
  void drain_posted();
  void update_interest(std::uint64_t id, Conn& conn, bool want_write);

  EpollConfig config_;
  EpollHandlers handlers_;
  TcpListener listener_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: request_stop() and post() wakeups
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> overflowed_{0};
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Conn> conns_;  // loop thread only
  // One round's gather, reused across rounds (loop thread only).
  std::vector<std::uint64_t> ready_;  // connections read this round
  std::vector<EpollLine> lines_;
  std::vector<std::string> replies_;

  std::mutex posted_mutex_;
  std::vector<std::pair<std::uint64_t, std::string>> posted_;
  /// Connection ids currently alive, mirrored under posted_mutex_ so
  /// post() can refuse unknown/retired targets from any thread.
  std::unordered_set<std::uint64_t> live_ids_;
};

}  // namespace misuse::serve
