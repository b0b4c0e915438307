// misusedet_router: the horizontal-scaling tier of the serving stack.
// Clients speak the same NDJSON event protocol as misusedet_serve; the
// router consistent-hashes each session (FNV-1a of user_id+session_id —
// the same stable hash the in-node shard layer uses) onto one of N
// serve nodes, forwards the event over a pooled upstream connection,
// and routes the node's verdict lines back to the originating client.
//
// Guarantees (DESIGN.md "Cluster serving"):
//   * session affinity — every event of a session goes to one node, so
//     each per-session score stream is bit-identical to a single-node
//     deployment;
//   * in-order replies — one upstream connection per node, verdicts
//     return in submission order, attributed to sessions via an
//     in-flight FIFO (session reports self-identify and pass through);
//   * failure handoff — a node that dies (reply stream breaks, forward
//     fails, or /healthz goes unhealthy for `health_failures_down`
//     consecutive probes) is removed from the ring and each of its live
//     sessions is replayed, from the router's per-session journal, to
//     the session's new owner. Scoring is deterministic, so the replay
//     reproduces the node-local state byte-exactly (the WAL-recovery
//     argument of PR 4, applied across nodes); verdicts the client
//     already saw are suppressed during replay, verdicts the dead node
//     never delivered are emitted by the new owner — no event is lost
//     and no verdict is duplicated;
//   * per-tenant quotas — token-bucket admission per user_id at the
//     router (router/quota.hpp), rejected events answered with an
//     "error" record.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "router/hash_ring.hpp"
#include "router/quota.hpp"
#include "serve/epoll_loop.hpp"
#include "util/metrics.hpp"
#include "util/socket.hpp"

namespace misuse::router {

struct NodeEndpoint {
  std::string host;
  std::uint16_t port = 0;        // NDJSON scoring port (misusedet_serve --listen)
  std::uint16_t admin_port = 0;  // /healthz probe target; 0 = no active probing
  std::string name() const { return host + ":" + std::to_string(port); }
};

/// Parses "host:port" or "host:port:admin_port". Returns nullopt on
/// malformed input.
std::optional<NodeEndpoint> parse_node_endpoint(const std::string& spec);

struct RouterConfig {
  std::uint16_t listen_port = 0;  // 0 = ephemeral (read back via port())
  std::string listen_host = "0.0.0.0";
  std::vector<NodeEndpoint> nodes;
  std::size_t vnodes = 64;
  QuotaConfig quota;
  double health_interval_seconds = 1.0;
  /// Consecutive failed /healthz probes before a node is declared down.
  std::size_t health_failures_down = 3;
  /// SO_SNDTIMEO on upstream connections: a forward blocked this long
  /// fails and downs the node instead of wedging the router.
  double upstream_write_timeout_seconds = 5.0;
  /// Router-side journal TTL. Idle-evicted sessions report on the
  /// owning node's *stdout* (the operator plane), not the upstream
  /// connection, so the router cannot see them finish — it prunes its
  /// own journal map after this much idle wall time instead. Must be
  /// comfortably longer than the nodes' --idle-ttl so a handoff never
  /// loses a session the node still holds.
  double session_ttl_seconds = 900.0;
  /// The nodes' --idle-ttl, when the operator knows it (0 = unknown).
  /// The constructor rejects session_ttl_seconds <= node_ttl_seconds
  /// (the router would prune journals for sessions the node still
  /// holds, making handoff replay impossible) and warns when the margin
  /// is under 2x.
  double node_ttl_seconds = 0.0;
  double tick_seconds = 0.2;
};

/// router.* instrument bundle (util/metrics registry).
struct RouterMetrics {
  Counter& events;             // router.events — events forwarded upstream
  Counter& replies;            // router.replies — verdict lines routed to clients
  Counter& parse_errors;       // router.parse_errors — rejected client lines
  Counter& quota_rejected;     // router.quota_rejected — token-bucket rejections
  Counter& nodes_lost;         // router.nodes_lost — nodes declared down
  Counter& handoffs;           // router.handoffs — ring-change handoff runs
  Counter& sessions_migrated;  // router.sessions_migrated — sessions replayed over
  Counter& replay_events;      // router.replay_events — journal lines resent
  Counter& replay_suppressed;  // router.replay_suppressed — duplicate verdicts dropped
  Counter& sessions_finished;  // router.sessions_finished — session reports routed
  Gauge& nodes_up;             // router.nodes_up
  Gauge& sessions_active;      // router.sessions_active — journaled live sessions
};
RouterMetrics& router_metrics();

class Router {
 public:
  /// Binds the client listener and connects every node; throws
  /// std::runtime_error when the listener cannot bind or *no* node is
  /// reachable (unreachable nodes are declared down immediately and
  /// their keys fall to the survivors).
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  std::uint16_t port() const { return loop_->port(); }

  /// Serves until request_stop(); call from one thread.
  void run();
  /// Thread-safe shutdown trigger.
  void request_stop();

  /// Nodes currently in the ring (health view; thread-safe).
  std::size_t live_nodes() const;
  /// Sessions with a journal entry (live, unfinished sessions).
  std::size_t active_sessions() const;

 private:
  struct Inflight {
    std::string session_key;
    bool replayed = false;  // suppress the verdict — the client saw it already
  };

  struct Upstream {
    NodeEndpoint endpoint;
    std::optional<TcpStream> stream;  // write side; send_upstream only
    /// Read-side view of the same fd. The reader thread's blocking
    /// reads run without state_mutex_ while send_upstream writes under
    /// it; sharing one std::iostream would race on the stream-state
    /// flags (sentry/good() vs. flush), so each direction gets its own
    /// stream object over the shared descriptor.
    std::unique_ptr<FdStreamBuf> read_buf;
    std::unique_ptr<std::istream> read_stream;
    std::thread reader;
    bool up = false;
    std::size_t health_fails = 0;
    /// FIFO of events sent but not yet answered; one upstream
    /// connection + sequential per-connection scoring on the node means
    /// verdicts return in exactly this order.
    std::deque<Inflight> inflight;
  };

  struct SessionState {
    std::string owner;          // node name
    std::uint64_t client = 0;   // EpollLoop connection id (may be gone)
    std::vector<std::string> journal;  // every forwarded event line, in order
    std::size_t confirmed = 0;  // verdicts already delivered to the client
    double last_active_seconds = 0.0;  // wall clock; journal TTL pruning
  };

  void on_client_line(std::uint64_t conn, std::string_view line, std::string& replies);
  void reader_loop(const std::string& node_name);
  void health_loop();
  /// Declares `name` down and hands its sessions off. Caller must NOT
  /// hold state_mutex_. Safe to call repeatedly / concurrently.
  void node_down(const std::string& name, const std::string& why);
  /// state_mutex_ held: forwards one framed line to `node`, returns
  /// false (and leaves the node to be downed by the caller) on failure.
  bool send_upstream(Upstream& node, const std::string& framed);
  bool probe_health(const NodeEndpoint& endpoint);

  RouterConfig config_;
  std::unique_ptr<serve::EpollLoop> loop_;
  std::atomic<bool> stop_{false};

  /// One mutex over ring + sessions + upstream inflight/up state: the
  /// router's control plane is correctness-critical and low-rate
  /// relative to node-side scoring, so simplicity wins over sharding.
  mutable std::mutex state_mutex_;
  HashRing ring_;
  std::unordered_map<std::string, std::unique_ptr<Upstream>> upstreams_;
  std::unordered_map<std::string, SessionState> sessions_;
  TenantQuotas quotas_;

  std::thread health_thread_;
};

}  // namespace misuse::router
