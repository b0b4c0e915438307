// Live operations plane for misusedet_serve (--admin-port): a minimal
// HTTP/1.0 listener over util/socket serving
//
//   /metrics  Prometheus text exposition of the whole registry
//   /healthz  ok | degraded | unhealthy (flat JSON; 503 when unhealthy)
//   /statusz  flat-JSON runtime introspection (per-shard session counts
//             and watermarks, model versions, WAL lag, uptime)
//   /tracez   sampled trace events as Chrome trace JSON
//             (?format=ndjson for one flat JSON object per line)
//
// The listener runs on its own thread and only ever *reads* server
// state (shard locks are taken briefly per shard, never all at once),
// so scraping cannot reorder, drop, or otherwise perturb scored output
// — the byte-identity contract of the data path holds with the admin
// plane enabled. Requests are served one at a time with a read timeout:
// a stalled or malicious scraper times out and is dropped; it can delay
// other scrapers, never the data path. See DESIGN.md "Operations plane".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "util/socket.hpp"

namespace misuse::serve {

/// Process-level state the endpoints cannot read off the ScoringServer
/// itself; wired in by serve_main. Every member is optional.
struct AdminHooks {
  std::function<std::string()> model_version;   // active registry version ("" = unversioned)
  std::function<std::string()> canary_version;  // shadow/canary version ("" = none)
  /// Latest continuous-learning state as one flat JSON object (the
  /// LEARN_STATUS file misusedet_learnd maintains next to the registry);
  /// "" = no learn loop. /statusz re-emits its fields with a learn_
  /// prefix so one scrape shows the serving and learning planes together.
  std::function<std::string()> learn_status;
};

struct AdminConfig {
  std::uint16_t port = 0;  // 0 binds an ephemeral port (read back via port())
  std::string host = "0.0.0.0";
  double read_timeout_seconds = 5.0;
};

class AdminServer {
 public:
  /// Binds and starts the accept thread; throws std::runtime_error when
  /// the port cannot be bound. `server` must outlive the AdminServer.
  AdminServer(ScoringServer& server, AdminConfig config, AdminHooks hooks = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Closes the listener and joins the accept thread; idempotent.
  void stop();

  /// Endpoint bodies without the HTTP framing — the same renderers the
  /// listener uses, callable in-process by tests and benchmarks.
  std::string render_metrics() const;
  std::string render_statusz() const;
  /// `http_status` (optional) receives 200 for ok/degraded, 503 for
  /// unhealthy — degraded still answers 200 so load balancers keep a
  /// struggling-but-correct node in rotation.
  std::string render_healthz(int* http_status = nullptr) const;
  std::string render_tracez(bool ndjson) const;

 private:
  void serve_loop();
  void handle(TcpStream stream);

  ScoringServer& server_;
  AdminConfig config_;
  AdminHooks hooks_;
  std::uint64_t start_nanos_ = 0;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

}  // namespace misuse::serve
