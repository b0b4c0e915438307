#include "serve/admin.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "serve/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/line_io.hpp"
#include "util/hostinfo.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace misuse::serve {

namespace {

const char* status_reason(int code) {
  switch (code) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

}  // namespace

AdminServer::AdminServer(ScoringServer& server, AdminConfig config, AdminHooks hooks)
    : server_(server),
      config_(std::move(config)),
      hooks_(std::move(hooks)),
      start_nanos_(trace_now_nanos()),
      listener_(TcpListener::bind(config_.port, config_.host)),
      port_(listener_.port()) {
  thread_ = std::thread([this] { serve_loop(); });
  log_info() << "admin endpoint on port " << port_ << " (/metrics /healthz /statusz /tracez)";
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::stop() {
  if (stopped_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  listener_.close();
  if (thread_.joinable()) thread_.join();
}

void AdminServer::serve_loop() {
  while (!stopped_.load(std::memory_order_relaxed)) {
    std::optional<TcpStream> stream = listener_.accept();
    if (!stream) break;  // listener closed (stop) or fatal accept error
    try {
      handle(std::move(*stream));
    } catch (const std::exception&) {
      // A broken scrape must never take the listener down; count it and
      // answer the next connection.
      serve_metrics().admin_errors.inc();
    }
  }
}

void AdminServer::handle(TcpStream stream) {
  stream.set_read_timeout(config_.read_timeout_seconds);
  std::string request;
  if (!std::getline(stream.io(), request)) return;  // stalled or empty connection
  while (!request.empty() && (request.back() == '\r' || request.back() == '\n')) {
    request.pop_back();
  }
  // Drain (and ignore) the header block; HTTP/1.0 GETs carry no body.
  std::string header;
  while (std::getline(stream.io(), header)) {
    while (!header.empty() && (header.back() == '\r' || header.back() == '\n')) {
      header.pop_back();
    }
    if (header.empty()) break;
  }

  std::istringstream parts(request);
  std::string method;
  std::string target;
  parts >> method >> target;
  std::string path = target;
  std::string query;
  const std::size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    path = target.substr(0, qpos);
    query = target.substr(qpos + 1);
  }

  int code = 200;
  std::string body;
  std::string type = "application/json";
  if (method != "GET") {
    code = 405;
    type = "text/plain";
    body = "method not allowed\n";
  } else if (path == "/metrics") {
    type = "text/plain; version=0.0.4";
    body = render_metrics();
  } else if (path == "/healthz") {
    body = render_healthz(&code);
  } else if (path == "/statusz") {
    body = render_statusz();
  } else if (path == "/tracez") {
    const bool ndjson = query.find("format=ndjson") != std::string::npos;
    type = ndjson ? "application/x-ndjson" : "application/json";
    body = render_tracez(ndjson);
  } else {
    code = 404;
    type = "text/plain";
    body = "not found\n";
  }

  // Injected dead scraper: the reply is dropped on the floor. The caller
  // sees a closed connection and retries; the listener must stay up.
  if (MISUSEDET_FAILPOINT("admin.respond")) {
    serve_metrics().admin_errors.inc();
    return;
  }

  std::ostream& out = stream.io();
  out << "HTTP/1.0 " << code << ' ' << status_reason(code) << "\r\n"
      << "Content-Type: " << type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  out.flush();
  if (out.good()) {
    serve_metrics().admin_scrapes.inc();
  } else {
    serve_metrics().admin_errors.inc();
  }
}

std::string AdminServer::render_metrics() const {
  std::ostringstream out;
  metrics().write_prometheus(out);
  return out.str();
}

std::string AdminServer::render_healthz(int* http_status) const {
  const ServeMetrics& sm = serve_metrics();
  const std::int64_t degraded_clusters = sm.degraded_clusters.value();
  const std::int64_t reload_streak = sm.reload_failure_streak.value();
  const std::uint64_t wal_lag = server_.events_since_checkpoint();
  const ServeConfig& cfg = server_.config();
  const bool wal_failed = server_.wal_enabled() && !server_.wal_ok();
  const bool wal_lagging =
      server_.wal_enabled() && cfg.snapshot_every > 0 && wal_lag >= 2 * cfg.snapshot_every;

  // degraded = still scoring correctly but something needs attention;
  // unhealthy = correctness or durability is actually compromised (503,
  // so orchestrators route around the node).
  std::vector<std::string> reasons;
  if (degraded_clusters > 0) reasons.push_back("degraded_clusters");
  if (wal_lagging) reasons.push_back("wal_lag");
  if (reload_streak > 0) reasons.push_back("reload_failures");
  std::string status = reasons.empty() ? "ok" : "degraded";
  if (wal_failed) {
    reasons.push_back("wal_failed");
    status = "unhealthy";
  }
  if (reload_streak >= 3) status = "unhealthy";
  if (http_status != nullptr) *http_status = status == "unhealthy" ? 503 : 200;

  std::string joined;
  for (const std::string& reason : reasons) {
    if (!joined.empty()) joined += ";";
    joined += reason;
  }
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.member("status", status);
    json.member("reasons", joined);
    json.member("degraded_clusters", static_cast<long long>(degraded_clusters));
    json.member("wal_lag_events", wal_lag);
    json.member("reload_failure_streak", static_cast<long long>(reload_streak));
    json.end_object();
  }
  out << "\n";
  return out.str();
}

std::string AdminServer::render_statusz() const {
  const std::vector<ScoringServer::ShardStatus> shards = server_.shard_status();
  std::uint64_t min_watermark = UINT64_MAX;
  for (const auto& shard : shards) {
    min_watermark = std::min(min_watermark, shard.last_applied_seq);
  }
  if (min_watermark == UINT64_MAX) min_watermark = 0;
  const std::uint64_t next_seq = server_.next_seq();
  const std::uint64_t assigned = next_seq > 0 ? next_seq - 1 : 0;
  const ServeConfig& cfg = server_.config();

  // One *flat* single-line JSON object: misusedet_top (and any script)
  // parses this with util/line_io's parse_flat_json, so no nesting.
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.member("uptime_seconds", static_cast<double>(trace_now_nanos() - start_nanos_) / 1e9);
    json.member("model_version",
                hooks_.model_version ? hooks_.model_version() : server_.current_model().version);
    json.member("canary_version", hooks_.canary_version ? hooks_.canary_version() : "");
    json.member("host_cores", host_info().cores);
    json.member("shards", shards.size());
    json.member("sessions_active", server_.active_sessions());
    json.member("sessions_limit", cfg.max_sessions);
    json.member("event_clock", server_.event_clock());
    json.member("next_seq", next_seq);
    json.member("wal_enabled", server_.wal_enabled());
    json.member("wal_ok", server_.wal_ok());
    json.member("events_since_checkpoint", server_.events_since_checkpoint());
    json.member("snapshot_every", cfg.snapshot_every);
    // How far the durable watermark trails the stream head: an upper
    // bound on the replay a crash right now would need.
    json.member("wal_watermark_lag", assigned > min_watermark ? assigned - min_watermark : 0);
    json.member("trace_enabled", trace_events().enabled());
    json.member("trace_events_dropped", trace_events().dropped());
    // Shadow scorer evidence (serve/shadow.cpp) — what the learn loop's
    // promotion guardrails read live off this node.
    const ServeMetrics& sm = serve_metrics();
    const std::uint64_t shadow_steps = sm.shadow_steps.value();
    json.member("shadow_steps", shadow_steps);
    json.member("shadow_verdict_flips", sm.shadow_verdict_flips.value());
    json.member("shadow_flip_rate",
                shadow_steps > 0 ? static_cast<double>(sm.shadow_verdict_flips.value()) /
                                       static_cast<double>(shadow_steps)
                                 : 0.0);
    json.member("shadow_loss_delta_mean",
                sm.shadow_loss_delta.count() > 0
                    ? sm.shadow_loss_delta.sum() / static_cast<double>(sm.shadow_loss_delta.count())
                    : 0.0);
    // Continuous-learning state, re-emitted flat with a learn_ prefix
    // (strings stay strings, numbers stay raw) so the object stays
    // parse_flat_json-clean.
    if (hooks_.learn_status) {
      const std::string learn = hooks_.learn_status();
      std::vector<JsonField> fields;
      std::string error;
      if (!learn.empty() && parse_flat_json(learn, fields, error)) {
        for (const auto& field : fields) {
          json.key("learn_" + field.key);
          if (field.is_string) {
            json.value(field.value);
          } else {
            json.raw_value(field.value);
          }
        }
      }
    }
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::string prefix = "shard." + std::to_string(s) + ".";
      json.member(prefix + "sessions", shards[s].sessions);
      json.member(prefix + "max_sessions", shards[s].max_sessions);
      json.member(prefix + "last_applied_seq", shards[s].last_applied_seq);
    }
    json.end_object();
  }
  out << "\n";
  return out.str();
}

std::string AdminServer::render_tracez(bool ndjson) const {
  const std::vector<TraceEvent> events = trace_events().snapshot();
  std::ostringstream out;
  if (ndjson) {
    write_trace_events_ndjson(out, events);
  } else {
    write_chrome_trace(out, events);
    out << "\n";
  }
  return out.str();
}

}  // namespace misuse::serve
