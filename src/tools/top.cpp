// misusedet_top: console dashboard over a serve node's admin plane.
// Polls /statusz (flat JSON) and /metrics (Prometheus text) at a fixed
// interval and renders a refreshing view: health, model versions,
// per-shard session table, interval actions/sec, alarm rate,
// p50/p99 step latency and the mean events per fused scoring step
// ("batch"), all computed from histogram *deltas* (so they describe the
// last interval, not the process lifetime).
//
//   misusedet_top --port=PORT [--host=H] [--interval=SECONDS]
//       [--iterations=N] [--plain] [--dump=ENDPOINT]
//
// --dump fetches one endpoint once and prints the raw body (exit status
// reflects the HTTP status), which makes scripts independent of curl:
//   misusedet_top --port=9100 --dump=healthz
//
// Cluster mode (--ports=A,B,C — each entry PORT or HOST:PORT) scrapes
// every node's admin plane per frame and renders a per-node table plus
// cluster totals: counters and gauges sum across nodes, and the
// cluster-wide p50/p99 come from summing the histogram *bucket deltas*
// before interpolating (quantiles over the merged distribution — never
// an average of per-node quantiles, which is meaningless):
//   misusedet_top --ports=9101,9102,9103 --interval=2
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/line_io.hpp"
#include "util/metrics.hpp"
#include "util/socket.hpp"
#include "util/table.hpp"

namespace misuse::tools {
namespace {

/// serve.batch_events: events scored per fused monitor step.
constexpr const char* kBatchEvents = "misusedet_serve_batch_events";

struct HttpResponse {
  int code = 0;
  std::string body;
};

/// One-shot HTTP/1.0 GET; throws std::runtime_error when the connection
/// fails outright, returns code 0 when the peer closes before a status
/// line (the admin.respond failpoint does exactly that).
HttpResponse http_get(const std::string& host, std::uint16_t port, const std::string& path) {
  TcpStream stream = tcp_connect(host, port);
  stream.io() << "GET " << path << " HTTP/1.0\r\nHost: " << host << "\r\nConnection: close\r\n\r\n";
  stream.io().flush();
  stream.shutdown_write();

  HttpResponse response;
  std::string line;
  if (!std::getline(stream.io(), line)) return response;  // dropped reply
  std::istringstream status(line);
  std::string version;
  status >> version >> response.code;
  while (std::getline(stream.io(), line)) {  // headers, up to the blank line
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) line.pop_back();
    if (line.empty()) break;
  }
  std::ostringstream body;
  body << stream.io().rdbuf();
  response.body = body.str();
  return response;
}

HttpResponse http_get_retry(const std::string& host, std::uint16_t port, const std::string& path,
                            int attempts = 3) {
  HttpResponse response;
  for (int i = 0; i < attempts; ++i) {
    response = http_get(host, port, path);
    if (response.code != 0) return response;  // any HTTP answer counts
  }
  return response;
}

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool parse_number(const std::string& text, double& out) {
  if (text == "+Inf" || text == "Inf") {
    out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-Inf") {
    out = -std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Parses Prometheus text exposition into a MetricsSnapshot keyed by the
/// wire names: counters keep their `_total` suffix, histograms are keyed
/// by the family base name (`..._bucket`/`_sum`/`_count` folded in), and
/// everything else lands in gauges. The `<name>_summary` companion
/// families the server exports are skipped — top recomputes interval
/// quantiles from bucket deltas instead of trusting lifetime summaries.
MetricsSnapshot parse_prometheus(const std::string& text) {
  MetricsSnapshot snapshot;
  snapshot.at_seconds = steady_seconds();
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // <name>{labels} <value> — labels optional, value is the last token.
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    double value = 0.0;
    if (!parse_number(line.substr(space + 1), value)) continue;
    std::string name = line.substr(0, space);
    std::string labels;
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      labels = name.substr(brace);
      name = name.substr(0, brace);
    }
    if (labels.find("quantile=") != std::string::npos || ends_with(name, "_summary_sum") ||
        ends_with(name, "_summary_count")) {
      continue;  // summary companion family
    }
    if (ends_with(name, "_bucket")) {
      const std::size_t le = labels.find("le=\"");
      if (le == std::string::npos) continue;
      const std::size_t start = le + 4;
      const std::size_t end = labels.find('"', start);
      double bound = 0.0;
      if (end == std::string::npos || !parse_number(labels.substr(start, end - start), bound)) {
        continue;
      }
      snapshot.histograms[name.substr(0, name.size() - 7)].cumulative.emplace_back(bound, value);
    } else if (ends_with(name, "_sum") &&
               snapshot.histograms.count(name.substr(0, name.size() - 4)) > 0) {
      snapshot.histograms[name.substr(0, name.size() - 4)].sum = value;
    } else if (ends_with(name, "_count") &&
               snapshot.histograms.count(name.substr(0, name.size() - 6)) > 0) {
      snapshot.histograms[name.substr(0, name.size() - 6)].count = value;
    } else if (ends_with(name, "_total")) {
      snapshot.counters[name] = value;
    } else {
      snapshot.gauges[name] = value;
    }
  }
  return snapshot;
}

std::string fmt(double v, int precision = 1) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << v;
  return out.str();
}

std::string fmt_latency(double seconds) {
  if (seconds <= 0.0) return "-";
  if (seconds < 1e-3) return fmt(seconds * 1e6, 1) + "us";
  if (seconds < 1.0) return fmt(seconds * 1e3, 2) + "ms";
  return fmt(seconds, 3) + "s";
}

std::optional<double> field_number(const std::vector<JsonField>& fields, const std::string& key) {
  return get_number(fields, key);
}

int dump_endpoint(const std::string& host, std::uint16_t port, const std::string& what) {
  std::string path;
  if (what == "metrics" || what == "healthz" || what == "statusz" || what == "tracez") {
    path = "/" + what;
  } else if (what == "tracez.ndjson") {
    path = "/tracez?format=ndjson";
  } else {
    std::cerr << "unknown --dump endpoint '" << what
              << "' (metrics | healthz | statusz | tracez | tracez.ndjson)\n";
    return 2;
  }
  try {
    const HttpResponse response = http_get_retry(host, port, path);
    if (response.code == 0) {
      std::cerr << "no response from " << host << ":" << port << path << "\n";
      return 1;
    }
    std::cout << response.body;
    return response.code == 200 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fetch failed: " << e.what() << "\n";
    return 1;
  }
}

void render(const std::string& host, std::uint16_t port, const std::vector<JsonField>& statusz,
            const std::string& health, const MetricsSnapshot& now,
            const std::optional<MetricsSnapshot>& before, bool plain, std::ostream& out) {
  if (!plain) out << "\x1b[H\x1b[2J";  // home + clear: flicker-free refresh

  const double uptime = field_number(statusz, "uptime_seconds").value_or(0.0);
  const std::string model = get_string(statusz, "model_version").value_or("");
  const std::string canary = get_string(statusz, "canary_version").value_or("");
  out << "misusedet_top — " << host << ":" << port << "   up " << fmt(uptime) << "s   model "
      << (model.empty() ? "(unversioned)" : model)
      << (canary.empty() ? "" : "  canary " + canary) << "\n";

  const double sessions = field_number(statusz, "sessions_active").value_or(0);
  const double limit = field_number(statusz, "sessions_limit").value_or(0);
  const double wal_lag = field_number(statusz, "wal_watermark_lag").value_or(0);
  out << "health " << health << "   sessions " << fmt(sessions, 0) << "/" << fmt(limit, 0)
      << "   wal lag " << fmt(wal_lag, 0) << " events\n";

  if (before) {
    MetricsDelta delta(*before, now);
    const double steps = delta.counter_delta("misusedet_serve_steps_total");
    const double alarms = delta.counter_delta("misusedet_serve_alarms_total");
    out << "actions/sec " << fmt(delta.rate("misusedet_serve_steps_total"))
        << "   alarm rate " << fmt(steps > 0 ? alarms / steps : 0.0, 4)
        << "   p50 " << fmt_latency(delta.histogram_quantile("misusedet_serve_step_seconds", 0.5))
        << "   p99 " << fmt_latency(delta.histogram_quantile("misusedet_serve_step_seconds", 0.99))
        << "   batch " << fmt(delta.histogram_mean(kBatchEvents), 1)
        << "   (over " << fmt(delta.seconds()) << "s)\n";
  } else {
    out << "collecting a second sample for rates...\n";
  }

  // Continuous-learning plane, when a learn loop runs beside this node
  // (/statusz re-emits its LEARN_STATUS with a learn_ prefix).
  const std::string learn_phase = get_string(statusz, "learn_phase").value_or("");
  if (!learn_phase.empty()) {
    const double candidate = field_number(statusz, "learn_candidate").value_or(0);
    const double flip_rate = field_number(statusz, "learn_flip_rate").value_or(0);
    const std::string decision = get_string(statusz, "learn_decision").value_or("none");
    const std::string reason = get_string(statusz, "learn_reason").value_or("");
    out << "LEARN phase " << learn_phase << "   candidate "
        << (candidate > 0 ? "v" + fmt(candidate, 0) : "-") << "   shadow flip rate "
        << fmt(flip_rate, 4) << "   last decision " << decision
        << (reason.empty() ? "" : " (" + reason + ")") << "\n";
  }

  const double shards = field_number(statusz, "shards").value_or(0);
  Table table({"shard", "sessions", "applied_seq"});
  for (std::size_t s = 0; s < static_cast<std::size_t>(shards); ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    table.add_row({std::to_string(s),
                   fmt(field_number(statusz, prefix + "sessions").value_or(0), 0),
                   fmt(field_number(statusz, prefix + "last_applied_seq").value_or(0), 0)});
  }
  table.print(out);
  out.flush();
}

/// Element-wise sum of node snapshots: counters and gauges add, and
/// histograms merge by summing cumulative counts at matching bounds (all
/// nodes export the same registry layout, so bounds line up; a node with
/// a different layout contributes only the bounds it has).
MetricsSnapshot aggregate_snapshots(const std::vector<MetricsSnapshot>& nodes) {
  MetricsSnapshot total;
  total.at_seconds = nodes.empty() ? steady_seconds() : nodes.front().at_seconds;
  for (const MetricsSnapshot& node : nodes) {
    for (const auto& [name, value] : node.counters) total.counters[name] += value;
    for (const auto& [name, value] : node.gauges) total.gauges[name] += value;
    for (const auto& [name, hist] : node.histograms) {
      MetricsSnapshot::Histogram& merged = total.histograms[name];
      merged.count += hist.count;
      merged.sum += hist.sum;
      if (merged.cumulative.empty()) {
        merged.cumulative = hist.cumulative;
      } else {
        for (const auto& [bound, count] : hist.cumulative) {
          bool found = false;
          for (auto& [mbound, mcount] : merged.cumulative) {
            if (mbound == bound) {
              mcount += count;
              found = true;
              break;
            }
          }
          if (!found) merged.cumulative.emplace_back(bound, count);
        }
      }
    }
  }
  for (auto& [name, hist] : total.histograms) {
    std::sort(hist.cumulative.begin(), hist.cumulative.end());
  }
  return total;
}

struct ClusterTarget {
  std::string host;
  std::uint16_t port = 0;
  std::string label() const { return host + ":" + std::to_string(port); }
};

/// One node's scrape for a cluster frame.
struct NodeSample {
  bool reachable = false;
  std::string health = "down";
  double sessions = 0.0;
  MetricsSnapshot snapshot;
};

NodeSample scrape_node(const ClusterTarget& target) {
  NodeSample sample;
  try {
    const HttpResponse metrics_response = http_get_retry(target.host, target.port, "/metrics");
    if (metrics_response.code == 0) return sample;
    sample.snapshot = parse_prometheus(metrics_response.body);
    sample.reachable = true;
    const HttpResponse health_response = http_get_retry(target.host, target.port, "/healthz");
    std::string health_line = health_response.body;
    while (!health_line.empty() && (health_line.back() == '\n' || health_line.back() == '\r')) {
      health_line.pop_back();
    }
    std::vector<JsonField> fields;
    std::string error;
    sample.health = "?";
    if (parse_flat_json(health_line, fields, error)) {
      sample.health = get_string(fields, "status").value_or("?");
    }
    sample.sessions =
        sample.snapshot.gauges.count("misusedet_serve_sessions_active") > 0
            ? sample.snapshot.gauges.at("misusedet_serve_sessions_active")
            : 0.0;
  } catch (const std::exception&) {
    // unreachable node: rendered as down, aggregation skips it
  }
  return sample;
}

void render_cluster(const std::vector<ClusterTarget>& targets,
                    const std::vector<NodeSample>& samples,
                    const std::vector<std::optional<MetricsSnapshot>>& node_before,
                    const MetricsSnapshot& total,
                    const std::optional<MetricsSnapshot>& total_before, bool plain,
                    std::ostream& out) {
  if (!plain) out << "\x1b[H\x1b[2J";
  std::size_t up = 0;
  for (const NodeSample& s : samples) up += s.reachable ? 1 : 0;
  out << "misusedet_top — cluster of " << targets.size() << " node(s), " << up << " up\n";

  Table table(
      {"node", "health", "sessions", "actions/sec", "alarms/sec", "p50", "p99", "batch"});
  for (std::size_t n = 0; n < targets.size(); ++n) {
    const NodeSample& sample = samples[n];
    std::string rate = "-";
    std::string alarms = "-";
    std::string p50 = "-";
    std::string p99 = "-";
    std::string batch = "-";
    if (sample.reachable && node_before[n]) {
      MetricsDelta delta(*node_before[n], sample.snapshot);
      rate = fmt(delta.rate("misusedet_serve_steps_total"));
      alarms = fmt(delta.rate("misusedet_serve_alarms_total"));
      p50 = fmt_latency(delta.histogram_quantile("misusedet_serve_step_seconds", 0.5));
      p99 = fmt_latency(delta.histogram_quantile("misusedet_serve_step_seconds", 0.99));
      batch = fmt(delta.histogram_mean(kBatchEvents), 1);
    }
    table.add_row({targets[n].label(), sample.health, fmt(sample.sessions, 0), rate, alarms,
                   p50, p99, batch});
  }
  double total_sessions = 0.0;
  for (const NodeSample& s : samples) total_sessions += s.sessions;
  if (total_before) {
    MetricsDelta delta(*total_before, total);
    table.add_row({"TOTAL", up == targets.size() ? "ok" : "degraded", fmt(total_sessions, 0),
                   fmt(delta.rate("misusedet_serve_steps_total")),
                   fmt(delta.rate("misusedet_serve_alarms_total")),
                   fmt_latency(delta.histogram_quantile("misusedet_serve_step_seconds", 0.5)),
                   fmt_latency(delta.histogram_quantile("misusedet_serve_step_seconds", 0.99)),
                   fmt(delta.histogram_mean(kBatchEvents), 1)});
  } else {
    table.add_row({"TOTAL", up == targets.size() ? "ok" : "degraded", fmt(total_sessions, 0),
                   "-", "-", "-", "-", "-"});
  }
  table.print(out);
  if (!total_before) out << "collecting a second sample for rates...\n";
  out.flush();
}

int cluster_main(const CliArgs& args) {
  const std::string default_host = args.str("host", "127.0.0.1");
  std::vector<ClusterTarget> targets;
  std::stringstream list(args.str("ports"));
  std::string entry;
  while (std::getline(list, entry, ',')) {
    if (entry.empty()) continue;
    ClusterTarget target;
    const std::size_t colon = entry.rfind(':');
    try {
      if (colon == std::string::npos) {
        target.host = default_host;
        target.port = static_cast<std::uint16_t>(std::stoul(entry));
      } else {
        target.host = entry.substr(0, colon);
        target.port = static_cast<std::uint16_t>(std::stoul(entry.substr(colon + 1)));
      }
    } catch (const std::exception&) {
      std::cerr << "bad --ports entry '" << entry << "' (want PORT or HOST:PORT)\n";
      return 2;
    }
    targets.push_back(std::move(target));
  }
  if (targets.empty()) {
    std::cerr << "--ports needs at least one PORT or HOST:PORT entry\n";
    return 2;
  }

  const double interval = args.real("interval", 2.0);
  const std::int64_t iterations = args.integer("iterations", 0);
  const bool plain = args.flag("plain");

  std::vector<std::optional<MetricsSnapshot>> node_before(targets.size());
  std::optional<MetricsSnapshot> total_before;
  for (std::int64_t frame = 0; iterations == 0 || frame < iterations; ++frame) {
    if (frame > 0) std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    std::vector<NodeSample> samples;
    samples.reserve(targets.size());
    std::vector<MetricsSnapshot> reachable;
    for (const ClusterTarget& target : targets) {
      samples.push_back(scrape_node(target));
      if (samples.back().reachable) reachable.push_back(samples.back().snapshot);
    }
    const MetricsSnapshot total = aggregate_snapshots(reachable);
    render_cluster(targets, samples, node_before, total, total_before, plain, std::cout);
    for (std::size_t n = 0; n < targets.size(); ++n) {
      if (samples[n].reachable) node_before[n] = samples[n].snapshot;
    }
    total_before = total;
  }
  return 0;
}

int top_main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("ports")) return cluster_main(args);
  if (args.flag("help") || !args.has("port")) {
    std::cout << "usage: " << args.program() << " --port=PORT [options]\n"
              << "  --port=PORT         serve node's --admin-port\n"
              << "  --host=HOST         admin host (default 127.0.0.1)\n"
              << "  --interval=SECONDS  poll interval (default 2.0)\n"
              << "  --iterations=N      stop after N frames (default 0 = run until ^C)\n"
              << "  --plain             no ANSI clear; append frames (logs, CI)\n"
              << "  --dump=ENDPOINT     print one raw endpoint body and exit:\n"
              << "                      metrics | healthz | statusz | tracez | tracez.ndjson\n"
              << "  --ports=A,B,C       cluster mode: scrape several nodes (PORT or HOST:PORT\n"
              << "                      entries) and render per-node rows plus summed totals\n";
    return args.flag("help") ? 0 : 2;
  }
  const std::string host = args.str("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.integer("port", 0));
  if (args.has("dump")) return dump_endpoint(host, port, args.str("dump"));

  const double interval = args.real("interval", 2.0);
  const std::int64_t iterations = args.integer("iterations", 0);
  const bool plain = args.flag("plain");

  std::optional<MetricsSnapshot> before;
  for (std::int64_t frame = 0; iterations == 0 || frame < iterations; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
    try {
      const HttpResponse status_response = http_get_retry(host, port, "/statusz");
      const HttpResponse metrics_response = http_get_retry(host, port, "/metrics");
      const HttpResponse health_response = http_get_retry(host, port, "/healthz");
      if (status_response.code == 0 || metrics_response.code == 0) {
        std::cerr << "no response from " << host << ":" << port << " (retrying)\n";
        continue;
      }
      std::vector<JsonField> statusz;
      std::string error;
      std::string status_line = status_response.body;
      while (!status_line.empty() && (status_line.back() == '\n' || status_line.back() == '\r')) {
        status_line.pop_back();
      }
      if (!parse_flat_json(status_line, statusz, error)) {
        std::cerr << "bad /statusz payload: " << error << "\n";
        continue;
      }
      std::vector<JsonField> health_fields;
      std::string health = "?";
      std::string health_line = health_response.body;
      while (!health_line.empty() && (health_line.back() == '\n' || health_line.back() == '\r')) {
        health_line.pop_back();
      }
      if (parse_flat_json(health_line, health_fields, error)) {
        health = get_string(health_fields, "status").value_or("?");
        const auto reasons = get_string(health_fields, "reasons").value_or("");
        if (!reasons.empty()) health += " (" + reasons + ")";
      }
      const MetricsSnapshot now = parse_prometheus(metrics_response.body);
      render(host, port, statusz, health, now, before, plain, std::cout);
      before = now;
    } catch (const std::exception& e) {
      std::cerr << "scrape failed: " << e.what() << " (retrying)\n";
    }
  }
  return 0;
}

}  // namespace
}  // namespace misuse::tools

int main(int argc, char** argv) { return misuse::tools::top_main(argc, argv); }
