// The serving workloads. portal_live sends an open loop of Poisson
// session arrivals straight to one misusedet_serve --io=epoll node;
// portal_fanout sends many short sessions through misusedet_router to
// two epoll nodes with a WAL, admin probes and per-tenant quotas. Both
// time every event from its due time to the receipt of its verdict at a
// reference rate, then keep a fixed number of events in flight to
// measure the rate the program sustains, and replay every session
// in-process to check each verdict byte for byte.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "core/monitor.hpp"
#include "procs.hpp"
#include "serve/event.hpp"
#include "serve/server.hpp"
#include "serve/wal.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace perfbench {

using misuse::core::MisuseDetector;
using misuse::core::OnlineMonitor;

namespace {

struct Plan {
  Shape shape;
  double reference_eps = 0.0;     ///< open-loop rate at which verdict latency is read
  double capacity_eps = 0.0;      ///< about what the reference host sustains
  std::size_t in_flight = 0;      ///< events outstanding while sustained_eps is measured
  std::size_t concurrency = 0;    ///< sessions in progress at once
  double idle_ttl_s = 0.0;        ///< nodes' event-time idle TTL
  std::size_t traced_events = 0;  ///< events replayed in-process when traced
};

// portal_live: the paper-shape model (hidden 256) on one node; scoring
// dominates. At 32 events in flight a verdict waits about 20 ms.
const Plan kLive{{600, 200, 4000, 256, 3}, 500, 1300, 32, 64, 900.0, 600};
// portal_fanout: hidden 16, about ten times cheaper per event, so the
// router hop, sockets, parse, session churn and the WAL carry the
// latency. The idle TTL (event time) retires sessions during the run and
// is longer than any gap inside a session: the gaps are exponential with
// a mean of 0.17 s at the reference rate, and a 2 s TTL cut one session
// in one run. A bounded number of events in flight keeps the nodes'
// queues short: an open loop above capacity stalls the router's forwards
// until it declares a node down and fails events, by design.
const Plan kFanout{{1200, 2000, 20000, 16, 3}, 1500, 14000, 64, 256, 4.0, 4000};

// The run's seconds: the reference phase takes this share, the
// saturation phase the rest (its size at capacity_eps).
constexpr double kReferenceShare = 0.6;
constexpr std::size_t kConnections = 4;   // each carries whole sessions
constexpr double kMisuseFraction = 0.04;  // sessions replaced by injected misuse
constexpr std::size_t kSetups = 3;        // set-up repetitions (median reported)
constexpr double kTimestampBase = 1.7e9;  // event time = base + due time
constexpr double kMaxLagMs = 10.0;        // generator lag p90 that voids a run
constexpr std::size_t kWarmSessions = 16;
constexpr std::size_t kWindow = 1000;  // events per p99 window: ten beyond the p99
constexpr double kLeadIn = 1.0;        // seconds of unmeasured traffic at the reference rate
// Node n listens on kNodePort + n, below the ephemeral range. The router
// places a node on its hash ring by "host:port", so with ephemeral ports
// the busiest node's share of sessions changed from run to run (from
// about half to nine tenths), and with it the saturated rate.
constexpr std::uint16_t kNodePort = 29400;

/// Lead-in and reference events are sent when due (open loop);
/// saturation events as soon as fewer than Plan::in_flight are
/// outstanding (closed loop).
enum class Phase { kLeadIn, kReference, kSaturation };

struct SessionPlan {
  std::string user;
  std::string id;
  std::vector<int> actions;
  bool misuse = false;
  std::vector<std::size_t> events;  ///< indices into the event list, by step
};

struct EventPlan {
  std::size_t session = 0;
  std::size_t step = 0;  ///< 0-based
  double due = 0.0;      ///< seconds after the traffic start; the event time
  Phase phase = Phase::kLeadIn;
  std::string line;
  // Filled while running.
  double generated = -1.0;
  double received = -1.0;
  std::string reply;
};

struct Schedule {
  std::vector<SessionPlan> sessions;
  std::vector<EventPlan> events;  ///< ascending due time
  double saturation_start = 0.0;  ///< when the closed loop may begin
};

/// "u17", "s3": an id with a one-letter kind.
std::string tagged(char kind, std::size_t n) {
  std::string id(1, kind);
  id += std::to_string(n);
  return id;
}

std::string event_line(const SessionPlan& s, const misuse::ActionVocab& vocab, int action,
                       double due) {
  char ts[64];
  std::snprintf(ts, sizeof ts, "%.6f", kTimestampBase + due);
  return "{\"user_id\":\"" + s.user + "\",\"session_id\":\"" + s.id + "\",\"action\":\"" +
         vocab.name(action) + "\",\"timestamp\":" + ts + "}";
}

/// Events arrive as a Poisson process: a 1 s lead-in and then the
/// reference phase at the reference rate, then (untraced) the saturation
/// phase, whose arrival times at capacity_eps are only event-time stamps.
/// Each arrival goes to one of `concurrency` user slots chosen at random;
/// the slot's session emits its next action, and a slot whose session has
/// ended opens the next session of the pool. Sessions keep the corpus's
/// length law, and the heavy tail of that law does not smear load across
/// phases. The lead-in lets sessions, buffers and the WAL reach their
/// steady state; its events are sent and checked but not timed.
Schedule make_schedule(const Plan& plan, double seconds, bool saturate,
                       const std::vector<misuse::Session>& pool,
                       const misuse::ActionVocab& vocab, std::uint64_t seed) {
  Schedule s;
  const double reference_s = saturate ? seconds * kReferenceShare : seconds;
  s.saturation_start = kLeadIn + reference_s;
  struct Segment {
    Phase phase;
    double rate, t0, duration;
  };
  std::vector<Segment> segments = {{Phase::kLeadIn, plan.reference_eps, 0.0, kLeadIn},
                                   {Phase::kReference, plan.reference_eps, kLeadIn, reference_s}};
  if (saturate) {
    segments.push_back({Phase::kSaturation, plan.capacity_eps, s.saturation_start,
                        seconds - reference_s});
  }
  misuse::Rng pick(seed ^ 0x5eed);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot(plan.concurrency, kNone);
  for (std::size_t k = 0; k < segments.size(); ++k) {
    const Segment& seg = segments[k];
    for (const double due : poisson_arrivals(seg.rate, seg.t0, seg.duration, seed + 101 * (k + 1))) {
      std::size_t& current = slot[pick.uniform_index(slot.size())];
      if (current == kNone || s.sessions[current].events.size() == s.sessions[current].actions.size()) {
        current = s.sessions.size();
        const misuse::Session& src = pool[current % pool.size()];
        SessionPlan sp;
        sp.user = tagged('u', src.user);
        sp.id = tagged('s', current);
        sp.actions = src.actions;
        sp.misuse = src.injected_misuse;
        s.sessions.push_back(std::move(sp));
      }
      SessionPlan& sp = s.sessions[current];
      EventPlan e;
      e.session = current;
      e.step = sp.events.size();
      e.due = due;
      e.phase = seg.phase;
      e.line = event_line(sp, vocab, sp.actions[e.step], due);
      sp.events.push_back(s.events.size());
      s.events.push_back(std::move(e));
    }
  }
  return s;
}

// -- Client ---------------------------------------------------------------

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  explicit Connection(misuse::TcpStream stream) : stream_(std::move(stream)) {
    fd = stream_.fd();
    misuse::set_nonblocking(fd);
  }
  void close() { stream_.close(); }

 private:
  misuse::TcpStream stream_;
};

double clock_s(std::uint64_t origin_ns) {
  return static_cast<double>(static_cast<std::int64_t>(now_ns() - origin_ns)) * 1e-9;
}

/// Pulls `"key":"value"` or `"key":number` out of flat JSON.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  std::size_t b = pos + needle.size();
  if (b < line.size() && line[b] == '"') {
    const auto e = line.find('"', b + 1);
    return e == std::string::npos ? std::string{} : line.substr(b + 1, e - b - 1);
  }
  const auto e = line.find_first_of(",}", b);
  return line.substr(b, e == std::string::npos ? std::string::npos : e - b);
}

double json_number(const std::string& text, const std::string& key) {
  return std::strtod(json_field(text, key).c_str(), nullptr);
}

struct ClientStats {
  std::size_t unmatched = 0;  ///< error records, unknown or duplicate replies
  std::string first_unmatched;
  std::size_t warm_replies = 0;
};

/// The client: one thread multiplexes every connection, writes each
/// open-loop event when it is due (or later, if it fell behind — that lag
/// is recorded) and each closed-loop event when the window has room, and
/// stamps each verdict as it arrives.
class Client {
 public:
  Client(std::vector<std::unique_ptr<Connection>>& conns, Schedule& schedule)
      : conns_(conns), schedule_(schedule) {}

  /// Sends session s's lines on connection s % n, closed loop, and waits
  /// for one reply per line.
  bool warm_up(const std::vector<std::vector<std::string>>& sessions, ClientStats& stats,
               double timeout_s) {
    std::size_t lines = 0;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      for (const auto& line : sessions[s]) conns_[s % conns_.size()]->out += line + "\n";
      lines += sessions[s].size();
    }
    const std::uint64_t origin = now_ns();
    while (stats.warm_replies < lines && clock_s(origin) < timeout_s) {
      if (!pump(0.01, origin, stats, true)) return false;
    }
    return stats.warm_replies == lines;
  }

  /// Runs the schedule, open loop and then closed loop with at most
  /// `in_flight` events outstanding. Stops `drain_s` after the last
  /// planned due time at the latest; returns false on a socket error.
  bool run(std::uint64_t origin, std::size_t in_flight, double drain_s, ClientStats& stats) {
    auto& events = schedule_.events;
    const double deadline = (events.empty() ? 0.0 : events.back().due) + drain_s;
    std::size_t next = 0;
    for (;;) {
      const double now = clock_s(origin);
      while (next < events.size()) {
        EventPlan& e = events[next];
        const bool ready = e.phase == Phase::kSaturation
                               ? now >= schedule_.saturation_start && next - answered_ < in_flight
                               : e.due <= now;
        if (!ready) break;
        e.generated = now;
        Connection& c = *conns_[e.session % conns_.size()];  // whole sessions per connection
        c.out += e.line;
        c.out += '\n';
        ++next;
      }
      if (answered_ == events.size() || now > deadline) return true;
      double wait = 0.01;  // until a verdict arrives, when the window is full
      if (next < events.size() && events[next].phase != Phase::kSaturation) {
        wait = std::max(0.0, events[next].due - now);
      } else if (next < events.size() && now < schedule_.saturation_start) {
        wait = schedule_.saturation_start - now;
      }
      if (!pump(wait, origin, stats, false)) return false;
    }
  }

 private:
  bool pump(double wait_s, std::uint64_t origin, ClientStats& stats, bool warm) {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Connection& c = *conns_[i];
      flush(c);
      fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0)), 0};
    }
    timespec ts{static_cast<time_t>(wait_s), static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    char buf[1 << 16];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLERR | POLLHUP)) != 0 && (fds[i].revents & POLLIN) == 0) {
        return false;
      }
      if ((fds[i].revents & POLLIN) == 0) continue;
      Connection& c = *conns_[i];
      for (;;) {
        const ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) return false;  // the server hung up
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      const double now = clock_s(origin);
      std::size_t begin = 0;
      for (std::size_t nl; (nl = c.in.find('\n', begin)) != std::string::npos; begin = nl + 1) {
        handle(c.in.substr(begin, nl - begin), now, stats, warm);
      }
      c.in.erase(0, begin);
    }
    return true;
  }

  void flush(Connection& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;  // EAGAIN: the kernel buffer is full; POLLOUT resumes
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  void handle(const std::string& line, double now, ClientStats& stats, bool warm) {
    const std::string id = json_field(line, "session_id");
    const std::string step = json_field(line, "step");
    auto reject = [&] {
      if (stats.unmatched++ == 0) stats.first_unmatched = line;
    };
    if (json_field(line, "type") != "step" || id.size() < 2 || step.empty()) return reject();
    if (warm) {
      if (id[0] == 'w') ++stats.warm_replies; else reject();
      return;
    }
    if (id[0] != 's') return reject();
    const std::size_t s = std::strtoull(id.c_str() + 1, nullptr, 10);
    const std::size_t k = std::strtoull(step.c_str(), nullptr, 10);
    if (s >= schedule_.sessions.size() || k == 0 || k > schedule_.sessions[s].events.size()) {
      return reject();
    }
    EventPlan& e = schedule_.events[schedule_.sessions[s].events[k - 1]];
    if (e.received >= 0.0 || e.generated < 0.0) return reject();
    e.received = now;
    e.reply = line;
    ++answered_;
  }

  std::vector<std::unique_ptr<Connection>>& conns_;
  Schedule& schedule_;
  std::size_t answered_ = 0;
};

// -- Daemons --------------------------------------------------------------

struct Cluster {
  std::vector<std::unique_ptr<Daemon>> nodes;
  std::vector<std::uint16_t> admin_ports;
  std::unique_ptr<Daemon> router;
  std::uint16_t entry_port = 0;  ///< where clients connect
  std::string router_metrics;
};

std::optional<Cluster> start_cluster(const Options& o, const Plan& plan, bool fanout,
                                     const std::string& archive) {
  Cluster cl;
  const std::size_t node_count = fanout ? 2 : 1;
  std::string nodes_spec;
  for (std::size_t n = 0; n < node_count; ++n) {
    std::vector<std::string> argv = {o.bin_dir + "/serve/misusedet_serve", "--model=" + archive,
                                     "--listen=" + std::to_string(kNodePort + n), "--io=epoll",
                                     "--admin-port=0",
                                     "--idle-ttl=" + std::to_string(plan.idle_ttl_s)};
    if (fanout) {
      const std::string wal = o.work_dir + "/wal" + std::to_string(n);
      std::filesystem::remove_all(wal);
      std::filesystem::create_directories(wal);
      argv.push_back("--wal-dir=" + wal);
    }
    cl.nodes.push_back(std::make_unique<Daemon>(argv, o.work_dir + "/node" + std::to_string(n),
                                                static_cast<int>(n + 1)));
  }
  for (auto& node : cl.nodes) {
    const std::uint16_t port = node->wait_port("listening on port ", 60.0);
    const std::uint16_t admin = node->wait_port("admin endpoint on port ", 10.0);
    if (port == 0 || admin == 0) return std::nullopt;
    cl.admin_ports.push_back(admin);
    nodes_spec += (nodes_spec.empty() ? "" : ",") + std::string("127.0.0.1:") +
                  std::to_string(port) + ":" + std::to_string(admin);
    cl.entry_port = port;
  }
  if (fanout) {
    cl.router_metrics = o.work_dir + "/router_metrics.json";
    std::filesystem::remove(cl.router_metrics);
    cl.router = std::make_unique<Daemon>(
        std::vector<std::string>{o.bin_dir + "/router/misusedet_router", "--nodes=" + nodes_spec,
                                 "--listen=0", "--host=127.0.0.1", "--quota-rate=1000",
                                 "--quota-burst=1000", "--health-interval=0.5",
                                 "--session-ttl=" + std::to_string(5 * plan.idle_ttl_s),
                                 "--node-ttl=" + std::to_string(plan.idle_ttl_s),
                                 "--metrics-out=" + cl.router_metrics},
        o.work_dir + "/router", static_cast<int>(node_count + 1));
    cl.entry_port = cl.router->wait_port("listening on port ", 30.0);
    if (cl.entry_port == 0) return std::nullopt;
  }
  return cl;
}

std::vector<std::unique_ptr<Connection>> connect_all(std::uint16_t port, std::size_t n) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t i = 0; i < n; ++i) {
    conns.push_back(std::make_unique<Connection>(misuse::tcp_connect("127.0.0.1", port)));
  }
  return conns;
}

// -- Traced replay ----------------------------------------------------------

struct LayerTimes {
  double replay_seconds = 0.0;
  std::size_t events = 0;
  double wal_bytes = 0.0;
  double heads_read = 0.0;
  double heads_computed = 0.0;
  double advances = 0.0;
  std::vector<double> unscored_ms;  ///< per event: latency minus parse + submit
};

/// Replays the first sessions that open in the reference phase (whole
/// sessions, about `budget` events, in due order) through the layers'
/// public calls:
/// serve::parse_event, ScoringServer::submit_sync, the WAL writer, and
/// twins of OnlineMonitor::observe, ClusterAssigner online scoring and
/// the per-cluster model advance and head, each on its own state. A
/// twin's span is a child of the call whose share it measures, so the
/// parent's self time is its duration minus the twins'. The root span of
/// an event is its client-side interval (due time to verdict received,
/// on the run's clock); its self time is the unscored path: sockets,
/// epoll wait and, on fanout, the router hop. Intervals are timed around
/// the calls and logged afterwards, so logging stays outside them.
LayerTimes traced_replay(const Schedule& sched, std::uint64_t origin,
                         const MisuseDetector& detector,
                         const misuse::serve::ServeConfig& serve_config, std::size_t budget,
                         bool with_wal, const std::string& wal_dir, SpanLog& log) {
  LayerTimes out;
  std::vector<std::uint8_t> chosen(sched.sessions.size(), 0);
  std::size_t picked = 0;
  for (std::size_t s = 0; s < sched.sessions.size() && picked < budget; ++s) {
    if (sched.events[sched.sessions[s].events.front()].phase != Phase::kReference) continue;
    chosen[s] = 1;
    picked += sched.sessions[s].events.size();
  }
  misuse::serve::ModelHandle handle;  // non-owning: the caller keeps the detector alive
  handle.detector = std::shared_ptr<const MisuseDetector>(&detector, [](const MisuseDetector*) {});
  misuse::serve::ServeConfig config = serve_config;
  std::optional<misuse::serve::WalWriter> wal;
  if (with_wal) {
    std::filesystem::remove_all(wal_dir);
    config.wal_dir = wal_dir + "/server";
    std::filesystem::create_directories(config.wal_dir);
    wal.emplace(wal_dir + "/twin.wal", config.wal_sync_every);
  }
  misuse::serve::ScoringServer server(handle, config);

  struct Twin {
    std::unique_ptr<OnlineMonitor> monitor;
    std::optional<misuse::cluster::ClusterAssigner::OnlineAssignment> assign;
    std::vector<MisuseDetector::ClusterState> states;
  };
  std::map<std::size_t, Twin> twins;
  const std::size_t k = detector.cluster_count();
  std::vector<misuse::serve::OutputRecord> records;
  std::vector<float> dist;
  std::string error;
  std::uint64_t seq = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < sched.events.size(); ++i) {
    const EventPlan& e = sched.events[i];
    if (chosen[e.session] == 0 || e.received < 0.0) continue;
    Twin& twin = twins[e.session];
    if (!twin.monitor) {
      twin.monitor = std::make_unique<OnlineMonitor>(detector, serve_config.monitor);
      twin.assign.emplace(detector.assigner().start_online());
      for (std::size_t c = 0; c < k; ++c) twin.states.push_back(detector.make_cluster_state(c));
    }
    const auto at = [origin](double t) {
      return origin + static_cast<std::uint64_t>(std::llround(t * 1e9));
    };
    const std::int32_t root = log.add("event", SpanLog::kNone, i, at(e.due), at(e.received));

    misuse::serve::Event event;
    const std::uint64_t t0 = now_ns();
    misuse::serve::parse_event(e.line, event, error);
    const std::uint64_t t1 = now_ns();
    server.submit_sync(event, records);
    const std::uint64_t t2 = now_ns();
    records.clear();
    log.add("serve.event.parse", root, i, t0, t1);
    const std::int32_t submit = log.add("serve.server.submit", root, i, t1, t2);
    out.unscored_ms.push_back(
        std::max(0.0, (e.received - e.due) * 1e3 - static_cast<double>(t2 - t0) * 1e-6));

    if (wal) {
      const std::uint64_t w0 = now_ns();
      const std::string framed = misuse::serve::encode_event_record(event, ++seq);
      const std::uint64_t w1 = now_ns();
      wal->append(framed);
      const std::uint64_t w2 = now_ns();
      wal->flush();
      const std::uint64_t w3 = now_ns();
      log.add("serve.wal.encode", submit, i, w0, w1);
      log.add("serve.wal.append", submit, i, w1, w2);
      log.add("serve.wal.flush", submit, i, w2, w3);
      out.wal_bytes += static_cast<double>(framed.size());
    }
    const int action = sched.sessions[e.session].actions[e.step];
    const std::uint64_t m0 = now_ns();
    const auto step = twin.monitor->observe(action);
    const std::uint64_t m1 = now_ns();
    twin.assign->push(action);
    const std::uint64_t m2 = now_ns();
    const std::int32_t observe = log.add("core.monitor.observe", submit, i, m0, m1);
    log.add("cluster.assign.score", observe, i, m1, m2);
    for (std::size_t c = 0; c < k; ++c) {
      const std::uint64_t a0 = now_ns();
      detector.step_cluster_into(c, twin.states[c], action, dist);
      const std::uint64_t a1 = now_ns();
      const std::int32_t adv = log.add("nn.infer.advance", observe, i, a0, a1);
      if (twin.states[c].use_engine && !detector.cluster_degraded(c)) {
        const std::uint64_t h0 = now_ns();
        detector.materialize_cluster_dist(c, twin.states[c], dist);
        log.add("nn.infer.head", adv, i, h0, now_ns());
      }
    }
    out.advances += static_cast<double>(k);
    out.heads_computed += static_cast<double>(k);
    if (step.step >= 2) out.heads_read += step.cluster_argmax == step.cluster_voted ? 1.0 : 2.0;
    ++out.events;
  }
  out.replay_seconds = seconds_since(start);
  return out;
}

}  // namespace

Result run_traffic(const Options& o, bool fanout) {
  const Plan& plan = fanout ? kFanout : kLive;
  Result r;
  ::setenv("MISUSEDET_LOG_LEVEL", "info", 1);  // the daemons' port handshakes
  std::filesystem::create_directories(o.work_dir);
  const std::string archive = o.work_dir + "/detector.bin";

  // -- Set-up, repeated: corpus, training, archive, daemons, connections,
  // warm-up. Only the last repetition's daemons serve the measured run.
  std::vector<double> setup_s, train_s, save_s, load_s, lm_actions;
  std::vector<TrainStages> stages;
  std::optional<Corpus> corpus;
  std::optional<MisuseDetector> detector;
  std::optional<Cluster> cluster;
  std::vector<std::unique_ptr<Connection>> conns;
  ClientStats warm_stats;
  std::string first_archive;
  std::size_t warm_events = 0;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    conns.clear();
    cluster.reset();
    const std::uint64_t t0 = now_ns();
    corpus.emplace(make_corpus(plan.shape, o.seed));
    misuse::trace_reset();
    std::uint64_t t = now_ns();
    detector.emplace(MisuseDetector::train(corpus->train, detector_config(plan.shape)));
    train_s.push_back(seconds_since(t));
    stages.push_back(train_stages());
    lm_actions.push_back(lm_train_actions(*detector, corpus->train));
    t = now_ns();
    const std::string bytes = save_bytes(*detector);
    save_s.push_back(seconds_since(t));
    if (first_archive.empty()) first_archive = bytes;
    if (bytes != first_archive) r.fail("two identical trainings saved different archives");
    if (!misuse::write_file_atomic(archive, bytes)) throw std::runtime_error("cannot write " + archive);
    cluster = start_cluster(o, plan, fanout, archive);
    if (!cluster) {
      throw std::runtime_error("daemons did not come up (is a port from " + std::to_string(kNodePort) +
                               " on taken? see " + o.work_dir + ")");
    }
    conns = connect_all(cluster->entry_port, kConnections);
    // Warm-up: a few training sessions, closed loop, so connections,
    // lazy allocations and caches settle before timing.
    std::vector<std::vector<std::string>> warm(kWarmSessions);
    warm_events = 0;
    for (std::size_t s = 0; s < kWarmSessions; ++s) {
      SessionPlan sp;
      sp.user = "u0";
      sp.id = tagged('w', s);
      const auto& actions = corpus->train.at(s).actions;
      for (std::size_t j = 0; j < std::min<std::size_t>(actions.size(), 12); ++j) {
        warm[s].push_back(
            event_line(sp, corpus->train.vocab(), actions[j], 0.001 * static_cast<double>(j)));
      }
      warm_events += warm[s].size();
    }
    warm_stats = {};
    Schedule none;
    Client warm_client(conns, none);
    if (!warm_client.warm_up(warm, warm_stats, 60.0)) {
      throw std::runtime_error("warm-up got no verdicts");
    }
    setup_s.push_back(seconds_since(t0));
  }
  {
    const std::uint64_t t = now_ns();
    const MisuseDetector reloaded = MisuseDetector::load_file(archive);
    load_s.push_back(seconds_since(t));
  }

  // -- Measured run.
  std::vector<misuse::Session> pool = corpus->traffic;
  inject_misuse(corpus->portal, pool, kMisuseFraction, o.seed + 3);
  // The traced run holds the reference rate throughout.
  Schedule sched = make_schedule(plan, o.seconds, !o.trace, pool, corpus->train.vocab(), o.seed);
  ClientStats stats;
  Client client(conns, sched);
  const std::uint64_t origin = now_ns() + 20'000'000;
  {
    const ScopedCpuPin pin(0);  // the daemons have CPUs 1, 2, ...
    if (!client.run(origin, plan.in_flight, 20.0, stats)) r.fail("a connection failed during the run");
  }

  // Node-side instruments, read once at the end, before the daemons stop.
  double peak_rss_kb = 0.0;
  double busiest_node_events = 0.0;
  std::map<std::string, double> node_metrics;
  for (std::size_t n = 0; n < cluster->nodes.size(); ++n) {
    peak_rss_kb += static_cast<double>(cluster->nodes[n]->peak_rss_kb());
    const auto metrics = parse_prometheus(http_get(cluster->admin_ports[n], "/metrics"));
    const auto events = metrics.find("misusedet_serve_events_total");
    if (events != metrics.end()) busiest_node_events = std::max(busiest_node_events, events->second);
    for (const auto& [name, value] : metrics) {
      // Quantile summaries are averaged over nodes, everything else summed.
      node_metrics[name] += name.find("quantile=") != std::string::npos
                                ? value / static_cast<double>(cluster->nodes.size())
                                : value;
    }
  }
  for (auto& c : conns) c->close();
  conns.clear();
  std::string router_metrics;
  if (cluster->router) {
    cluster->router->stop(10.0);
    router_metrics = misuse::read_file(cluster->router_metrics).value_or("");
  }
  std::size_t reports = 0;
  std::size_t idle_reports = 0;
  for (auto& node : cluster->nodes) {
    if (!node->stop(30.0)) r.fail("a node did not drain and exit cleanly on SIGTERM");
    std::istringstream out(misuse::read_file(node->out_path()).value_or(""));
    for (std::string line; std::getline(out, line);) {
      if (json_field(line, "type") != "session_report") continue;
      ++reports;
      if (json_field(line, "reason") == "idle_eviction") ++idle_reports;
    }
  }

  // -- Output check: every event answered exactly once, with the verdict
  // an in-process OnlineMonitor replay of the same session gives.
  const MisuseDetector served = MisuseDetector::load_file(archive);
  std::size_t sent = 0, answered = 0;
  for (const auto& e : sched.events) {
    sent += e.generated >= 0.0 ? 1 : 0;
    answered += e.received >= 0.0 ? 1 : 0;
  }
  r.attempted = sent;
  r.failed = sent - answered;
  if (stats.unmatched > 0) {
    r.fail(std::to_string(stats.unmatched) + " replies matched no event, e.g. " +
           stats.first_unmatched);
  }
  if (answered != sent) r.fail(std::to_string(sent - answered) + " events got no verdict");
  std::vector<std::uint8_t> mismatch(sched.sessions.size(), 0);
  std::vector<double> session_score(sched.sessions.size(), -1.0);
  const misuse::core::MonitorConfig monitor_config;
  misuse::global_pool().parallel_for(0, sched.sessions.size(), [&](std::size_t s) {
    OnlineMonitor monitor(served, monitor_config);
    misuse::core::SessionAccumulator acc;
    misuse::serve::Event event;
    std::string error;
    std::size_t n = 0;
    for (const std::size_t i : sched.sessions[s].events) {
      const EventPlan& e = sched.events[i];
      if (e.generated < 0.0) break;
      if (!misuse::serve::parse_event(e.line, event, error)) {
        mismatch[s] = 1;
        return;
      }
      const int action = misuse::serve::resolve_action_id(served.vocab(), event.action);
      const auto step = monitor.observe(action);
      acc.add(step);
      ++n;
      if (e.received >= 0.0 && misuse::serve::render_step_record(event, step) != e.reply) {
        mismatch[s] = 1;
      }
    }
    if (n >= 2) session_score[s] = acc.report().avg_likelihood_voted;
  });
  const auto bad = static_cast<std::size_t>(std::count(mismatch.begin(), mismatch.end(), 1));
  if (bad > 0) r.fail(std::to_string(bad) + " sessions got verdicts that differ from the replay");
  std::size_t opened = kWarmSessions;
  for (const auto& sp : sched.sessions) {
    opened += !sp.events.empty() && sched.events[sp.events[0]].generated >= 0.0 ? 1 : 0;
  }
  if (reports != opened) {
    r.fail("nodes reported " + std::to_string(reports) + " sessions for " +
           std::to_string(opened) + " opened");
  }
  if (fanout) {
    const double events = json_number(router_metrics, "router.events");
    const double replies = json_number(router_metrics, "router.replies");
    if (replies != events || events != static_cast<double>(sent + warm_events)) {
      r.fail("router forwarded " + std::to_string(events) + " events and returned " +
             std::to_string(replies) + " replies for " + std::to_string(sent + warm_events) + " sent");
    }
    if (json_number(router_metrics, "router.replay_events") != 0.0) r.fail("router replayed events");
    if (json_number(router_metrics, "router.quota_rejected") != 0.0) r.fail("router refused events");
  }

  if (!r.correct) return r;

  // -- Phases: verdict latency from the due time at the reference rate;
  // the completion rate while `in_flight` events stay outstanding.
  std::vector<double> reference_ms, saturation_ms, completed, due, generated;
  for (const auto& e : sched.events) {
    if (e.generated < 0.0) continue;
    if (e.phase == Phase::kSaturation) {
      saturation_ms.push_back((e.received - e.generated) * 1e3);
      completed.push_back(e.received);
      continue;
    }
    due.push_back(e.due * 1e3);
    generated.push_back(e.generated * 1e3);
    if (e.phase == Phase::kReference) reference_ms.push_back((e.received - e.due) * 1e3);
  }
  const std::vector<double> lag_ms = lateness(due, generated);
  const double lag_p99 = percentile(lag_ms, 99);
  const double reference_p99 = windowed_percentile(reference_ms, 99, kWindow);
  const double sustained = windowed_rate(completed, kWindow);
  std::cerr << "reference " << plan.reference_eps << "/s: " << reference_ms.size()
            << " events, p50 " << percentile(reference_ms, 50) << " ms, windowed p99 "
            << reference_p99 << " ms\n";
  if (!o.trace) {
    std::cerr << "saturation, " << plan.in_flight << " in flight: " << completed.size()
              << " events, " << sustained << "/s, p50 " << percentile(saturation_ms, 50)
              << " ms, windowed p99 " << windowed_percentile(saturation_ms, 99, kWindow)
              << " ms\n";
  }
  if (top_percentile(reference_ms.size()) < 99.0) {
    throw std::runtime_error("reference phase too short for a p99 (raise --seconds)");
  }
  if (!o.trace && sustained <= 0.0) {
    throw std::runtime_error("saturation phase too short for a rate (raise --seconds)");
  }
  // Stalls of the host delay a few events by tens of milliseconds; a
  // generator that cannot keep up is late on many.
  if (percentile(lag_ms, 90) > kMaxLagMs) {
    throw std::runtime_error("generator fell behind: lag p90 " +
                             std::to_string(percentile(lag_ms, 90)) + " ms; the run is invalid");
  }

  // Quality: per-session mean voted likelihood, misuse against normal.
  std::vector<double> normal, misuse_scores;
  for (std::size_t s = 0; s < sched.sessions.size(); ++s) {
    if (session_score[s] < 0.0) continue;
    (sched.sessions[s].misuse ? misuse_scores : normal).push_back(session_score[s]);
  }
  // Continuous learning: fine-tune on the slice of the history that
  // follows the training corpus (median of three identical passes).
  const auto windows = route_windows(*detector, corpus->tune);
  std::vector<double> finetune_runs;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t = now_ns();
    const MisuseDetector candidate = MisuseDetector::fine_tune(*detector, windows, {});
    finetune_runs.push_back(seconds_since(t));
  }
  const double finetune_s = median(finetune_runs);
  const double nll = heldout_nll(*detector, corpus->train);

  std::cerr << (fanout ? "portal_fanout" : "portal_live") << ": " << detector->cluster_count()
            << " clusters, " << sched.sessions.size() << " sessions, " << sent << " events, "
            << misuse_scores.size() << " misuse / " << normal.size() << " normal scored, lag p99 "
            << lag_p99 << " ms\n";
  if (!o.trace) {
    r.add("setup_s", median(setup_s), "s");
    r.add("verdict_p50_ms", percentile(reference_ms, 50), "ms");
    r.add("sustained_eps", sustained, "1/s");
    r.add("node_rss_mb", peak_rss_kb / 1024.0, "MB");
    r.add("misuse_auc", misuse_auc(normal, misuse_scores), "ratio");
    r.add("train_s", median(train_s), "s");
    r.add("finetune_s", finetune_s, "s");
    r.add("heldout_nll", nll, "nats");
    return r;
  }

  // -- Traced run: per-layer metrics, from a replay with spans off
  // (for the overhead) and one with spans on.
  misuse::serve::ServeConfig serve_config;
  serve_config.idle_ttl_seconds = plan.idle_ttl_s;
  SpanLog log;
  const std::string replay_wal = o.work_dir + "/replay_wal";
  const LayerTimes bare =
      traced_replay(sched, origin, served, serve_config, plan.traced_events, fanout, replay_wal, log);
  log.set_enabled(true);
  const LayerTimes lt =
      traced_replay(sched, origin, served, serve_config, plan.traced_events, fanout, replay_wal, log);
  const auto totals = log.totals();
  auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanLog::Totals{} : it->second;
  };
  const double events = static_cast<double>(lt.events);
  const double parse_s = total("serve.event.parse").seconds;
  const double cluster_s = total("cluster.assign.score").seconds;
  // Shares: each layer's median self time per event, over the sum of
  // those medians. The median keeps the host's stall tail and queueing
  // bursts, which land on a few events' unscored path, out of the split.
  const auto by_id = log.self_by_id();
  auto per_event = [&](std::initializer_list<const char*> names) {
    std::vector<double> xs;
    for (const auto& event : by_id.at("event")) {
      const std::uint64_t id = event.first;
      double sum = 0.0;
      for (const char* name : names) {
        const auto layer = by_id.find(name);
        if (layer == by_id.end()) continue;
        const auto it = layer->second.find(id);
        if (it != layer->second.end()) sum += it->second;
      }
      xs.push_back(sum);
    }
    return median(xs);
  };
  const double path_s = per_event({"event"});
  const double nn_s = per_event({"nn.infer.advance", "nn.infer.head"});
  const double cluster_share_s = per_event({"cluster.assign.score"});
  const double core_s = per_event({"core.monitor.observe"});
  const double serve_s = per_event({"serve.event.parse", "serve.server.submit", "serve.wal.encode",
                                    "serve.wal.append", "serve.wal.flush"});
  const double all = path_s + nn_s + cluster_share_s + core_s + serve_s;
  std::size_t svs = 0;
  for (std::size_t c = 0; c < served.cluster_count(); ++c) {
    svs += served.assigner().svm(c).support_vector_count();
  }
  const double peak_sessions = node_metrics["misusedet_serve_sessions_active_high_water"];
  log.write_jsonl(o.work_dir + "/spans_" + o.workload + ".jsonl");

  r.add("serve.event.parse_us", parse_s / events * 1e6, "us");
  r.add("serve.server.submit_self_us", total("serve.server.submit").self_seconds / events * 1e6, "us");
  r.add("serve.session.opened", static_cast<double>(reports), "count");
  r.add("serve.session.retired", static_cast<double>(idle_reports), "count");
  r.add("serve.wal.append_us", total("serve.wal.append").seconds / events * 1e6, "us");
  r.add("serve.wal.flush_us", total("serve.wal.flush").seconds / events * 1e6, "us");
  r.add("serve.wal.bytes_per_event", lt.wal_bytes / events, "B");
  r.add("core.monitor.observe_us", total("core.monitor.observe").seconds / events * 1e6, "us");
  r.add("cluster.assign.score_us", cluster_s / events * 1e6, "us");
  r.add("ocsvm.support_vectors", static_cast<double>(svs), "count");
  r.add("nn.infer.step_us", total("nn.infer.advance").self_seconds / lt.advances * 1e6, "us");
  r.add("nn.infer.head_us",
        total("nn.infer.head").count > 0
            ? total("nn.infer.head").seconds / static_cast<double>(total("nn.infer.head").count) * 1e6
            : 0.0,
        "us");
  r.add("nn.infer.cluster_steps_per_event", lt.advances / events, "count");
  r.add("nn.infer.heads_used_frac", lt.heads_read / lt.heads_computed, "ratio");
  r.add("node.observe_p50_us",
        node_metrics["misusedet_monitor_observe_seconds_summary{quantile=\"0.5\"}"] * 1e6, "us");
  r.add("node.observe_p99_us",
        node_metrics["misusedet_monitor_observe_seconds_summary{quantile=\"0.99\"}"] * 1e6, "us");
  r.add("path.unscored_p50_ms", percentile(lt.unscored_ms, 50), "ms");
  r.add("node.queue_high_water", node_metrics["misusedet_serve_queue_depth_high_water"], "count");
  r.add("node.parse_errors", node_metrics["misusedet_serve_parse_errors_total"], "count");
  r.add("router.replies_per_event",
        fanout ? json_number(router_metrics, "router.replies") /
                     std::max(1.0, json_number(router_metrics, "router.events"))
               : 0.0,
        "ratio");
  r.add("router.replay_events", json_number(router_metrics, "router.replay_events"), "count");
  r.add("router.quota_rejected", json_number(router_metrics, "router.quota_rejected"), "count");
  r.add("router.busiest_node_share",
        busiest_node_events / std::max(1.0, node_metrics["misusedet_serve_events_total"]), "ratio");
  r.add("node.rss_kb_per_session", peak_sessions > 0.0 ? peak_rss_kb / peak_sessions : 0.0, "kB");
  add_train_layers(r, stages, lm_actions);
  r.add("core.archive.save_s", median(save_s), "s");
  r.add("core.archive.load_s", median(load_s), "s");
  r.add("gen.lag_p99_ms", lag_p99, "ms");
  r.add("trace.overhead_frac", lt.replay_seconds / bare.replay_seconds - 1.0, "ratio");
  r.add("trace.verdict_p50_ms", percentile(reference_ms, 50), "ms");
  r.add("verdict_p99_ms", reference_p99, "ms");
  r.add("quality.detect_at_1pct_far", detect_at_far(normal, misuse_scores, 0.01), "ratio");
  r.add("share.path", path_s / all, "ratio");
  r.add("share.serve", serve_s / all, "ratio");
  r.add("share.core", core_s / all, "ratio");
  r.add("share.cluster", cluster_share_s / all, "ratio");
  r.add("share.nn.infer", nn_s / all, "ratio");
  return r;
}

}  // namespace perfbench
