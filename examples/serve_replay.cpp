// Replay client for misusedet_serve: trains a small detector on the
// synthetic portal, saves the archive, generates an *interleaved*
// multi-user NDJSON event trace (with a couple of injected attacks), and
// drives the scoring server with it.
//
// Modes:
//   ./build/examples/serve_replay --train-model=detector.bin
//       train + save the archive and exit (feeds misusedet_serve --model).
//   ./build/examples/serve_replay --emit-trace [--sessions=N]
//       print the interleaved NDJSON trace to stdout; pipe it into
//       "misusedet_serve --model=detector.bin" for the end-to-end demo.
//   ./build/examples/serve_replay --connect=HOST:PORT [--sessions=N]
//       stream the trace to a listening misusedet_serve --listen=PORT and
//       print the verdicts that come back.
//   ./build/examples/serve_replay
//       in-process end-to-end demo: train -> save -> load -> serve the
//       trace through the ScoringServer core and summarize the alarms.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <vector>

#include "core/detector.hpp"
#include "serve/server.hpp"
#include "synth/portal.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/line_io.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

using namespace misuse;

namespace {

synth::Portal make_portal() {
  synth::PortalConfig config;
  config.sessions = 1200;
  config.users = 120;
  config.action_count = 90;
  config.seed = 11;
  return synth::Portal(config);
}

core::DetectorConfig demo_detector_config() {
  core::DetectorConfig config;
  config.ensemble.topic_counts = {8, 10};
  config.ensemble.iterations = 40;
  config.expert.target_clusters = 6;
  config.lm.hidden = 16;
  config.lm.learning_rate = 0.01f;
  config.lm.epochs = 10;
  config.lm.batching.batch_size = 8;
  return config;
}

struct TraceLine {
  std::string user_id;
  std::string session_id;
  std::string action;
  double timestamp = 0.0;
};

/// Interleaves normal sessions (held-out tail of the history) with two
/// injected attacks, round-robin with increasing timestamps — the shape
/// of live portal traffic in the paper's Fig. 2 deployment.
std::vector<TraceLine> build_trace(const synth::Portal& portal, const SessionStore& history,
                                   std::size_t session_count) {
  std::vector<std::vector<int>> sessions;
  std::vector<std::string> users;
  for (std::size_t i = history.size(); i-- > 0 && sessions.size() + 2 < session_count;) {
    if (history.at(i).length() >= 4 && history.at(i).length() <= 60) {
      sessions.emplace_back(history.at(i).actions);
      users.push_back("user" + std::to_string(history.at(i).user));
    }
  }
  Rng rng(3);
  sessions.push_back(portal.make_misuse(synth::MisuseKind::kMassProfileModification, rng).actions);
  users.push_back("attacker-mass");
  sessions.push_back(portal.make_misuse(synth::MisuseKind::kAreaHopping, rng).actions);
  users.push_back("attacker-hop");

  std::vector<TraceLine> trace;
  std::vector<std::size_t> cursor(sessions.size(), 0);
  double t = 0.0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      if (cursor[s] >= sessions[s].size()) continue;
      TraceLine line;
      line.user_id = users[s];
      line.session_id = "session" + std::to_string(s);
      line.action = history.vocab().name(sessions[s][cursor[s]]);
      line.timestamp = t;
      t += 0.25;  // four events per simulated second across the fleet
      ++cursor[s];
      trace.push_back(std::move(line));
      progressed = true;
    }
  }
  return trace;
}

std::string render_trace_line(const TraceLine& line) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object();
    json.member("user_id", line.user_id);
    json.member("session_id", line.session_id);
    json.member("action", line.action);
    json.member("timestamp", line.timestamp);
    json.end_object();
  }
  return out.str();
}

int train_and_save(const std::string& path) {
  const synth::Portal portal = make_portal();
  const SessionStore history = portal.generate();
  std::cout << "training detector on " << history.size() << " historical sessions...\n";
  const core::MisuseDetector detector =
      core::MisuseDetector::train(history, demo_detector_config());
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  BinaryWriter writer(out);
  detector.save(writer);
  std::cout << "saved " << detector.cluster_count() << "-cluster detector to " << path << "\n";
  return 0;
}

int emit_trace(std::size_t session_count) {
  const synth::Portal portal = make_portal();
  const SessionStore history = portal.generate();
  for (const auto& line : build_trace(portal, history, session_count)) {
    std::cout << render_trace_line(line) << "\n";
  }
  return 0;
}

int connect_and_replay(const std::string& target, std::size_t session_count) {
  const auto parts = split(target, ':');
  if (parts.size() != 2) {
    std::cerr << "--connect expects HOST:PORT\n";
    return 1;
  }
  const synth::Portal portal = make_portal();
  const SessionStore history = portal.generate();
  const auto trace = build_trace(portal, history, session_count);
  // Retry with exponential backoff + deterministic jitter: the client is
  // typically racing the server's startup (or its crash recovery), so a
  // refused first connect is expected, not fatal.
  RetryConfig retry;
  retry.attempts = 5;
  retry.seed = 11;
  TcpStream stream =
      tcp_connect_retry(parts[0], static_cast<std::uint16_t>(std::stoul(parts[1])), retry);
  std::cout << "streaming " << trace.size() << " events to " << target << "...\n";
  for (const auto& line : trace) {
    stream.io() << render_trace_line(line) << "\n";
  }
  stream.shutdown_write();
  LineReader reader(stream.io());
  std::string reply;
  std::size_t verdicts = 0;
  std::size_t alarms = 0;
  while (reader.next(reply)) {
    ++verdicts;
    if (reply.find("\"alarm\":true") != std::string::npos) {
      ++alarms;
      std::cout << reply << "\n";
    }
  }
  std::cout << "=> " << verdicts << " verdicts, " << alarms << " alarm steps\n";
  return 0;
}

int in_process_demo(std::size_t session_count) {
  const synth::Portal portal = make_portal();
  const SessionStore history = portal.generate();
  std::cout << "training detector on " << history.size() << " historical sessions...\n";
  const core::MisuseDetector trained =
      core::MisuseDetector::train(history, demo_detector_config());

  // Round-trip through the archive, exactly like misusedet_serve does.
  std::stringstream archive(std::ios::in | std::ios::out | std::ios::binary);
  BinaryWriter writer(archive);
  trained.save(writer);
  BinaryReader reader(archive);
  const core::MisuseDetector detector = core::MisuseDetector::load(reader);
  std::cout << "archive round-trip ok (" << detector.cluster_count() << " clusters)\n";

  serve::ServeConfig config;
  config.shards = 4;
  config.monitor.trend_window = 4;
  serve::ScoringServer server(detector, config);

  struct PerUser {
    std::size_t steps = 0;
    std::size_t alarms = 0;
  };
  std::map<std::string, PerUser> by_user;
  server.set_step_observer(
      [&](const serve::Event& event, const core::OnlineMonitor::StepResult& step) {
        PerUser& u = by_user[event.user_id];
        ++u.steps;
        if (step.alarm) ++u.alarms;
      });

  const auto trace = build_trace(portal, history, session_count);
  std::vector<serve::Event> events;
  std::string error;
  for (const auto& line : trace) {
    serve::Event event;
    if (serve::parse_event(render_trace_line(line), event, error)) events.push_back(event);
  }
  // Scored in batches of 256, as misusedet_serve's stdin mode does.
  std::vector<serve::OutputRecord> out;
  const std::span<const serve::Event> all(events);
  for (std::size_t begin = 0; begin < all.size(); begin += 256) {
    server.submit_batch(all.subspan(begin, std::min<std::size_t>(256, all.size() - begin)), out);
    out.clear();
  }
  server.shutdown(out);
  std::cout << "replayed " << trace.size() << " events across " << by_user.size() << " users\n";
  for (const auto& [user, stats] : by_user) {
    if (stats.alarms == 0) continue;
    std::cout << "  " << user << ": " << stats.alarms << "/" << stats.steps
              << " steps alarmed\n";
  }
  std::cout << "(attackers should dominate the alarm list; normal users mostly stay quiet)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto session_count = static_cast<std::size_t>(args.integer("sessions", 24));
  if (args.has("train-model")) return train_and_save(args.str("train-model"));
  if (args.flag("emit-trace")) return emit_trace(session_count);
  if (args.has("connect")) return connect_and_replay(args.str("connect"), session_count);
  return in_process_demo(session_count);
}
