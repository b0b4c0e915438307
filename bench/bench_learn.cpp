// Continuous-learning cost record, written to BENCH_learn.json. Not a
// paper figure: this measures the src/learn subsystem that wraps the
// paper's periodic-retraining recommendation (§V) as a live loop.
//
// Two questions, two legs:
//
//   * retrain leg — what does one learn cycle cost? The interleaved
//     replay is collected into labeled windows, then the stages are timed
//     separately (collect / fine-tune / shadow-evaluate) plus one full
//     LearnLoop cycle against a real registry (publish + canary + decide
//     + promote), best-of wall clock.
//
//   * tailing leg — what does live collection cost the serving node? The
//     same WAL-enabled batch replay is timed bare, then with a concurrent
//     thread running serve::WalTailer + the session-window collector the
//     way misusedet_learnd does against a live node. Acceptance: the
//     tailing thread costs the serving path < 5% events/sec (it shares
//     the host, not the shard locks, so the tax is cache/memory-bus
//     pressure only).
//
//   ./bench/bench_learn [--reduced] [--out=BENCH_learn.json]
//       [--sessions=N] [--metrics-out=PATH]
//
// --help prints the usage; any other flag exits 2.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/observability.hpp"
#include "learn/collector.hpp"
#include "learn/loop.hpp"
#include "registry/registry.hpp"
#include "serve/server.hpp"
#include "serve/wal.hpp"
#include "synth/portal.hpp"
#include "util/cli.hpp"
#include "util/hostinfo.hpp"
#include "util/json.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace misuse {
namespace {

namespace fs = std::filesystem;

constexpr int kRepetitions = 3;  // best-of to suppress scheduler noise

struct Workload {
  std::vector<serve::Event> events;
  std::size_t sessions = 0;
};

/// Round-robin interleaving of portal sessions (same arrival pattern as
/// bench_serve): what a fleet of concurrent users produces.
Workload make_workload(const synth::Portal& portal, const SessionStore& store,
                       std::size_t session_count) {
  std::vector<std::span<const int>> sessions;
  std::vector<std::uint32_t> users;
  for (std::size_t i = store.size(); i-- > 0 && sessions.size() < session_count;) {
    if (store.at(i).length() < 2) continue;
    sessions.push_back(store.at(i).view());
    users.push_back(store.at(i).user);
  }
  Workload w;
  w.sessions = sessions.size();
  std::vector<std::size_t> cursor(sessions.size(), 0);
  double t = 0.0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      if (cursor[s] >= sessions[s].size()) continue;
      serve::Event event;
      event.user_id = "user" + std::to_string(users[s]);
      event.session_id = "session" + std::to_string(s);
      event.action = portal.vocab().name(sessions[s][cursor[s]]);
      event.timestamp = t;
      event.has_timestamp = true;
      t += 0.5;
      ++cursor[s];
      w.events.push_back(std::move(event));
      progressed = true;
    }
  }
  return w;
}

double best_of(int reps, const std::function<double()>& run) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double seconds = run();
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

learn::LearnLoopConfig loop_config() {
  learn::LearnLoopConfig config;
  config.collector.max_alarm_steps = 1000;  // benchmark, not a gate
  config.collector.eval_every = 5;
  config.trainer.epochs = 1;
  config.trainer.lda_iterations = 8;
  config.min_train_windows = 8;
  config.policy.eval_budget_steps = 10;
  config.policy.max_flip_rate = 1.0;
  config.policy.max_loss_delta = 1e9;
  config.policy.drift_margin = 1e9;
  return config;
}

/// The WAL-enabled serve replay, optionally with the learnd-style tailing
/// thread (WalTailer poll -> collector observe) running beside it. The
/// returned time covers the serving feed only; the tailer is signalled to
/// stop after the feed completes.
double run_serve_replay(const core::MisuseDetector& detector, const Workload& workload,
                        const std::string& wal_dir, bool tail,
                        std::size_t* tailed_records = nullptr) {
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);
  serve::ServeConfig config;
  config.shards = 4;
  config.emit_steps = true;
  config.wal_dir = wal_dir;
  serve::ScoringServer server(detector, config);

  std::atomic<bool> stop{false};
  std::size_t tailed = 0;
  std::thread tailer_thread;
  if (tail) {
    tailer_thread = std::thread([&] {
      learn::CollectorConfig cc;
      cc.max_alarm_steps = 1000;
      learn::SessionWindowCollector collector(
          std::shared_ptr<const core::MisuseDetector>(
              std::shared_ptr<const core::MisuseDetector>{}, &detector),
          core::MonitorConfig{}, cc);
      serve::WalTailer tailer(wal_dir);
      std::vector<serve::WalRecord> records;
      while (!stop.load(std::memory_order_relaxed)) {
        records.clear();
        if (tailer.poll(records) > 0) {
          for (const auto& record : records) collector.observe(record);
          tailed += records.size();
        }
        // misusedet_learnd's default poll cadence is 200ms; 20ms here
        // keeps the thread hot enough to matter without modeling a
        // busy-loop no deployment runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      records.clear();
      tailer.poll(records);  // drain what the shutdown flushed
      for (const auto& record : records) collector.observe(record);
      tailed += records.size();
    });
  }

  std::vector<serve::OutputRecord> out;
  out.reserve(4096);
  const auto start = std::chrono::steady_clock::now();
  const std::span<const serve::Event> events(workload.events);
  for (std::size_t begin = 0; begin < events.size(); begin += 256) {
    server.submit_batch(events.subspan(begin, std::min<std::size_t>(256, events.size() - begin)),
                        out);
    out.clear();
  }
  const double seconds = seconds_since(start);
  std::vector<serve::OutputRecord> drain;
  server.shutdown(drain);
  if (tail) {
    stop.store(true, std::memory_order_relaxed);
    tailer_thread.join();
    if (tailed_records) *tailed_records = tailed;
  }
  return seconds;
}

}  // namespace
}  // namespace misuse

int main(int argc, char** argv) {
  using namespace misuse;
  const CliArgs args(argc, argv);
  const std::string usage =
      "usage: " + args.program() +
      " [--reduced] [--out=BENCH_learn.json] [--sessions=N] [--metrics-out=PATH]\n" +
      "  --reduced           small workloads: the CI smoke configuration\n"
      "  --out=PATH          where to write the JSON record (default BENCH_learn.json)\n"
      "  --sessions=N        sessions in the replayed trace (default 400; 48 with --reduced)\n"
      "  --metrics-out=PATH  write the metrics/trace snapshot on exit\n";
  if (const auto code = args.early_exit({"reduced", "out", "sessions", "metrics-out"}, usage)) {
    return *code;
  }
  const bool reduced = args.flag("reduced");
  const std::string out_path = args.str("out", "BENCH_learn.json");
  const auto session_count =
      static_cast<std::size_t>(args.integer("sessions", reduced ? 48 : 400));
  core::register_core_metrics();
  core::MetricsExport metrics_export(args.str("metrics-out"));

  synth::PortalConfig portal_config;
  portal_config.sessions = reduced ? 280 : 1200;
  portal_config.users = reduced ? 40 : 160;
  portal_config.action_count = 60;
  portal_config.seed = 42;
  const synth::Portal portal(portal_config);
  const SessionStore store = portal.generate();

  core::DetectorConfig detector_config;
  detector_config.ensemble.topic_counts = {10, 13};
  detector_config.ensemble.iterations = 8;
  detector_config.expert.target_clusters = 4;
  detector_config.expert.min_cluster_sessions = 5;
  detector_config.lm.hidden = 8;
  detector_config.lm.epochs = 2;
  detector_config.lm.patience = 0;
  set_global_threads(1);
  std::cout << "training detector on " << store.size() << " sessions...\n";
  const core::MisuseDetector detector = core::MisuseDetector::train(store, detector_config);

  const Workload workload = make_workload(portal, store, session_count);
  std::cout << "replaying " << workload.events.size() << " events from " << workload.sessions
            << " interleaved sessions\n";
  const std::string scratch = fs::temp_directory_path().string() + "/bench_learn";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const int reps = reduced ? 2 : kRepetitions;

  // -- Retrain leg: the cycle, split by stage -----------------------------
  const auto alias = std::shared_ptr<const core::MisuseDetector>(
      std::shared_ptr<const core::MisuseDetector>{}, &detector);

  const double collect_seconds = best_of(reps, [&] {
    learn::LearnLoopConfig config = loop_config();
    learn::SessionWindowCollector collector(alias, config.monitor, config.collector);
    const auto start = std::chrono::steady_clock::now();
    for (const auto& event : workload.events) collector.observe(event);
    collector.flush();
    return seconds_since(start);
  });

  // One collected corpus for the stage splits.
  learn::LearnLoopConfig config = loop_config();
  learn::SessionWindowCollector collector(alias, config.monitor, config.collector);
  for (const auto& event : workload.events) collector.observe(event);
  collector.flush();
  const auto windows = collector.training_windows();
  const auto eval_windows = collector.eval_windows();
  std::size_t train_windows = 0;
  for (const auto& buffer : windows) train_windows += buffer.size();

  core::MisuseDetector candidate = core::MisuseDetector::fine_tune(detector, windows,
                                                                   config.trainer);
  const double fine_tune_seconds = best_of(reps, [&] {
    const auto start = std::chrono::steady_clock::now();
    candidate = core::MisuseDetector::fine_tune(detector, windows, config.trainer);
    return seconds_since(start);
  });
  const double shadow_seconds = best_of(reps, [&] {
    const auto start = std::chrono::steady_clock::now();
    const auto eval = learn::shadow_evaluate(detector, candidate, config.monitor, config.drift,
                                             eval_windows);
    (void)eval;
    return seconds_since(start);
  });

  // The full cycle against a real registry: publish + canary + shadow +
  // decision + promote, end to end (fresh registry per repetition).
  int cycle_rep = 0;
  const double cycle_seconds = best_of(reps, [&] {
    const std::string root = scratch + "/registry" + std::to_string(cycle_rep++);
    {
      const std::string seed_path = scratch + "/seed.bin";
      std::ofstream seed(seed_path, std::ios::binary | std::ios::trunc);
      BinaryWriter writer(seed);
      detector.save(writer);
      seed.close();
      registry::ModelRegistry registry(root);
      const std::uint64_t v1 = registry.publish(seed_path, "bench seed");
      registry.promote(v1);
      registry.promote(v1);
    }
    learn::LearnLoop loop(root, loop_config());
    for (const auto& event : workload.events) loop.observe(event);
    loop.flush();
    const auto start = std::chrono::steady_clock::now();
    const learn::AuditRecord record = loop.run_cycle();
    const double seconds = seconds_since(start);
    if (record.decision != learn::Decision::kPromote) {
      std::cerr << "warning: bench cycle did not promote (" << record.reason << ")\n";
    }
    return seconds;
  });

  std::cout << "collect: " << collect_seconds << "s  fine-tune: " << fine_tune_seconds
            << "s  shadow: " << shadow_seconds << "s  full cycle: " << cycle_seconds << "s\n";

  // -- Tailing leg: serving throughput with and without the collector -----
  std::size_t tailed_records = 0;
  const double bare_seconds = best_of(reps, [&] {
    return run_serve_replay(detector, workload, scratch + "/wal", false);
  });
  const double tailed_seconds = best_of(reps, [&] {
    return run_serve_replay(detector, workload, scratch + "/wal", true, &tailed_records);
  });
  const double overhead_pct =
      bare_seconds > 0.0 ? (tailed_seconds - bare_seconds) / bare_seconds * 100.0 : 0.0;
  std::cout << "serve replay bare: " << bare_seconds << "s  with tailer: " << tailed_seconds
            << "s  overhead: " << overhead_pct << "%  (tailed " << tailed_records
            << " records)\n";

  std::ofstream out(out_path);
  JsonWriter json(out);
  json.begin_object();
  write_host_info(json);
  json.member("events", workload.events.size());
  json.member("sessions", workload.sessions);
  json.member("reduced", reduced);
  json.member("repetitions_best_of", static_cast<std::size_t>(reps));
  json.member("note",
              "Continuous-learning cost record (best-of wall clock). The retrain rows split one "
              "learn cycle by stage over the same interleaved replay; 'cycle' is a full "
              "LearnLoop pass against a real registry (publish + canary + shadow + decision + "
              "promote). The tailing rows time the WAL-enabled serving replay bare vs with a "
              "concurrent WalTailer+collector thread (how misusedet_learnd rides a live node); "
              "acceptance: overhead_pct < 5.");
  json.key("retrain");
  json.begin_object();
  json.member("train_windows", train_windows);
  json.member("eval_windows", eval_windows.size());
  json.member("collect_seconds", collect_seconds);
  json.member("fine_tune_seconds", fine_tune_seconds);
  json.member("shadow_eval_seconds", shadow_seconds);
  json.member("cycle_seconds", cycle_seconds);
  json.member("windows_per_second",
              fine_tune_seconds > 0.0 ? train_windows / fine_tune_seconds : 0.0);
  json.end_object();
  json.key("tailing");
  json.begin_object();
  json.member("bare_seconds", bare_seconds);
  json.member("tailed_seconds", tailed_seconds);
  json.member("bare_events_per_second",
              bare_seconds > 0.0 ? workload.events.size() / bare_seconds : 0.0);
  json.member("tailed_events_per_second",
              tailed_seconds > 0.0 ? workload.events.size() / tailed_seconds : 0.0);
  json.member("tailed_records", tailed_records);
  json.member("overhead_pct", overhead_pct);
  json.member("acceptance_max_pct", 5.0);
  // The serving feed and the tailer only run concurrently when the host
  // has a core for each; on one core every tailer wakeup is stolen
  // serving time, so the tax reads as scheduler interleaving, not cost.
  const bool acceptance_applies = host_info().cores >= 2;
  json.member("acceptance_applies", acceptance_applies);
  json.member("within_acceptance", !acceptance_applies || overhead_pct < 5.0);
  json.end_object();
  json.end_object();
  out << "\n";
  std::cout << "wrote " << out_path << "\n";
  fs::remove_all(scratch);
  return 0;
}
