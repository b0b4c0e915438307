// misusedet_serve: long-lived streaming session-scoring server — the
// deployment half of the paper's Fig. 2 pipeline. Loads a trained
// MisuseDetector archive and scores an interleaved NDJSON event stream
// (one {"user_id", "session_id", "action", "timestamp"} object per
// line) from many concurrent users, emitting per-step verdicts and
// end-of-session reports as NDJSON.
//
// Modes (both score through one LineScorer, i.e. one
// ScoringServer::submit_batch per batch of lines):
//   * default: events on stdin, verdicts on stdout (pipe-friendly),
//     scored --batch lines at a time;
//   * --listen=PORT: accept TCP connections, one NDJSON stream each,
//     all multiplexed onto one epoll event loop; verdicts return on the
//     originating connection, while eviction / shutdown session reports
//     go to stdout (sessions outlive connections).
//
// Graceful shutdown: EOF on stdin, or SIGINT/SIGTERM in either mode,
// scores what was read and emits a session_report for every open
// session before exiting. --metrics-out writes the observability
// snapshot (util/metrics + trace tree) on exit.
//
//   misusedet_serve --model=detector.bin [--listen=PORT]
//       [--shards=N] [--idle-ttl=SECONDS] [--max-sessions=N] [--batch=N]
//       [--alarm-likelihood=X] [--trend-window=N] [--trend-drop=X]
//       [--no-steps] [--metrics-out=PATH]
//       [--admin-port=PORT] [--trace-sample=N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/observability.hpp"
#include "registry/registry.hpp"
#include "serve/admin.hpp"
#include "serve/epoll_loop.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/trace_sampler.hpp"
#include "util/cli.hpp"
#include "util/fsio.hpp"
#include "util/line_io.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace misuse::serve {
namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_reload{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }
void handle_reload(int) { g_reload.store(true, std::memory_order_relaxed); }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // SIGHUP = "re-check the registry now" (hot-swap fast path). SA_RESTART
  // keeps the blocking stdin read alive: without it the signal fails
  // std::cin with EINTR and the server mistakes that for EOF.
  struct sigaction reload {};
  reload.sa_handler = handle_reload;
  reload.sa_flags = SA_RESTART;
  sigemptyset(&reload.sa_mask);
  ::sigaction(SIGHUP, &reload, nullptr);
  // Dying TCP peers must not kill the server mid-write.
  ::signal(SIGPIPE, SIG_IGN);
}

/// Hot-swap driver for --registry mode: watches the CURRENT pointer
/// (coarse poll, with SIGHUP as the skip-the-wait fast path) and swaps
/// the serving model when it moves; with --shadow it also keeps the
/// shadow plan pointed at the registry's canary version. A failed reload
/// never takes the server down — it logs and keeps serving the model it
/// has.
class ModelReloader {
 public:
  ModelReloader(ScoringServer& server, registry::ModelRegistry registry, double poll_seconds,
                bool shadow, double canary_fraction)
      : server_(server),
        registry_(std::move(registry)),
        poll_(poll_seconds),
        shadow_(shadow),
        canary_fraction_(canary_fraction) {
    active_.store(registry_.current().value_or(0), std::memory_order_relaxed);
    try {
      refresh_shadow(registry_.canary());
    } catch (const std::exception& e) {
      log_warn() << "shadow setup failed: " << e.what();
    }
  }

  /// Version names for /statusz; readable from the admin thread while
  /// the reloader runs on the event-loop/pipe thread.
  std::string active_version() const {
    const std::uint64_t v = active_.load(std::memory_order_relaxed);
    return v == 0 ? std::string{} : registry::version_name(v);
  }
  std::string canary_version() const {
    const std::uint64_t v = canary_.load(std::memory_order_relaxed);
    return v == 0 ? std::string{} : registry::version_name(v);
  }

  /// Called at batch boundaries (pipe mode) / event-loop ticks (TCP mode).
  void maybe_reload(std::vector<OutputRecord>& out) {
    const bool forced = g_reload.exchange(false, std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (!forced && std::chrono::duration<double>(now - last_check_).count() < poll_) return;
    last_check_ = now;
    try {
      // One directory scan answers both "did CURRENT move" and "did the
      // canary change" — the two can't interleave with a promote.
      const registry::ModelRegistry::Status status = registry_.status();
      if (status.current && *status.current != active_.load(std::memory_order_relaxed)) {
        ModelHandle next{registry_.load(*status.current), registry::version_name(*status.current)};
        server_.swap_model(std::move(next), out);
        active_.store(*status.current, std::memory_order_relaxed);
      }
      refresh_shadow(status.canary);
      if (failure_streak_ != 0) {
        failure_streak_ = 0;
        serve_metrics().reload_failure_streak.set(0);
      }
    } catch (const std::exception& e) {
      serve_metrics().reload_failures.inc();
      serve_metrics().reload_failure_streak.set(static_cast<std::int64_t>(++failure_streak_));
      log_warn() << "model reload failed (still serving "
                 << registry::version_name(active_.load(std::memory_order_relaxed))
                 << "): " << e.what();
    }
  }

 private:
  void refresh_shadow(std::optional<std::uint64_t> canary) {
    if (!shadow_) return;
    if (canary == shadow_version_) return;
    if (!canary) {
      server_.clear_shadow();
      shadow_version_.reset();
      canary_.store(0, std::memory_order_relaxed);
      log_info() << "shadow scoring off (no canary in the registry)";
      return;
    }
    ShadowPlan plan;
    plan.detector = registry_.load(*canary);
    plan.version = registry::version_name(*canary);
    plan.fraction = canary_fraction_;
    plan.monitor = server_.config().monitor;
    server_.set_shadow(plan);
    shadow_version_ = canary;
    canary_.store(*canary, std::memory_order_relaxed);
    log_info() << "shadow scoring " << plan.version << " on a " << plan.fraction
               << " fraction of sessions";
  }

  ScoringServer& server_;
  registry::ModelRegistry registry_;
  double poll_;  // seconds between CURRENT checks
  bool shadow_;
  double canary_fraction_;
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> canary_{0};
  std::optional<std::uint64_t> shadow_version_;
  std::uint64_t failure_streak_ = 0;
  std::chrono::steady_clock::time_point last_check_{};
};

constexpr const char* kUsage =
    "usage: misusedet_serve (--model=PATH | --registry=DIR) [options]\n"
    "  --model=PATH            trained detector archive\n"
    "  --registry=DIR          serve the registry's CURRENT version and hot-swap when\n"
    "                          it moves (SIGHUP forces an immediate re-check)\n"
    "  --registry-poll=SECONDS CURRENT pointer poll interval (default 0.5)\n"
    "  --shadow                mirror traffic onto the registry canary (metrics only)\n"
    "  --canary-fraction=X     fraction of sessions the shadow scores (default 1.0)\n"
    "  --drift                 track served-action drift against the training mix\n"
    "  --listen=PORT           serve NDJSON over TCP instead of stdin/stdout\n"
    "  --io=epoll              the TCP front end (epoll is the only one; accepted as is)\n"
    "  --shards=N              session-table shards (default 4)\n"
    "  --idle-ttl=SECONDS      evict sessions idle this long in event time (default 900)\n"
    "  --max-sessions=N        session-table capacity across shards (default 4096)\n"
    "  --batch=N               stdin mode: lines scored per batch; TTL sweeps, checkpoints,\n"
    "                          reloads and output flushes follow each full batch (default 256)\n"
    "  --alarm-likelihood=X    immediate alarm threshold (default 0.02)\n"
    "  --trend-window=N        trend detector window (default 8)\n"
    "  --trend-drop=X          trend alarm relative drop (default 0.5)\n"
    "  --no-steps              emit only session reports, not per-step verdicts\n"
    "  --metrics-out=PATH      write the metrics/trace snapshot on exit\n"
    "  --admin-port=PORT       operations plane: /metrics (Prometheus) /healthz /statusz\n"
    "                          /tracez on a dedicated listener (0 = ephemeral port)\n"
    "  --trace-sample=N        head-sample the first N sessions into the live trace ring\n"
    "                          (exported via /tracez; off by default)\n"
    "  --wal-dir=DIR           crash safety: per-shard write-ahead log + snapshots\n"
    "  --wal-sync=N            fsync each shard WAL every N appends (default 1024)\n"
    "  --snapshot-every=N      checkpoint every N applied events (default 4096)\n"
    "  --resume-replay         after recovery, dedup producers that resend from origin\n";

void flush_records(std::vector<OutputRecord>& records, std::ostream& out) {
  if (records.empty()) return;
  for (const auto& r : records) out << r.line << '\n';
  out.flush();
  records.clear();
}

/// The one scoring path of both front ends: parses a batch of lines,
/// scores the parsed events as one ScoringServer::submit_batch, and
/// appends every record to the reply slot of the line it answers. Parse
/// errors, rejected actions and verdicts therefore keep their lines'
/// order, whatever the batch size.
class LineScorer {
 public:
  explicit LineScorer(ScoringServer& server) : server_(server) {}

  /// replies[i] receives the '\n'-terminated records answering lines[i]
  /// (none for an empty line).
  void score(std::span<const EpollLine> lines, std::span<std::string> replies) {
    std::size_t n = 0;
    event_line_.clear();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].text.empty()) continue;
      if (events_.size() <= n) events_.resize(n + 1);
      if (!parse_event(lines[i].text, events_[n], error_)) {
        serve_metrics().parse_errors.inc();
        replies[i] += render_error_record(error_, lines[i].text);
        replies[i] += '\n';
        continue;
      }
      event_line_.push_back(i);
      ++n;
    }
    if (n == 0) return;
    const auto submitted = server_.submit_batch(std::span<const Event>(events_.data(), n), records_);
    for (const auto& r : records_) {
      std::string& reply = replies[event_line_[r.seq - submitted.first_seq]];
      reply += r.line;
      reply += '\n';
    }
    records_.clear();
  }

 private:
  ScoringServer& server_;
  // Reused across batches.
  std::vector<Event> events_;
  std::vector<std::size_t> event_line_;  // events_[k] came from lines[event_line_[k]]
  std::vector<OutputRecord> records_;
  std::string error_;
};

/// stdin/stdout pipe mode: read up to `batch_max` lines, score them,
/// then sweep, checkpoint and reload before flushing, repeat. Model swaps
/// land at batch boundaries (the stream is quiescent there).
int run_pipe(ScoringServer& server, std::size_t batch_max, ModelReloader* reloader) {
  LineReader reader(std::cin);
  LineScorer scorer(server);
  std::vector<std::string> texts;
  std::vector<EpollLine> lines;
  std::vector<std::string> replies;
  std::vector<OutputRecord> out;
  std::string line;
  bool more = true;
  while (more) {
    texts.clear();
    while (texts.size() < batch_max &&
           (more = !g_stop.load(std::memory_order_relaxed) && reader.next(line))) {
      if (!line.empty()) texts.push_back(line);
    }
    lines.clear();
    for (const std::string& text : texts) lines.push_back({0, text});
    replies.assign(lines.size(), std::string{});
    scorer.score(lines, replies);
    for (const std::string& reply : replies) std::cout << reply;
    // A batch cut short by EOF or a signal goes straight to shutdown.
    if (texts.size() == batch_max) {
      server.sweep(out);
      server.maybe_checkpoint();
      if (reloader != nullptr) reloader->maybe_reload(out);
    }
    flush_records(out, std::cout);
    std::cout.flush();
  }
  if (reader.truncated()) {
    log_warn() << "input line exceeded the size cap; draining and shutting down";
  }
  server.shutdown(out);
  flush_records(out, std::cout);
  return 0;
}

/// TCP mode: every connection multiplexed onto one nonblocking event
/// loop. All complete lines one wakeup delivers are scored as one batch
/// (one fused model step across the ready sessions); every connection
/// gets its replies in its own line order. TTL sweeps, checkpoints, and
/// registry reloads ride the loop's tick, with session reports on
/// stdout.
int run_epoll(ScoringServer& server, std::uint16_t port, ModelReloader* reloader) {
  EpollConfig config;
  config.port = port;
  EpollHandlers handlers;
  LineScorer scorer(server);  // loop thread only
  handlers.on_lines = [&scorer](std::span<const EpollLine> lines, std::span<std::string> replies) {
    scorer.score(lines, replies);
  };
  handlers.on_tick = [&server, reloader] {
    std::vector<OutputRecord> out;
    server.sweep(out);
    server.maybe_checkpoint();
    if (reloader != nullptr) reloader->maybe_reload(out);
    flush_records(out, std::cout);
  };
  EpollLoop loop(config, handlers);
  log_info() << "listening on port " << loop.port() << " (epoll)";

  // The loop wakes at least every tick, so a signal turns into
  // request_stop within one tick; the watcher thread just narrows that
  // window.
  std::thread stopper([&loop] {
    while (!g_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    loop.request_stop();
  });
  loop.run();
  g_stop.store(true, std::memory_order_relaxed);
  stopper.join();

  std::vector<OutputRecord> out;
  server.shutdown(out);
  flush_records(out, std::cout);
  return 0;
}

int serve_main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  // "steps" is --no-steps: CliArgs folds "--no-X" into key "X".
  if (const auto code = args.early_exit(
          {"model", "registry", "registry-poll", "shadow", "canary-fraction", "drift", "listen",
           "io", "shards", "idle-ttl", "max-sessions", "batch", "alarm-likelihood",
           "trend-window", "trend-drop", "steps", "metrics-out", "admin-port", "trace-sample",
           "wal-dir", "wal-sync", "snapshot-every", "resume-replay"},
          kUsage)) {
    return *code;
  }
  const std::string model_path = args.str("model");
  const std::string registry_root = args.str("registry");
  if (model_path.empty() == registry_root.empty()) {
    std::cerr << "exactly one of --model=PATH or --registry=DIR is required (train and save a "
                 "detector first; see README \"Serving\" and \"Model lifecycle\")\n"
              << kUsage;
    return 2;
  }
  if ((args.flag("shadow") || args.has("canary-fraction")) && registry_root.empty()) {
    std::cerr << "--shadow/--canary-fraction need --registry=DIR (the canary lives there)\n";
    return 2;
  }

  ServeConfig config;
  config.shards = static_cast<std::size_t>(args.integer("shards", 4));
  config.idle_ttl_seconds = args.real("idle-ttl", 900.0);
  config.max_sessions = static_cast<std::size_t>(args.integer("max-sessions", 4096));
  // CliArgs folds "--no-X" into key "X" with value "false", so negative
  // flags are read through their positive name with a true default.
  config.emit_steps = args.flag("steps", true);
  config.monitor.alarm_likelihood = args.real("alarm-likelihood", 0.02);
  config.monitor.trend_window = static_cast<std::size_t>(args.integer("trend-window", 8));
  config.monitor.trend_drop = args.real("trend-drop", 0.5);
  config.wal_dir = args.str("wal-dir");
  config.wal_sync_every = static_cast<std::size_t>(args.integer("wal-sync", 1024));
  config.snapshot_every = static_cast<std::size_t>(args.integer("snapshot-every", 4096));
  config.resume_replay = args.flag("resume-replay");
  config.drift = args.flag("drift");
  core::register_core_metrics();
  core::MetricsExport metrics_export(args.str("metrics-out"));

  ModelHandle model;
  std::optional<registry::ModelRegistry> registry;
  try {
    if (!registry_root.empty()) {
      registry.emplace(registry_root);
      const auto current = registry->current();
      if (!current) {
        std::cerr << "registry '" << registry_root
                  << "' has no active version (publish an archive, then promote it twice)\n";
        return 2;
      }
      model.detector = registry->load(*current);
      model.version = registry::version_name(*current);
    } else {
      // load_file carries the path and failing section in its message.
      model.detector =
          std::make_shared<const core::MisuseDetector>(core::MisuseDetector::load_file(model_path));
    }
  } catch (const std::exception& e) {
    std::cerr << "failed to load detector: " << e.what() << "\n";
    return 2;
  }
  log_info() << "loaded detector" << (model.version.empty() ? "" : " " + model.version) << ": "
             << model.detector->cluster_count() << " clusters, vocabulary of "
             << model.detector->vocab().size() << " actions";

  if (model.detector->degraded_cluster_count() > 0) {
    log_warn() << model.detector->degraded_cluster_count()
               << " cluster(s) degraded to the Markov baseline; verdicts from them carry "
                  "\"degraded\":true";
  }

  install_signal_handlers();
  ScoringServer server(model, config);
  if (server.wal_enabled()) {
    // Surface what a crashed predecessor left behind before serving new
    // traffic; replayed records carry their original sequence numbers.
    std::vector<OutputRecord> recovered;
    server.recover(recovered);
    flush_records(recovered, std::cout);
  }
  std::optional<ModelReloader> reloader;
  if (registry) {
    reloader.emplace(server, std::move(*registry), args.real("registry-poll", 0.5),
                     args.flag("shadow"), args.real("canary-fraction", 1.0));
  }
  ModelReloader* reloader_ptr = reloader ? &*reloader : nullptr;

  // Sampled tracing: the first N distinct sessions get their full span
  // tree (monitor step -> report) recorded into a bounded
  // in-memory ring, exported live via /tracez. Off by default: the data
  // path then pays one relaxed atomic load per event.
  const auto trace_sample = static_cast<std::size_t>(args.integer("trace-sample", 0));
  if (trace_sample > 0) {
    trace_events().enable(65536);
    server.set_trace_sampler(std::make_shared<SessionTraceSampler>(trace_sample));
  }

  std::optional<AdminServer> admin;
  if (args.has("admin-port")) {
    AdminConfig admin_config;
    admin_config.port = static_cast<std::uint16_t>(args.integer("admin-port", 0));
    AdminHooks hooks;
    if (reloader_ptr != nullptr) {
      hooks.model_version = [reloader_ptr] { return reloader_ptr->active_version(); };
      hooks.canary_version = [reloader_ptr] { return reloader_ptr->canary_version(); };
    }
    if (!registry_root.empty()) {
      // Surface the learn loop's LEARN_STATUS (written atomically by
      // misusedet_learnd next to the registry) without coupling the two
      // processes: a missing file just reads as "no learn loop".
      const std::string learn_status_path = registry_root + "/LEARN_STATUS";
      hooks.learn_status = [learn_status_path]() -> std::string {
        return read_file(learn_status_path).value_or(std::string{});
      };
    }
    try {
      admin.emplace(server, admin_config, hooks);
    } catch (const std::exception& e) {
      std::cerr << "failed to start the admin endpoint: " << e.what() << "\n";
      return 2;
    }
  }

  if (args.has("listen")) {
    const std::uint16_t listen_port = static_cast<std::uint16_t>(args.integer("listen", 0));
    return run_epoll(server, listen_port, reloader_ptr);
  }
  const auto batch = static_cast<std::size_t>(std::max<std::int64_t>(1, args.integer("batch", 256)));
  return run_pipe(server, batch, reloader_ptr);
}

}  // namespace
}  // namespace misuse::serve

int main(int argc, char** argv) { return misuse::serve::serve_main(argc, argv); }
