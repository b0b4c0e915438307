// One shard of the streaming server's session table. A shard owns the
// OnlineMonitor state of every session hashed to it and is only ever
// driven by one thread at a time (the server wraps each shard in a
// mutex), so the shard itself is single-threaded and deterministic:
// events are applied in arrival order, and the per-session score stream
// is bit-identical to replaying the same actions through a standalone
// OnlineMonitor (the offline path in core/monitor.hpp).
//
// Bounds: `max_sessions` caps the map — opening a session beyond the cap
// evicts the least-recently-seen entry first (emitting its report), and
// the TTL sweep retires sessions idle longer than `idle_ttl_seconds` of
// *event time* (the timestamps in the stream), so replays evict exactly
// like live traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/monitor.hpp"
#include "serve/event.hpp"
#include "serve/trace_sampler.hpp"
#include "serve/wal.hpp"

namespace misuse::serve {

/// One rendered NDJSON output line tagged with the global input sequence
/// number of the event that produced it; the server merges shard outputs
/// by `seq`, which restores the input order deterministically.
struct OutputRecord {
  std::uint64_t seq = 0;
  std::string line;
};

/// A versioned, shared reference to a loaded detector. Every session
/// opened under a handle pins it, so a hot-swap never frees a model that
/// live sessions still score with — the old model is released when its
/// last session finishes.
struct ModelHandle {
  std::shared_ptr<const core::MisuseDetector> detector;
  std::string version;  // registry version ("v3"); empty = unversioned

  /// Wraps a caller-owned detector without taking ownership — the
  /// embedding/test path where no registry is involved. The detector
  /// must outlive every session opened under the handle.
  static ModelHandle borrowed(const core::MisuseDetector& detector) {
    return {std::shared_ptr<const core::MisuseDetector>(std::shared_ptr<void>(), &detector), {}};
  }
};

struct ShardConfig {
  core::MonitorConfig monitor;
  double idle_ttl_seconds = 900.0;
  std::size_t max_sessions = 4096;  // per shard
  bool emit_steps = true;           // emit "step" records (reports always emit)
  /// Record each session's raw applied action history (needed by WAL
  /// snapshots, resume-replay dedup, and the drift monitor).
  bool track_history = false;
};

/// Structured observation hooks, for tests and in-process embedders that
/// want StepResults without reparsing JSON. Called while the owning
/// shard is being driven, on the thread that scores the event; callers
/// that submit from several threads need a thread-safe callback.
using StepObserver =
    std::function<void(const Event&, const core::OnlineMonitor::StepResult&)>;
using ReportObserver = std::function<void(std::string_view user_id, std::string_view session_id,
                                          ReportReason, const core::SessionMonitorReport&)>;
/// Fed every finished session's applied action history (requires
/// track_history); the server's drift monitor hangs off this.
using HistoryObserver = std::function<void(const std::vector<int>& actions)>;

class ShadowScorer;

class SessionShard {
 public:
  SessionShard(ModelHandle model, const ShardConfig& config)
      : model_(std::move(model)), config_(config) {}

  /// Scores one event and appends the step record (crash recovery's
  /// replay path). Opens the session on first sight (pinning the shard's
  /// current model into it), evicting the least-recently-seen session
  /// first when the shard is full. `action` was resolved under
  /// `resolved_under`'s vocabulary; when the session is pinned to a
  /// *different* model (an event raced a hot-swap), the raw action
  /// string is re-resolved under the session's own vocabulary, so a
  /// stale id is never fed to the wrong model. Exactly stage() of the
  /// one event, then settle().
  void process(const Event& event, int action, const core::MisuseDetector* resolved_under,
               std::uint64_t seq, std::vector<OutputRecord>& out);

  /// One event, pre-resolved by the server's parse stage. The pointed-to
  /// Event must stay alive until commit().
  struct PendingEvent {
    const Event* event = nullptr;
    int action = -1;
    const core::MisuseDetector* resolved_under = nullptr;
    std::uint64_t seq = 0;
  };

  // -- Split batch (ScoringServer::submit_batch fuses across shards) -------
  // Applying a batch is bit-identical to process() per event, but the
  // model forwards of distinct sessions are fused into per-detector
  // batched steps (the inference engine's hot path). Repeated events of
  // the *same* session still advance strictly in sequence: the k-th
  // event of a session in the batch runs in wave k, after the session's
  // earlier waves.

  /// Stage half: session lookup/open, clock, WAL append and watermark in
  /// arrival order, leaving each event's monitor step pending. Each
  /// staged step is tagged with its wave: how many steps of the same
  /// session are already staged. Only a capacity eviction settles
  /// (observes + commits) the pending steps first, since the victim may
  /// have some, appending their records to `out`. Returns the number of
  /// steps those settles committed. The events must stay alive until
  /// commit().
  std::size_t stage(std::span<const PendingEvent> events, std::vector<OutputRecord>& out);

  /// Runs the staged steps of every shard in `shards` wave by wave: each
  /// wave is one OnlineMonitor::observe_batch per pinned detector across
  /// all the shards (they share the detector's weights), and holds at
  /// most one step per session, so a session's steps advance in arrival
  /// order. Callers hold every listed shard's lock.
  static void observe_staged(std::span<SessionShard* const> shards);

  /// Commit half: records, accumulators, observers and the shadow scorer
  /// for the observed steps, in arrival order; empties the stage.
  /// Returns the number of steps committed.
  std::size_t commit(std::vector<OutputRecord>& out);

  /// Records `scored` equal shares of `seconds` into serve.step_seconds.
  static void record_step_share(double seconds, std::size_t scored);

  /// Retires sessions idle past the TTL at event time `now`; reports are
  /// emitted in key order (deterministic across runs and platforms).
  void sweep(double now, std::uint64_t seq, std::vector<OutputRecord>& out);

  /// Drain: emits a report for every open session (in key order) and
  /// empties the shard. Graceful shutdown by default; a vocab-changing
  /// hot-swap drains with ReportReason::kModelSwap.
  void finish_all(std::uint64_t seq, std::vector<OutputRecord>& out,
                  ReportReason reason = ReportReason::kShutdown);

  std::size_t active_sessions() const { return sessions_.size(); }

  // -- Model lifecycle (DESIGN.md "Model lifecycle") -----------------------

  /// Points *new* sessions at `model`. Open sessions keep the model they
  /// pinned at open — a session's whole score stream comes from exactly
  /// one model version (the stamping invariant).
  void set_model(ModelHandle model) { model_ = std::move(model); }
  const ModelHandle& model() const { return model_; }

  /// Attaches (or detaches, with nullptr) the shard's shadow scorer; it
  /// is driven after each active-model step and on session finish, and
  /// only ever writes metrics — never output records.
  void set_shadow(std::shared_ptr<ShadowScorer> shadow) { shadow_ = std::move(shadow); }

  void set_step_observer(StepObserver observer) { step_observer_ = std::move(observer); }
  void set_report_observer(ReportObserver observer) { report_observer_ = std::move(observer); }
  void set_history_observer(HistoryObserver observer) {
    history_observer_ = std::move(observer);
  }

  /// Attaches (or detaches, with nullptr) the head sampler for live
  /// trace export: steps and reports of sampled sessions are recorded
  /// into the global trace-event ring (util/trace.hpp). Tracing never
  /// touches output records, so scored output stays byte-identical.
  void set_trace_sampler(std::shared_ptr<SessionTraceSampler> sampler) {
    tracer_ = std::move(sampler);
  }

  // -- Crash safety (serve/wal.hpp) ----------------------------------------

  /// Attaches (or detaches, with nullptr) the shard's write-ahead log;
  /// stage() then logs every event before applying it (buffered — the
  /// owning server flushes the log before emitting the batch's verdicts).
  void set_wal(WalWriter* wal) { wal_ = wal; }

  /// Largest input sequence number applied to this shard so far — the
  /// watermark a snapshot taken now covers.
  std::uint64_t last_applied_seq() const { return last_applied_seq_; }

  double clock() const { return clock_; }
  void advance_clock_to(double t) { clock_ = std::max(clock_, t); }

  /// Key-ordered snapshot of every open session (requires track_history).
  std::vector<SessionSnapshot> snapshot_sessions() const;

  /// Reinstates a snapshotted session by silently re-feeding its action
  /// history through a fresh monitor — no output records, no observers,
  /// no WAL appends; OnlineMonitor determinism makes the rebuilt state
  /// identical to the pre-crash one.
  void restore_session(const SessionSnapshot& snapshot);

  /// Arms resume-replay dedup: each open session will silently consume
  /// incoming events that match its already-applied action prefix (for
  /// producers that resend the stream from origin after a crash). A
  /// mismatching action disarms the session and scoring resumes normally.
  void arm_replay_skip();

 private:
  struct Entry {
    std::string user_id;
    std::string session_id;
    /// The model this session opened under; pinned for its whole life so
    /// every step (and the report stamp) comes from one version.
    ModelHandle model;
    std::unique_ptr<core::OnlineMonitor> monitor;
    core::SessionAccumulator acc;
    double last_seen = 0.0;
    /// Applied actions, in order (only when config_.track_history).
    std::vector<int> actions;
    /// Resume-replay dedup: actions[0..replay_pos) already consumed.
    std::vector<int> replay_skip;
    std::size_t replay_pos = 0;
    /// Steps of this session sitting in the shard's stage (its monitor
    /// state is about to advance that many times).
    std::uint32_t staged = 0;
  };

  /// One staged step: bookkeeping applied, monitor advance pending.
  struct Staged {
    const Event* event;
    Entry* entry;
    int action;
    std::uint64_t seq;
    std::uint32_t wave;  // the session's earlier steps in the stage
  };

  /// observe_staged({this}) + commit(out): settles the pending steps.
  std::size_t settle(std::vector<OutputRecord>& out);
  void finish_entry(const Entry& entry, ReportReason reason, std::uint64_t seq,
                    std::vector<OutputRecord>& out);
  void evict_lru(std::uint64_t seq, std::vector<OutputRecord>& out);

  /// Current model for *new* sessions (open ones keep their pin).
  ModelHandle model_;
  ShardConfig config_;
  std::unordered_map<std::string, Entry> sessions_;
  /// Largest event timestamp seen; stamps events that carry none, so TTL
  /// still advances on timestamp-less streams once any event has one.
  double clock_ = 0.0;
  StepObserver step_observer_;
  ReportObserver report_observer_;
  HistoryObserver history_observer_;
  std::shared_ptr<ShadowScorer> shadow_;
  std::shared_ptr<SessionTraceSampler> tracer_;
  WalWriter* wal_ = nullptr;
  std::uint64_t last_applied_seq_ = 0;

  // Split-batch state, reused across batches (no per-call allocation).
  std::vector<Staged> staged_;
  std::vector<core::OnlineMonitor::StepResult> results_;  // results_[i] for staged_[i]
  std::string key_;  // session-key scratch
  /// Trace window observe_staged assigned to this shard's steps.
  std::uint64_t trace_start_ = 0;
  std::uint64_t trace_share_ = 0;
};

}  // namespace misuse::serve
