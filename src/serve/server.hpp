// ScoringServer: the streaming core of misusedet_serve. Consumes an
// interleaved event stream from many users and shards sessions over a
// set of SessionShards (stable FNV-1a of user_id+session_id).
//
// Architecture (see DESIGN.md "Serving"):
//   * submit_batch(): the one scoring entry, shared by the TCP front end
//     (everything one epoll wakeup delivered) and stdin pipe mode (up to
//     --batch lines). It locks the touched shards in index order, stages
//     each one, runs one fused OnlineMonitor::observe_batch per pinned
//     detector across all of them (the shards share the weights, so one
//     weight pass serves every ready session), commits in arrival order,
//     and group-commits each WAL once. Shards never share sessions and
//     OnlineMonitor is deterministic, so every per-session score stream
//     is bit-identical to the offline monitor at any shard count and any
//     batch split. Records come back sorted by input sequence number, so
//     the emitted NDJSON order equals arrival order.
//   * submit_sync(): submit_batch of one event.
//   * sweep(): retires idle sessions by *event time* TTL.
//   * shutdown(): emits an end-of-session report for every open session.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/detector.hpp"
#include "core/drift.hpp"
#include "serve/session_table.hpp"
#include "serve/shadow.hpp"

namespace misuse::serve {

struct ServeConfig {
  std::size_t shards = 4;
  double idle_ttl_seconds = 900.0;
  std::size_t max_sessions = 4096;  // across all shards
  bool emit_steps = true;
  core::MonitorConfig monitor;

  // -- Crash safety (serve/wal.hpp) ----------------------------------------
  /// Directory for per-shard WALs + snapshots; empty disables durability.
  std::string wal_dir;
  /// fsync each shard WAL every N appends (1 = every append). Records
  /// are handed to the OS per batch regardless (group commit), so a
  /// process crash loses nothing; fsync only narrows the *machine*-crash
  /// window, and is priced accordingly.
  std::size_t wal_sync_every = 1024;
  /// Checkpoint (snapshot + WAL truncate) every N applied events;
  /// 0 = only at shutdown.
  std::size_t snapshot_every = 4096;
  /// Arm resume-replay dedup after recovery: producers that resend the
  /// stream from origin have already-applied events silently skipped.
  bool resume_replay = false;

  // -- Drift monitoring (core/drift.hpp) -----------------------------------
  /// Watch live behavior drift against the training distribution (the
  /// reference is recovered from the model archive's Markov fallbacks).
  /// Finished sessions feed a DriftMonitor and the current JS divergence
  /// lands in the serve.drift_micronats gauge. Implies track_history.
  bool drift = false;
  core::DriftConfig drift_config;
};

class ScoringServer {
 public:
  /// Serves a caller-owned detector (no registry, no version stamps) —
  /// the embedding/test path. The detector must outlive the server.
  ScoringServer(const core::MisuseDetector& detector, const ServeConfig& config);

  /// Serves a registry-managed model: reports are stamped with
  /// `model.version` and the model can be hot-swapped.
  ScoringServer(ModelHandle model, const ServeConfig& config);

  /// TTL sweep at the stream's current event time (or an explicit time).
  void sweep(std::vector<OutputRecord>& out) { sweep_at(event_clock(), out); }
  void sweep_at(double now, std::vector<OutputRecord>& out);

  /// Graceful shutdown: emits a report for every open session. The
  /// server stays usable afterwards (tables empty). With a WAL dir, ends
  /// with an empty checkpoint so a later restart recovers nothing.
  void shutdown(std::vector<OutputRecord>& out);

  // -- Crash recovery (serve/wal.hpp; DESIGN.md "Fault tolerance") ---------

  /// Rebuilds state left by a crashed predecessor: loads every shard
  /// snapshot the old layout wrote, replays WAL records past each
  /// snapshot's watermark globally by sequence number (re-emitting their
  /// records with the *original* seqs, so downstream consumers dedup by
  /// seq), and checkpoints the recovered state under the current layout.
  /// Works across different --shards values. Returns the number of WAL
  /// events replayed. No-op without a WAL dir.
  std::size_t recover(std::vector<OutputRecord>& out);

  /// Snapshots every shard and truncates the WALs the snapshots now
  /// cover; no-op without a WAL dir. A crash at any point is safe:
  /// snapshots replace atomically, and the WAL is only truncated after
  /// its snapshot landed.
  void checkpoint();

  /// checkpoint() once at least `snapshot_every` events were applied
  /// since the last one. Returns true when a checkpoint ran.
  bool maybe_checkpoint();

  bool wal_enabled() const { return !config_.wal_dir.empty(); }

  struct Submitted {
    /// events[i] was tagged seq first_seq + i; every record appended for
    /// it (error, capacity-eviction report, step) carries that seq.
    std::uint64_t first_seq = 0;
    std::size_t rejected = 0;  // events answered with an error record
  };
  /// The server's one scoring entry: scores `events` now, in order, as
  /// one cross-shard fused step, logging every event to its shard's WAL
  /// before its verdict. Appends their records to `out` sorted by seq, so
  /// a caller maps each record back to its event through first_seq.
  /// Events whose action is invalid get an error record.
  Submitted submit_batch(std::span<const Event> events, std::vector<OutputRecord>& out);

  /// submit_batch of one event; false (with an error record) when the
  /// action is invalid.
  bool submit_sync(const Event& event, std::vector<OutputRecord>& out);

  std::size_t shard_of(const Event& event) const {
    return session_shard_hash(session_key(event)) % shards_.size();
  }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t active_sessions() const;
  /// Largest event timestamp admitted so far.
  double event_clock() const;

  // -- Runtime introspection (serve/admin.hpp; DESIGN.md "Operations plane")

  /// Point-in-time view of one shard, taken under its lock.
  struct ShardStatus {
    std::size_t sessions = 0;
    std::size_t max_sessions = 0;  // per-shard share of the global cap
    std::uint64_t last_applied_seq = 0;
  };
  std::vector<ShardStatus> shard_status() const;

  /// Next sequence number to be assigned (1 when nothing was admitted).
  std::uint64_t next_seq() const { return seq_.load(std::memory_order_relaxed); }
  /// Events applied since the last checkpoint (WAL replay lag bound).
  std::uint64_t events_since_checkpoint() const {
    return events_since_checkpoint_.load(std::memory_order_relaxed);
  }
  /// False when any shard WAL writer has failed (durability is degraded);
  /// true when the WAL is disabled or healthy.
  bool wal_ok() const;

  /// Attaches the head sampler for live trace export (--trace-sample):
  /// step/report events of sampled sessions land in the global
  /// trace-event ring. nullptr detaches. Set before serving.
  void set_trace_sampler(std::shared_ptr<SessionTraceSampler> sampler);

  /// Observation hooks, forwarded to every shard. Set before serving;
  /// callbacks fire on the thread that scores the event.
  void set_step_observer(const StepObserver& observer);
  void set_report_observer(const ReportObserver& observer);

  const ServeConfig& config() const { return config_; }

  // -- Model lifecycle (DESIGN.md "Model lifecycle") -----------------------

  /// Zero-downtime hot-swap: at a barrier (every shard locked, so no
  /// event is mid-score) atomically repoints every shard (and
  /// submit_batch's action resolution) at `next`. Open sessions pin the model they started
  /// under, so when the vocabularies are compatible (equal fingerprints)
  /// they simply continue — each session's whole score stream still
  /// comes from exactly one version. When the vocabularies differ, every
  /// open session is finished at the barrier with a "model_swap" report
  /// (emitted, never dropped) and traffic reopens under `next`. No event
  /// is lost either way.
  struct SwapStats {
    double pause_seconds = 0.0;   // all-shards-locked window
    std::size_t rolled_sessions = 0;  // sessions finished at the barrier
  };
  SwapStats swap_model(ModelHandle next, std::vector<OutputRecord>& out);

  /// The handle serving *new* sessions right now.
  ModelHandle current_model() const;

  /// Attaches a shadow/canary scorer mirroring `plan.fraction` of each
  /// shard's sessions onto the candidate model (serve.shadow.* metrics).
  /// Replaces any previous plan; clear_shadow() detaches.
  void set_shadow(const ShadowPlan& plan);
  void clear_shadow();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unique_ptr<SessionShard> table;
  };

  /// Emits collected eviction/shutdown reports in a globally sorted
  /// record order so output is independent of the shard count.
  void append_reports(std::vector<OutputRecord>&& reports, std::vector<OutputRecord>& out);
  void advance_clock(double t);
  void init_drift();
  void observe_drift(const std::vector<int>& actions);

  /// The model resolving actions for *new* traffic; swapped under
  /// model_mutex_ (readers take it shared — concurrent submit_batch
  /// calls resolve against a stable handle without blocking each other).
  ModelHandle model_;
  mutable std::shared_mutex model_mutex_;
  ServeConfig config_;
  std::size_t shard_max_sessions_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<WalWriter>> wals_;
  /// Sequence numbers start at 1: snapshot watermarks mean "replay
  /// strictly after", so 0 must stay the "nothing applied" sentinel.
  std::atomic<std::uint64_t> seq_{1};
  std::atomic<double> clock_{0.0};
  std::atomic<std::uint64_t> events_since_checkpoint_{0};

  /// Drift sink: shards report finished sessions' action histories here
  /// (from whichever thread scores them, hence the mutex).
  std::mutex drift_mutex_;
  std::unique_ptr<core::DriftMonitor> drift_;
};

}  // namespace misuse::serve
