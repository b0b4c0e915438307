#include "serve/session_table.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "serve/metrics.hpp"
#include "serve/shadow.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace misuse::serve {

namespace {

// Pre-rendered flat-JSON args for sampled trace events (util/trace.hpp
// TraceEvent::args — the inner object body, without braces).
std::string strip_braces(std::string s) { return s.substr(1, s.size() - 2); }

std::string step_trace_args(const Event& event, const core::OnlineMonitor::StepResult& step) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.member("action", event.action);
  json.member("step", step.step);
  json.member("cluster", step.cluster_voted);
  json.member("alarm", step.alarm);
  if (step.likelihood_voted) json.member("likelihood", *step.likelihood_voted);
  json.end_object();
  return strip_braces(os.str());
}

std::string report_trace_args(ReportReason reason, const core::SessionMonitorReport& report) {
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.member("reason", report_reason_name(reason));
  json.member("steps", report.steps);
  json.member("alarms", report.alarms);
  json.end_object();
  return strip_braces(os.str());
}

}  // namespace

void SessionShard::process(const Event& event, int action,
                           const core::MisuseDetector* resolved_under, std::uint64_t seq,
                           std::vector<OutputRecord>& out) {
  const PendingEvent pending{&event, action, resolved_under, seq};
  process_batch(std::span<const PendingEvent>(&pending, 1), out);
}

void SessionShard::process_batch(std::span<const PendingEvent> events,
                                 std::vector<OutputRecord>& out) {
  const bool record = metrics_enabled();
  Timer timer;
  std::size_t scored = stage(events, out);
  scored += settle(out);
  if (record) record_step_share(timer.seconds(), scored);
}

std::size_t SessionShard::stage(std::span<const PendingEvent> events,
                                std::vector<OutputRecord>& out) {
  assert(staged_.empty());
  // Staged steps: bookkeeping (clock, last_seen, WAL, watermark) applied
  // in arrival order; the monitor advance is deferred so distinct
  // sessions' forwards fuse into one batched step per wave and pinned
  // detector. Entry pointers are stable (node-based map) and no staged
  // entry is ever evicted (settle runs before evict_lru).
  std::size_t scored = 0;
  for (const PendingEvent& pending : events) {
    const Event& event = *pending.event;
    int action = pending.action;
    session_key_into(key_, event.user_id, event.session_id);
    auto it = sessions_.find(key_);
    // A session's actions are always interpreted under the model it
    // pinned at open. When the id was resolved under a different model
    // (the event raced a hot-swap), re-resolve the raw action string —
    // for vocab-compatible swaps this yields the same id; for
    // incompatible ones it prevents feeding a foreign id to the pinned
    // model.
    const core::MisuseDetector* pinned =
        it != sessions_.end() ? it->second.model.detector.get() : model_.detector.get();
    if (pinned != pending.resolved_under) {
      action = resolve_action_id(pinned->vocab(), event.action);
      if (action < 0) {
        serve_metrics().parse_errors.inc();
        out.push_back({pending.seq, render_error_record("unknown action", event.action)});
        continue;
      }
    }
    if (it != sessions_.end() && it->second.replay_pos < it->second.replay_skip.size()) {
      // Resume-replay dedup: the producer is resending the stream from
      // origin after a restart; events matching the session's already-
      // applied action prefix are consumed silently (no WAL append, no
      // scoring, no output) so the rebuilt state is not double-fed.
      // (A session with an armed skip list has no staged step: scoring
      // any event first clears the list.)
      Entry& entry = it->second;
      if (action == entry.replay_skip[entry.replay_pos]) {
        ++entry.replay_pos;
        if (event.has_timestamp) clock_ = std::max(clock_, event.timestamp);
        entry.last_seen = event.has_timestamp ? event.timestamp : clock_;
        serve_metrics().replay_skipped.inc();
        continue;
      }
      // The stream diverged from history — stop skipping, score normally.
      entry.replay_skip.clear();
      entry.replay_pos = 0;
    }
    if (it == sessions_.end()) {
      if (sessions_.size() >= config_.max_sessions) {
        // The LRU victim may have a staged step — settle it before the
        // eviction report, exactly as the one-by-one path would.
        scored += settle(out);
        evict_lru(pending.seq, out);
      }
      Entry entry;
      entry.user_id = event.user_id;
      entry.session_id = event.session_id;
      entry.model = model_;
      entry.monitor =
          std::make_unique<core::OnlineMonitor>(*entry.model.detector, config_.monitor);
      it = sessions_.emplace(key_, std::move(entry)).first;
      ServeMetrics& sm = serve_metrics();
      sm.sessions_opened.inc();
      sm.sessions_active.add(1);
    }
    Entry& entry = it->second;
    if (event.has_timestamp) clock_ = std::max(clock_, event.timestamp);
    entry.last_seen = event.has_timestamp ? event.timestamp : clock_;

    // Log before apply (group commit: append() buffers the record; the
    // server flushes the batch to the OS before any of its verdicts
    // become externally visible, so every emitted verdict's event is
    // recoverable).
    if (wal_ != nullptr) wal_->append(encode_event_record(event, pending.seq));
    last_applied_seq_ = std::max(last_applied_seq_, pending.seq);

    staged_.push_back({&event, &entry, action, pending.seq, entry.staged++});
  }
  return scored;
}

void SessionShard::observe_staged(std::span<SessionShard* const> shards) {
  // Per-thread staging, reused across calls.
  struct Rows {
    std::vector<const core::MisuseDetector*> detectors;
    std::vector<core::OnlineMonitor*> monitors;
    std::vector<int> actions;
    std::vector<core::OnlineMonitor::StepResult*> slots;
    std::vector<core::OnlineMonitor::StepResult> results;
  };
  thread_local Rows rows;
  std::size_t total = 0;
  std::uint32_t waves = 0;
  bool tracing = false;
  rows.detectors.clear();
  for (SessionShard* shard : shards) {
    shard->results_.resize(shard->staged_.size());
    total += shard->staged_.size();
    tracing |= shard->tracer_ != nullptr;
    for (const Staged& s : shard->staged_) {
      waves = std::max(waves, s.wave + 1);
      const auto* detector = s.entry->model.detector.get();
      if (std::find(rows.detectors.begin(), rows.detectors.end(), detector) ==
          rows.detectors.end()) {
        rows.detectors.push_back(detector);
      }
    }
  }
  if (total == 0) return;
  tracing = tracing && trace_events().enabled();
  const std::uint64_t start = tracing ? trace_now_nanos() : 0;
  // Wave w holds every session's w-th staged step, so each wave is a set
  // of distinct sessions and a session's waves run in its arrival order.
  // Within a wave: one fused observe_batch per distinct pinned detector
  // (almost always exactly one; more only mid-hot-swap), in
  // first-appearance order. The shards share the detector's weights, so
  // fusing across them is what lets one weight pass serve every ready
  // session.
  ServeMetrics& sm = serve_metrics();
  for (std::uint32_t wave = 0; wave < waves; ++wave) {
    std::size_t wave_events = 0;
    for (const auto* detector : rows.detectors) {
      rows.monitors.clear();
      rows.actions.clear();
      rows.slots.clear();
      for (SessionShard* shard : shards) {
        for (std::size_t i = 0; i < shard->staged_.size(); ++i) {
          const Staged& s = shard->staged_[i];
          if (s.wave != wave || s.entry->model.detector.get() != detector) continue;
          rows.monitors.push_back(s.entry->monitor.get());
          rows.actions.push_back(s.action);
          rows.slots.push_back(&shard->results_[i]);
        }
      }
      rows.results.resize(rows.monitors.size());
      core::OnlineMonitor::observe_batch(*detector, rows.monitors, rows.actions, rows.results);
      for (std::size_t j = 0; j < rows.slots.size(); ++j) {
        std::swap(*rows.slots[j], rows.results[j]);
      }
      wave_events += rows.slots.size();
    }
    sm.batch_events.record(static_cast<double>(wave_events));
  }
  // Sampled tracing: the fused batch is one timed unit, so each traced
  // step gets an equal slice of the window — good enough to see the
  // lifecycle and ordering, which is what the export is for.
  const std::uint64_t share = tracing ? (trace_now_nanos() - start) / total : 0;
  std::size_t offset = 0;
  for (SessionShard* shard : shards) {
    shard->trace_start_ = start + offset * share;
    shard->trace_share_ = share;
    offset += shard->staged_.size();
  }
}

std::size_t SessionShard::commit(std::vector<OutputRecord>& out) {
  const bool record = metrics_enabled();
  const bool tracing = tracer_ != nullptr && trace_events().enabled();
  assert(results_.size() == staged_.size());
  // Post-processing replays arrival order, so records, observers, and
  // the shadow scorer see exactly the per-event sequence.
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    Entry& entry = *staged_[i].entry;
    const Event& event = *staged_[i].event;
    const core::OnlineMonitor::StepResult& step = results_[i];
    if (tracing) {
      const std::string key = session_key(event);
      if (tracer_->sampled(key)) {
        trace_events().record({"monitor.step", key, trace_start_ + i * trace_share_,
                               trace_share_, step_trace_args(event, step)});
      }
    }
    if (config_.track_history) entry.actions.push_back(staged_[i].action);
    entry.acc.add(step);
    if (config_.emit_steps) out.push_back({staged_[i].seq, render_step_record(event, step)});
    if (step_observer_) step_observer_(event, step);
    if (shadow_) shadow_->observe(event, step);
    --entry.staged;
    if (record) {
      ServeMetrics& sm = serve_metrics();
      sm.events.inc();
      sm.steps.inc();
      if (step.alarm) sm.alarms.inc();
    }
  }
  const std::size_t committed = staged_.size();
  staged_.clear();
  return committed;
}

std::size_t SessionShard::settle(std::vector<OutputRecord>& out) {
  SessionShard* self = this;
  observe_staged(std::span<SessionShard* const>(&self, 1));
  return commit(out);
}

void SessionShard::record_step_share(double seconds, std::size_t scored) {
  if (scored == 0) return;
  // The timer spans the whole batch; attribute an equal share to each
  // scored step so the histogram's count still equals the step count.
  ServeMetrics& sm = serve_metrics();
  const double share = seconds / static_cast<double>(scored);
  for (std::size_t i = 0; i < scored; ++i) sm.step_seconds.record(share);
}

void SessionShard::finish_entry(const Entry& entry, ReportReason reason, std::uint64_t seq,
                                std::vector<OutputRecord>& out) {
  const core::SessionMonitorReport report = entry.acc.report();
  out.push_back({seq, render_report_record(entry.user_id, entry.session_id, reason, report,
                                           entry.model.version)});
  if (report_observer_) report_observer_(entry.user_id, entry.session_id, reason, report);
  if (tracer_ != nullptr && trace_events().enabled()) {
    const std::string key = session_key(entry.user_id, entry.session_id);
    if (tracer_->sampled(key)) {
      trace_events().record(
          {"session.report", key, trace_now_nanos(), 0, report_trace_args(reason, report)});
    }
  }
  if (history_observer_ && config_.track_history) history_observer_(entry.actions);
  if (shadow_) shadow_->finish(entry.user_id, entry.session_id);
  ServeMetrics& sm = serve_metrics();
  sm.sessions_finished.inc();
  sm.sessions_active.add(-1);
  if (reason == ReportReason::kIdleEviction || reason == ReportReason::kCapacityEviction) {
    sm.sessions_evicted.inc();
  }
}

void SessionShard::evict_lru(std::uint64_t seq, std::vector<OutputRecord>& out) {
  if (sessions_.empty()) return;
  // Oldest last_seen wins; ties break on the smaller key so the choice
  // does not depend on hash-map iteration order.
  auto victim = sessions_.begin();
  for (auto it = std::next(sessions_.begin()); it != sessions_.end(); ++it) {
    if (it->second.last_seen < victim->second.last_seen ||
        (it->second.last_seen == victim->second.last_seen && it->first < victim->first)) {
      victim = it;
    }
  }
  finish_entry(victim->second, ReportReason::kCapacityEviction, seq, out);
  sessions_.erase(victim);
}

void SessionShard::sweep(double now, std::uint64_t seq, std::vector<OutputRecord>& out) {
  last_applied_seq_ = std::max(last_applied_seq_, seq);
  std::vector<std::string> expired;
  for (const auto& [key, entry] : sessions_) {
    if (now - entry.last_seen > config_.idle_ttl_seconds) expired.push_back(key);
  }
  std::sort(expired.begin(), expired.end());
  for (const auto& key : expired) {
    const auto it = sessions_.find(key);
    finish_entry(it->second, ReportReason::kIdleEviction, seq, out);
    sessions_.erase(it);
  }
}

void SessionShard::finish_all(std::uint64_t seq, std::vector<OutputRecord>& out,
                              ReportReason reason) {
  std::vector<const std::string*> keys;
  keys.reserve(sessions_.size());
  for (const auto& [key, entry] : sessions_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* key : keys) {
    finish_entry(sessions_.at(*key), reason, seq, out);
  }
  sessions_.clear();
}

std::vector<SessionSnapshot> SessionShard::snapshot_sessions() const {
  std::vector<const std::string*> keys;
  keys.reserve(sessions_.size());
  for (const auto& [key, entry] : sessions_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  std::vector<SessionSnapshot> out;
  out.reserve(keys.size());
  for (const std::string* key : keys) {
    const Entry& entry = sessions_.at(*key);
    SessionSnapshot snap;
    snap.user_id = entry.user_id;
    snap.session_id = entry.session_id;
    snap.actions = entry.actions;
    snap.last_seen = entry.last_seen;
    out.push_back(std::move(snap));
  }
  return out;
}

void SessionShard::restore_session(const SessionSnapshot& snapshot) {
  Entry entry;
  entry.user_id = snapshot.user_id;
  entry.session_id = snapshot.session_id;
  // Restored sessions re-open under the *current* model: snapshots store
  // action histories, not model pins, so after a crash the whole rebuilt
  // state is scored by the version the server booted with.
  entry.model = model_;
  entry.monitor = std::make_unique<core::OnlineMonitor>(*entry.model.detector, config_.monitor);
  for (const int action : snapshot.actions) entry.acc.add(entry.monitor->observe(action));
  if (config_.track_history) entry.actions = snapshot.actions;
  entry.last_seen = snapshot.last_seen;
  sessions_[session_key(snapshot.user_id, snapshot.session_id)] = std::move(entry);
  ServeMetrics& sm = serve_metrics();
  sm.recovered_sessions.inc();
  sm.sessions_active.add(1);
}

void SessionShard::arm_replay_skip() {
  for (auto& [key, entry] : sessions_) {
    entry.replay_skip = entry.actions;
    entry.replay_pos = 0;
  }
}

}  // namespace misuse::serve
