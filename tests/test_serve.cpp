// Streaming scoring server: wire-format parsing, shard determinism
// (bit-identical to the offline OnlineMonitor at any shard count and
// batch split), eviction policies, graceful shutdown, and the serve
// metrics panel.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "serve/event.hpp"
#include "serve/metrics.hpp"
#include "synth/portal.hpp"
#include "util/failpoint.hpp"
#include "util/line_io.hpp"
#include "util/serialize.hpp"
#include "temp_dir.hpp"

namespace misuse::serve {
namespace {

TEST(ServeEvent, ParsesValidEvent) {
  Event event;
  std::string error;
  ASSERT_TRUE(parse_event(
      R"({"user_id": "u7", "session_id": "s1", "action": "ActionLogin", "timestamp": 12.5})",
      event, error))
      << error;
  EXPECT_EQ(event.user_id, "u7");
  EXPECT_EQ(event.session_id, "s1");
  EXPECT_EQ(event.action, "ActionLogin");
  EXPECT_TRUE(event.has_timestamp);
  EXPECT_EQ(event.timestamp, 12.5);
}

TEST(ServeEvent, NumericIdsAndMissingTimestamp) {
  Event event;
  std::string error;
  ASSERT_TRUE(parse_event(R"({"user_id": 17, "session_id": 3, "action": "5"})", event, error))
      << error;
  EXPECT_EQ(event.user_id, "17");
  EXPECT_EQ(event.session_id, "3");
  EXPECT_EQ(event.action, "5");
  EXPECT_FALSE(event.has_timestamp);
}

TEST(ServeEvent, RejectsMissingFields) {
  Event event;
  std::string error;
  EXPECT_FALSE(parse_event(R"({"session_id": "s", "action": "a"})", event, error));
  EXPECT_FALSE(parse_event(R"({"user_id": "u", "action": "a"})", event, error));
  EXPECT_FALSE(parse_event(R"({"user_id": "u", "session_id": "s"})", event, error));
  EXPECT_FALSE(parse_event("garbage", event, error));
}

TEST(ServeEvent, SessionKeySeparatesUserAndSession) {
  Event a;
  a.user_id = "a";
  a.session_id = "b:c";
  Event b;
  b.user_id = "a:b";
  b.session_id = "c";
  EXPECT_NE(session_key(a), session_key(b));
}

TEST(ServeEvent, ShardHashIsStableFnv1a) {
  // Pinned FNV-1a vectors: shard routing must not drift across platforms
  // or standard libraries (std::hash would).
  EXPECT_EQ(session_shard_hash(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(session_shard_hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(session_shard_hash("abc"), session_shard_hash("abc"));
  EXPECT_NE(session_shard_hash("abc"), session_shard_hash("abd"));
}

// ---------------------------------------------------------------------------
// Server tests against a small trained detector (trained once per suite).

class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 220;
    pc.users = 40;
    pc.action_count = 60;
    pc.seed = 42;
    portal_ = new synth::Portal(pc);
    store_ = new SessionStore(portal_->generate());
    core::DetectorConfig dc;
    dc.ensemble.topic_counts = {10, 13};
    dc.ensemble.iterations = 8;
    dc.expert.target_clusters = 4;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 8;
    dc.lm.epochs = 2;
    dc.lm.patience = 0;
    detector_ = new core::MisuseDetector(core::MisuseDetector::train(*store_, dc));
  }
  static void TearDownTestSuite() {
    delete detector_;
    delete store_;
    delete portal_;
    detector_ = nullptr;
    store_ = nullptr;
    portal_ = nullptr;
  }

  /// The first `count` stored sessions with >= 2 actions.
  static std::vector<std::span<const int>> pick_sessions(std::size_t count) {
    std::vector<std::span<const int>> picked;
    for (std::size_t i = 0; i < store_->size() && picked.size() < count; ++i) {
      if (store_->at(i).length() >= 2 && store_->at(i).length() <= 40) {
        picked.push_back(store_->at(i).view());
      }
    }
    return picked;
  }

  /// Interleaves the sessions round-robin into a timestamped event trace
  /// (actions sent by name, one distinct session id per input session).
  /// `id_offset` shifts the generated user/session ids so two traces can
  /// coexist in one server without colliding.
  static std::vector<Event> interleave(const std::vector<std::span<const int>>& sessions,
                                       std::size_t id_offset = 0) {
    std::vector<Event> events;
    std::vector<std::size_t> cursor(sessions.size(), 0);
    double t = 0.0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        if (cursor[s] >= sessions[s].size()) continue;
        Event e;
        e.user_id = "u" + std::to_string((id_offset + s) % 5);
        e.session_id = "s" + std::to_string(id_offset + s);
        e.action = detector_->vocab().name(sessions[s][cursor[s]]);
        e.timestamp = t;
        e.has_timestamp = true;
        t += 1.0;
        ++cursor[s];
        events.push_back(std::move(e));
        progressed = true;
      }
    }
    return events;
  }

  /// Scores `events` through submit_batch in chunks of 1, 2, ...,
  /// `max_chunk` events, cycling, so sessions straddle batch boundaries
  /// and repeat within a batch.
  static void submit_mixed(ScoringServer& server, const std::vector<Event>& events,
                           std::vector<OutputRecord>& out, std::size_t max_chunk = 16) {
    for (std::size_t begin = 0, size = 1; begin < events.size();
         begin += size, size = size % max_chunk + 1) {
      const std::size_t n = std::min(size, events.size() - begin);
      server.submit_batch(std::span<const Event>(events.data() + begin, n), out);
    }
  }

  /// A retrained detector over the *same* store (same vocabulary, same
  /// fingerprint, different weights): the compatible hot-swap candidate.
  /// Trained lazily — only lifecycle tests pay for it.
  static const core::MisuseDetector& detector_v2() {
    static const core::MisuseDetector v2 = [] {
      core::DetectorConfig dc;
      dc.ensemble.topic_counts = {10, 13};
      dc.ensemble.iterations = 8;
      dc.expert.target_clusters = 4;
      dc.expert.min_cluster_sessions = 5;
      dc.lm.hidden = 10;  // different capacity => different weights
      dc.lm.epochs = 1;
      dc.lm.patience = 0;
      return core::MisuseDetector::train(*store_, dc);
    }();
    return v2;
  }

  /// A detector over a different synthetic world (different action
  /// vocabulary => different fingerprint): the incompatible candidate.
  static const core::MisuseDetector& detector_alt() {
    static const core::MisuseDetector alt = [] {
      synth::PortalConfig pc;
      pc.sessions = 120;
      pc.users = 20;
      pc.action_count = 35;
      pc.seed = 9;
      SessionStore store(synth::Portal(pc).generate());
      core::DetectorConfig dc;
      dc.ensemble.topic_counts = {6};
      dc.ensemble.iterations = 6;
      dc.expert.target_clusters = 2;
      dc.expert.min_cluster_sessions = 5;
      dc.lm.hidden = 8;
      dc.lm.epochs = 1;
      dc.lm.patience = 0;
      return core::MisuseDetector::train(store, dc);
    }();
    return alt;
  }

  /// Non-owning versioned handle over a fixture-owned detector.
  static ModelHandle versioned(const core::MisuseDetector& detector, std::string version) {
    ModelHandle handle = ModelHandle::borrowed(detector);
    handle.version = std::move(version);
    return handle;
  }

  static synth::Portal* portal_;
  static SessionStore* store_;
  static core::MisuseDetector* detector_;
};

synth::Portal* ServeFixture::portal_ = nullptr;
SessionStore* ServeFixture::store_ = nullptr;
core::MisuseDetector* ServeFixture::detector_ = nullptr;

/// Collects StepResults per session id, thread-safely.
struct StepCollector {
  std::mutex mutex;
  std::map<std::string, std::vector<core::OnlineMonitor::StepResult>> by_session;

  StepObserver observer() {
    return [this](const Event& event, const core::OnlineMonitor::StepResult& step) {
      std::lock_guard<std::mutex> lock(mutex);
      by_session[event.session_id].push_back(step);
    };
  }
};

/// Collects session reports keyed by session id.
struct ReportCollector {
  std::mutex mutex;
  std::map<std::string, std::pair<ReportReason, core::SessionMonitorReport>> by_session;

  ReportObserver observer() {
    return [this](std::string_view, std::string_view session_id, ReportReason reason,
                  const core::SessionMonitorReport& report) {
      std::lock_guard<std::mutex> lock(mutex);
      by_session[std::string(session_id)] = {reason, report};
    };
  }
};

void expect_steps_bit_identical(const core::OnlineMonitor::StepResult& got,
                                const core::OnlineMonitor::StepResult& want) {
  EXPECT_EQ(got.step, want.step);
  EXPECT_EQ(got.ocsvm_scores, want.ocsvm_scores);
  EXPECT_EQ(got.cluster_argmax, want.cluster_argmax);
  EXPECT_EQ(got.cluster_voted, want.cluster_voted);
  EXPECT_EQ(got.likelihood_argmax, want.likelihood_argmax);  // bit-exact double compare
  EXPECT_EQ(got.likelihood_voted, want.likelihood_voted);
  EXPECT_EQ(got.alarm, want.alarm);
  EXPECT_EQ(got.trend_alarm, want.trend_alarm);
}

// The acceptance gate: an interleaved multi-session trace pushed through
// the sharded server in mixed batch sizes scores exactly like replaying
// each session through a standalone OnlineMonitor.
TEST_F(ServeFixture, ServerMatchesOfflineMonitorBitIdentically) {
  const auto sessions = pick_sessions(12);
  ASSERT_GE(sessions.size(), 8u);
  const auto events = interleave(sessions);

  ServeConfig config;
  config.shards = 3;
  config.idle_ttl_seconds = 1e9;
  ScoringServer server(*detector_, config);
  StepCollector steps;
  ReportCollector reports;
  server.set_step_observer(steps.observer());
  server.set_report_observer(reports.observer());

  std::vector<OutputRecord> out;
  submit_mixed(server, events, out);
  server.shutdown(out);

  // Offline reference: sequential replay, one monitor per session.
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const std::string sid = "s" + std::to_string(s);
    ASSERT_TRUE(steps.by_session.count(sid)) << sid;
    const auto& got = steps.by_session[sid];
    ASSERT_EQ(got.size(), sessions[s].size());
    core::OnlineMonitor monitor(*detector_, config.monitor);
    core::SessionAccumulator acc;
    for (std::size_t i = 0; i < sessions[s].size(); ++i) {
      const auto want = monitor.observe(sessions[s][i]);
      acc.add(want);
      expect_steps_bit_identical(got[i], want);
    }
    // End-of-session report matches the offline accumulator exactly.
    ASSERT_TRUE(reports.by_session.count(sid)) << sid;
    const auto& [reason, report] = reports.by_session[sid];
    const auto want_report = acc.report();
    EXPECT_EQ(reason, ReportReason::kShutdown);
    EXPECT_EQ(report.steps, want_report.steps);
    EXPECT_EQ(report.alarms, want_report.alarms);
    EXPECT_EQ(report.trend_alarms, want_report.trend_alarms);
    EXPECT_EQ(report.disagree_steps, want_report.disagree_steps);
    EXPECT_EQ(report.first_alarm_step, want_report.first_alarm_step);
    EXPECT_EQ(report.voted_cluster, want_report.voted_cluster);
    EXPECT_EQ(report.avg_likelihood_voted, want_report.avg_likelihood_voted);
  }
  EXPECT_EQ(server.active_sessions(), 0u);
}

// submit_sync (one event per batch) goes through the same shard scoring.
TEST_F(ServeFixture, SubmitSyncMatchesOfflineMonitor) {
  const auto sessions = pick_sessions(1);
  ASSERT_EQ(sessions.size(), 1u);
  ServeConfig config;
  config.shards = 2;
  ScoringServer server(*detector_, config);
  StepCollector steps;
  server.set_step_observer(steps.observer());
  std::vector<OutputRecord> out;
  for (std::size_t i = 0; i < sessions[0].size(); ++i) {
    Event e;
    e.user_id = "u0";
    e.session_id = "sync";
    e.action = detector_->vocab().name(sessions[0][i]);
    ASSERT_TRUE(server.submit_sync(e, out));
  }
  core::OnlineMonitor monitor(*detector_, config.monitor);
  const auto& got = steps.by_session["sync"];
  ASSERT_EQ(got.size(), sessions[0].size());
  for (std::size_t i = 0; i < sessions[0].size(); ++i) {
    expect_steps_bit_identical(got[i], monitor.observe(sessions[0][i]));
  }
}

// submit_batch (the epoll path: fused steps across shards, one per wave)
// answers every event with exactly the records per-event submission
// gives it — step lines, an unknown-action error, and capacity-eviction
// reports — and each record's seq names its event. A second pass packs
// one batch with a session repeated 4x between sessions on every shard
// and a capacity eviction in the middle: records, reports and every
// shard's WAL bytes must match one-at-a-time submission, and the batch
// must run as exactly its waves.
TEST_F(ServeFixture, SubmitBatchMatchesPerEventSubmission) {
  auto events = interleave(pick_sessions(8));
  ASSERT_GT(events.size(), 40u);
  Event unknown = events[3];
  unknown.action = "no_such_action";
  events.insert(events.begin() + 7, unknown);
  ServeConfig config;
  config.shards = 4;
  config.max_sessions = 6;  // 2 per shard: opening sessions evicts others
  config.idle_ttl_seconds = 1e9;

  ScoringServer one_by_one(*detector_, config);
  std::vector<std::vector<std::string>> want(events.size());
  std::vector<OutputRecord> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    one_by_one.submit_sync(events[i], out);
    for (const auto& r : out) want[i].push_back(r.line);
    out.clear();
  }

  ScoringServer batched(*detector_, config);
  std::vector<std::vector<std::string>> got(events.size());
  std::size_t evictions = 0;
  for (std::size_t begin = 0, size = 1; begin < events.size(); begin += size, size += 4) {
    const std::size_t n = std::min(size, events.size() - begin);
    const auto submitted =
        batched.submit_batch(std::span<const Event>(events.data() + begin, n), out);
    for (const auto& r : out) {
      ASSERT_GE(r.seq, submitted.first_seq);
      ASSERT_LT(r.seq, submitted.first_seq + n);
      got[begin + (r.seq - submitted.first_seq)].push_back(r.line);
      evictions += r.line.find("capacity_eviction") != std::string::npos ? 1 : 0;
    }
    out.clear();
  }
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(got[i], want[i]) << "event " << i;
  EXPECT_EQ(want[7].size(), 1u);
  EXPECT_NE(want[7].front().find("unknown action"), std::string::npos);
  EXPECT_GT(evictions, 0u);

  std::vector<OutputRecord> want_tail;
  std::vector<OutputRecord> got_tail;
  one_by_one.shutdown(want_tail);
  batched.shutdown(got_tail);
  ASSERT_EQ(got_tail.size(), want_tail.size());
  for (std::size_t i = 0; i < got_tail.size(); ++i) EXPECT_EQ(got_tail[i].line, want_tail[i].line);

  // -- One batch: waves plus a mid-batch capacity eviction ----------------
  constexpr std::size_t kShards = 4;
  config.max_sessions = 2 * kShards;  // 2 per shard
  const auto shard_of_id = [](const std::string& id) {
    return session_shard_hash(session_key("w", id)) % kShards;
  };
  // Three session ids per shard. repeated (shard 0) is sent 4x; others[s]
  // is one session per shard; extra (shard 1) are two more, so the second
  // one's open finds shard 1 full and evicts others[1], its LRU session.
  std::vector<std::vector<std::string>> by_shard(kShards);
  for (std::size_t k = 0; std::any_of(by_shard.begin(), by_shard.end(),
                                      [](const auto& ids) { return ids.size() < 3; });
       ++k) {
    const std::string id = "x" + std::to_string(k);
    by_shard[shard_of_id(id)].push_back(id);
  }
  const std::string repeated = by_shard[0][0];
  const std::vector<std::string> others = {by_shard[0][1], by_shard[1][0], by_shard[2][0],
                                           by_shard[3][0]};
  const std::vector<std::string> extra = {by_shard[1][1], by_shard[1][2]};
  const auto stream = pick_sessions(1).front();
  ASSERT_GE(stream.size(), 4u);
  std::vector<Event> wave_batch;
  const auto add = [&](const std::string& id, std::size_t step) {
    Event e;
    e.user_id = "w";
    e.session_id = id;
    e.action = detector_->vocab().name(stream[step % stream.size()]);
    e.timestamp = static_cast<double>(wave_batch.size());
    e.has_timestamp = true;
    wave_batch.push_back(std::move(e));
  };
  add(repeated, 0);
  add(others[0], 0);
  add(others[1], 1);
  add(repeated, 1);
  add(others[2], 2);
  add(repeated, 2);
  add(others[3], 3);
  add(extra[0], 1);
  add(repeated, 3);
  add(extra[1], 2);  // opens on full shard 1: evicts others[1]
  add(others[0], 3);

  const auto wal_bytes = [](const std::string& dir, std::size_t shard) {
    std::ifstream in(wal_path(dir, shard), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  const auto run = [&](const std::string& name, bool batch_at_once) {
    ServeConfig wal_config = config;
    wal_config.wal_dir = testing_support::test_temp_path("misusedet_waves_" + name);
    std::filesystem::create_directories(wal_config.wal_dir);
    ScoringServer server(*detector_, wal_config);
    std::vector<OutputRecord> records;
    if (batch_at_once) {
      server.submit_batch(wave_batch, records);
    } else {
      for (const Event& event : wave_batch) server.submit_sync(event, records);
    }
    std::vector<std::string> lines;
    for (const auto& r : records) lines.push_back(std::to_string(r.seq) + " " + r.line);
    std::vector<std::string> wals;
    for (std::size_t s = 0; s < kShards; ++s) wals.push_back(wal_bytes(wal_config.wal_dir, s));
    records.clear();
    server.shutdown(records);
    for (const auto& r : records) lines.push_back(r.line);
    return std::pair{lines, wals};
  };
  const auto [want_lines, want_wals] = run("one", false);
  const std::uint64_t waves_before = serve_metrics().batch_events.count();
  const auto [got_lines, got_wals] = run("batch", true);
  const std::uint64_t waves = serve_metrics().batch_events.count() - waves_before;
  EXPECT_EQ(got_lines, want_lines);
  EXPECT_EQ(got_wals, want_wals);
  for (const auto& wal : got_wals) EXPECT_FALSE(wal.empty());
  const auto evicted = std::count_if(want_lines.begin(), want_lines.end(), [](const auto& l) {
    return l.find("capacity_eviction") != std::string::npos;
  });
  EXPECT_EQ(evicted, 1);
  // The eviction settles shard 1's stage first (one wave: two distinct
  // sessions); the rest runs as repeated's 4 waves across all shards.
  EXPECT_EQ(waves, 1u + 4u);
}

TEST_F(ServeFixture, OutputOrderFollowsArrivalOrder) {
  const auto sessions = pick_sessions(6);
  const auto events = interleave(sessions);
  ServeConfig config;
  config.shards = 4;
  ScoringServer server(*detector_, config);
  std::vector<OutputRecord> out;
  const auto submitted = server.submit_batch(events, out);  // one batch across all shards
  EXPECT_EQ(submitted.rejected, 0u);
  ASSERT_EQ(out.size(), events.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Alarming steps carry a nested "expected" array, so check the
    // discriminant fields as substrings rather than flat-parsing.
    EXPECT_NE(out[i].line.find("\"type\":\"step\""), std::string::npos) << out[i].line;
    EXPECT_NE(out[i].line.find("\"session_id\":\"" + events[i].session_id + "\""),
              std::string::npos)
        << "record " << i;
    if (i > 0) EXPECT_GT(out[i].seq, out[i - 1].seq);
  }
}

// The full NDJSON stream — steps AND end-of-session reports — must be
// byte-identical at any shard count and batch split: shard partitioning
// and batching are implementation details that must not leak into the
// output.
TEST_F(ServeFixture, RenderedOutputIdenticalAcrossShardCounts) {
  const auto sessions = pick_sessions(10);
  const auto events = interleave(sessions);
  const auto replay = [&](std::size_t shards, std::size_t max_chunk) {
    ServeConfig config;
    config.shards = shards;
    ScoringServer server(*detector_, config);
    std::vector<OutputRecord> out;
    submit_mixed(server, events, out, max_chunk);
    server.shutdown(out);
    std::vector<std::string> lines;
    lines.reserve(out.size());
    for (const auto& r : out) lines.push_back(r.line);
    return lines;
  };
  const auto baseline = replay(1, 1);
  ASSERT_EQ(baseline.size(), events.size() + sessions.size());  // steps + shutdown reports
  EXPECT_EQ(replay(3, 7), baseline);
  EXPECT_EQ(replay(8, events.size()), baseline);
}

TEST_F(ServeFixture, IdleTtlSweepEvictsOnEventTime) {
  ServeConfig config;
  config.shards = 2;
  config.idle_ttl_seconds = 10.0;
  ScoringServer server(*detector_, config);
  ReportCollector reports;
  server.set_report_observer(reports.observer());
  std::vector<OutputRecord> out;

  const std::string action = detector_->vocab().name(0);
  auto event_at = [&](const std::string& sid, double t) {
    Event e;
    e.user_id = "u";
    e.session_id = sid;
    e.action = action;
    e.timestamp = t;
    e.has_timestamp = true;
    return e;
  };
  const std::vector<Event> events = {event_at("old", 0.0), event_at("old", 1.0),
                                     event_at("fresh", 100.0)};
  ASSERT_EQ(server.submit_batch(events, out).rejected, 0u);
  EXPECT_EQ(server.active_sessions(), 2u);

  server.sweep(out);  // event clock is 100; "old" idle for 99s > 10s TTL
  EXPECT_EQ(server.active_sessions(), 1u);
  ASSERT_TRUE(reports.by_session.count("old"));
  EXPECT_EQ(reports.by_session["old"].first, ReportReason::kIdleEviction);
  EXPECT_EQ(reports.by_session["old"].second.steps, 2u);
  EXPECT_FALSE(reports.by_session.count("fresh"));
}

TEST_F(ServeFixture, CapacityEvictionBoundsSessionTable) {
  ServeConfig config;
  config.shards = 1;  // single shard makes the cap exact
  config.max_sessions = 4;
  config.idle_ttl_seconds = 1e9;
  ScoringServer server(*detector_, config);
  ReportCollector reports;
  server.set_report_observer(reports.observer());
  std::vector<OutputRecord> out;

  const std::string action = detector_->vocab().name(0);
  for (int s = 0; s < 7; ++s) {
    Event e;
    e.user_id = "u";
    e.session_id = "cap" + std::to_string(s);
    e.action = action;
    e.timestamp = static_cast<double>(s);
    e.has_timestamp = true;
    ASSERT_TRUE(server.submit_sync(e, out));
    EXPECT_LE(server.active_sessions(), 4u);
  }
  EXPECT_EQ(server.active_sessions(), 4u);
  // The three oldest sessions were evicted, LRU first.
  for (const auto& sid : {"cap0", "cap1", "cap2"}) {
    ASSERT_TRUE(reports.by_session.count(sid)) << sid;
    EXPECT_EQ(reports.by_session[sid].first, ReportReason::kCapacityEviction);
  }
  EXPECT_FALSE(reports.by_session.count("cap6"));
}

TEST_F(ServeFixture, UnknownActionYieldsErrorRecord) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  const std::uint64_t errors_before = serve_metrics().parse_errors.value();
  std::vector<OutputRecord> out;
  Event e;
  e.user_id = "u";
  e.session_id = "s";
  e.action = "NoSuchActionEver";
  EXPECT_FALSE(server.submit_sync(e, out));
  ASSERT_EQ(out.size(), 1u);
  std::vector<JsonField> fields;
  std::string error;
  ASSERT_TRUE(parse_flat_json(out[0].line, fields, error));
  EXPECT_EQ(get_string(fields, "type"), "error");
  EXPECT_EQ(serve_metrics().parse_errors.value() - errors_before, 1u);
  // Out-of-range numeric ids are rejected too.
  e.action = std::to_string(detector_->vocab().size());
  EXPECT_FALSE(server.submit_sync(e, out));
}

TEST_F(ServeFixture, NumericActionIdScoresLikeName) {
  ServeConfig config;
  ScoringServer server(*detector_, config);
  StepCollector steps;
  server.set_step_observer(steps.observer());
  std::vector<OutputRecord> out;
  Event by_name;
  by_name.user_id = "u";
  by_name.session_id = "name";
  by_name.action = detector_->vocab().name(3);
  Event by_id = by_name;
  by_id.session_id = "id";
  by_id.action = "3";
  ASSERT_TRUE(server.submit_sync(by_name, out));
  ASSERT_TRUE(server.submit_sync(by_id, out));
  ASSERT_EQ(steps.by_session["name"].size(), 1u);
  ASSERT_EQ(steps.by_session["id"].size(), 1u);
  EXPECT_EQ(steps.by_session["name"][0].ocsvm_scores, steps.by_session["id"][0].ocsvm_scores);
}

TEST_F(ServeFixture, ServeMetricsTrackSessions) {
  ServeMetrics& sm = serve_metrics();
  const std::uint64_t opened_before = sm.sessions_opened.value();
  const std::uint64_t finished_before = sm.sessions_finished.value();
  const std::uint64_t steps_before = sm.steps.value();
  ServeConfig config;
  config.shards = 2;
  ScoringServer server(*detector_, config);
  std::vector<OutputRecord> out;
  const std::string action = detector_->vocab().name(2);
  std::vector<Event> events;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 4; ++i) {
      Event e;
      e.user_id = "m";
      e.session_id = "metrics" + std::to_string(s);
      e.action = action;
      events.push_back(e);
    }
  }
  ASSERT_EQ(server.submit_batch(events, out).rejected, 0u);
  server.shutdown(out);
  EXPECT_EQ(sm.sessions_opened.value() - opened_before, 3u);
  EXPECT_EQ(sm.sessions_finished.value() - finished_before, 3u);
  EXPECT_EQ(sm.steps.value() - steps_before, 12u);
  EXPECT_GE(sm.step_seconds.count(), 12u);
}

TEST_F(ServeFixture, HealthyVerdictsCarryNoDegradedFlag) {
  // Byte-identity guarantee: output of a healthy detector must not grow a
  // "degraded" field (it is emitted only when true).
  ServeConfig config;
  config.shards = 2;
  ScoringServer server(*detector_, config);
  EXPECT_EQ(serve_metrics().degraded_clusters.value(), 0);
  std::vector<OutputRecord> out;
  Event e;
  e.user_id = "h";
  e.session_id = "healthy";
  e.action = detector_->vocab().name(1);
  ASSERT_TRUE(server.submit_sync(e, out));
  server.shutdown(out);
  ASSERT_FALSE(out.empty());
  for (const auto& r : out) {
    EXPECT_EQ(r.line.find("\"degraded\""), std::string::npos) << r.line;
  }
}

TEST_F(ServeFixture, DegradedDetectorServesFlaggedVerdicts) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  // Round-trip the trained detector through its archive with every LSTM
  // section forced corrupt: the server must come up on the Markov
  // fallbacks, publish the degraded-cluster gauge, and stamp
  // "degraded":true on the affected verdicts instead of refusing to
  // serve.
  std::stringstream archive(std::ios::in | std::ios::out | std::ios::binary);
  BinaryWriter writer(archive);
  detector_->save(writer);
  BinaryReader reader(archive);
  failpoints::configure("detector.load.lstm=always");
  const core::MisuseDetector degraded = core::MisuseDetector::load(reader);
  failpoints::clear();
  ASSERT_EQ(degraded.degraded_cluster_count(), degraded.cluster_count());

  ServeConfig config;
  config.shards = 2;
  ScoringServer server(degraded, config);
  EXPECT_EQ(serve_metrics().degraded_clusters.value(),
            static_cast<std::int64_t>(degraded.cluster_count()));

  const auto sessions = pick_sessions(4);
  ASSERT_GE(sessions.size(), 2u);
  std::vector<OutputRecord> out;
  submit_mixed(server, interleave(sessions), out);
  server.shutdown(out);

  std::size_t degraded_steps = 0;
  std::size_t degraded_reports = 0;
  for (const auto& r : out) {
    if (r.line.find("\"degraded\":true") == std::string::npos) continue;
    if (r.line.find("\"type\":\"step\"") != std::string::npos) ++degraded_steps;
    if (r.line.find("\"type\":\"session_report\"") != std::string::npos) ++degraded_reports;
  }
  EXPECT_GT(degraded_steps, 0u) << "all clusters are degraded; steps must say so";
  EXPECT_GT(degraded_reports, 0u);

  // Restore the healthy gauge for later tests in this process.
  ScoringServer healthy(*detector_, config);
  EXPECT_EQ(serve_metrics().degraded_clusters.value(), 0);
}

// ---------------------------------------------------------------------------
// Model lifecycle: hot-swap, version stamping, shadow/canary scoring.

// The swap acceptance gate: sessions scored before the swap match the
// old model's offline monitor bit-for-bit, sessions opened after match
// the new model's — and the whole rendered stream is identical at any
// shard count and batch split. Compatible vocabularies: zero sessions
// rolled.
TEST_F(ServeFixture, HotSwapEquivalentToOfflinePerVersion) {
  const auto sessions = pick_sessions(10);
  ASSERT_GE(sessions.size(), 8u);
  const std::size_t half = sessions.size() / 2;
  const std::vector<std::span<const int>> first(sessions.begin(),
                                                sessions.begin() + static_cast<long>(half));
  const std::vector<std::span<const int>> second(sessions.begin() + static_cast<long>(half),
                                                 sessions.end());
  ASSERT_EQ(detector_->vocab().fingerprint(), detector_v2().vocab().fingerprint());

  const auto replay = [&](std::size_t shards, std::size_t max_chunk) {
    ServeConfig config;
    config.shards = shards;
    config.idle_ttl_seconds = 1e9;
    ScoringServer server(versioned(*detector_, "v1"), config);
    StepCollector steps;
    std::vector<OutputRecord> out;
    server.set_step_observer(steps.observer());
    // The first trace scores under v1; its sessions stay open across the
    // swap and keep scoring under v1 — nothing scores under v2.
    submit_mixed(server, interleave(first), out, max_chunk);
    const auto stats = server.swap_model(versioned(detector_v2(), "v2"), out);
    EXPECT_EQ(stats.rolled_sessions, 0u) << "compatible vocabularies must pin-and-continue";
    EXPECT_EQ(server.current_model().version, "v2");
    submit_mixed(server, interleave(second, half), out, max_chunk);
    server.shutdown(out);

    // Per-version offline equivalence.
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const bool before_swap = s < half;
      const std::string sid = "s" + std::to_string(s);
      const auto& got = steps.by_session[sid];
      EXPECT_EQ(got.size(), sessions[s].size()) << sid;
      if (got.size() != sessions[s].size()) continue;
      core::OnlineMonitor monitor(before_swap ? *detector_ : detector_v2(), config.monitor);
      for (std::size_t i = 0; i < sessions[s].size(); ++i) {
        expect_steps_bit_identical(got[i], monitor.observe(sessions[s][i]));
      }
    }
    std::vector<std::string> lines;
    lines.reserve(out.size());
    for (const auto& r : out) lines.push_back(r.line);
    return lines;
  };

  const auto baseline = replay(1, 1);
  // Reports are stamped with the version the session was *opened* under —
  // pre-swap sessions say v1 even though they report after the swap.
  std::size_t v1_reports = 0;
  std::size_t v2_reports = 0;
  for (const auto& line : baseline) {
    if (line.find("\"type\":\"session_report\"") == std::string::npos) continue;
    if (line.find("\"model_version\":\"v1\"") != std::string::npos) ++v1_reports;
    if (line.find("\"model_version\":\"v2\"") != std::string::npos) ++v2_reports;
  }
  EXPECT_EQ(v1_reports, half);
  EXPECT_EQ(v2_reports, sessions.size() - half);

  EXPECT_EQ(replay(3, 7), baseline);
  EXPECT_EQ(replay(8, 64), baseline);
}

TEST_F(ServeFixture, IncompatibleSwapFinishesOpenSessionsWithModelSwapReports) {
  ASSERT_NE(detector_->vocab().fingerprint(), detector_alt().vocab().fingerprint());
  ServeConfig config;
  config.shards = 3;
  config.idle_ttl_seconds = 1e9;
  ScoringServer server(versioned(*detector_, "v1"), config);
  ReportCollector reports;
  server.set_report_observer(reports.observer());
  const std::uint64_t rolled_before = serve_metrics().swap_sessions_rolled.value();
  const std::uint64_t evicted_before = serve_metrics().sessions_evicted.value();

  std::vector<OutputRecord> out;
  const std::string action = detector_->vocab().name(0);
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < 3; ++i) {
      Event e;
      e.user_id = "u";
      e.session_id = "roll" + std::to_string(s);
      e.action = action;
      ASSERT_TRUE(server.submit_sync(e, out));
    }
  }
  // Swap across a vocabulary change with five sessions open: every open
  // session is finished at the barrier — reported, never dropped.
  const auto stats = server.swap_model(versioned(detector_alt(), "v2"), out);
  EXPECT_EQ(stats.rolled_sessions, 5u);
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_EQ(serve_metrics().swap_sessions_rolled.value() - rolled_before, 5u);
  EXPECT_EQ(serve_metrics().sessions_evicted.value(), evicted_before)
      << "a model swap is not an eviction";
  ASSERT_EQ(reports.by_session.size(), 5u);
  for (const auto& [sid, entry] : reports.by_session) {
    EXPECT_EQ(entry.first, ReportReason::kModelSwap) << sid;
    EXPECT_EQ(entry.second.steps, 3u) << sid << " lost events at the barrier";
  }
  std::size_t swap_report_lines = 0;
  for (const auto& r : out) {
    if (r.line.find("\"reason\":\"model_swap\"") != std::string::npos) ++swap_report_lines;
  }
  EXPECT_EQ(swap_report_lines, 5u);

  // Traffic reopens under the new model and its vocabulary.
  Event fresh;
  fresh.user_id = "u";
  fresh.session_id = "fresh";
  fresh.action = detector_alt().vocab().name(0);
  EXPECT_TRUE(server.submit_sync(fresh, out));
  EXPECT_EQ(server.active_sessions(), 1u);
  server.shutdown(out);
}

// Shadow scoring is metrics-only: the active output stream must be
// byte-identical with the shadow attached, detached, or absent.
TEST_F(ServeFixture, ShadowScoringDoesNotPerturbActiveOutput) {
  const auto sessions = pick_sessions(8);
  const auto events = interleave(sessions);
  const auto replay = [&](const ShadowPlan* plan) {
    ServeConfig config;
    config.shards = 3;
    config.idle_ttl_seconds = 1e9;
    ScoringServer server(versioned(*detector_, "v1"), config);
    if (plan != nullptr) server.set_shadow(*plan);
    std::vector<OutputRecord> out;
    submit_mixed(server, events, out);
    server.shutdown(out);
    std::vector<std::string> lines;
    lines.reserve(out.size());
    for (const auto& r : out) lines.push_back(r.line);
    return lines;
  };

  const auto baseline = replay(nullptr);

  ShadowPlan plan;
  plan.detector = std::shared_ptr<const core::MisuseDetector>(std::shared_ptr<void>(),
                                                              &detector_v2());
  plan.version = "v2";
  plan.fraction = 1.0;
  const std::uint64_t steps_before = serve_metrics().shadow_steps.value();
  const std::uint64_t sessions_before = serve_metrics().shadow_sessions.value();
  EXPECT_EQ(replay(&plan), baseline) << "full shadow mirror perturbed the active stream";
  EXPECT_EQ(serve_metrics().shadow_steps.value() - steps_before, events.size());
  EXPECT_EQ(serve_metrics().shadow_sessions.value() - sessions_before, sessions.size());

  // Fraction 0: attached but sampling nothing — still byte-identical,
  // and the mirror never fires.
  plan.fraction = 0.0;
  const std::uint64_t zero_before = serve_metrics().shadow_steps.value();
  EXPECT_EQ(replay(&plan), baseline);
  EXPECT_EQ(serve_metrics().shadow_steps.value() - zero_before, 0u);
}

TEST_F(ServeFixture, SwapMetricsAndVersionGauge) {
  ServeConfig config;
  config.shards = 2;
  const std::uint64_t swaps_before = serve_metrics().swaps.value();
  const std::uint64_t pauses_before = serve_metrics().swap_pause_seconds.count();
  ScoringServer server(versioned(*detector_, "v1"), config);
  EXPECT_EQ(serve_metrics().model_version.value(), 1);
  std::vector<OutputRecord> out;
  const auto stats = server.swap_model(versioned(detector_v2(), "v2"), out);
  EXPECT_GE(stats.pause_seconds, 0.0);
  EXPECT_EQ(serve_metrics().model_version.value(), 2);
  EXPECT_EQ(serve_metrics().swaps.value() - swaps_before, 1u);
  EXPECT_EQ(serve_metrics().swap_pause_seconds.count() - pauses_before, 1u);
}

// The legacy (unversioned) constructor must keep its wire format: no
// model_version field anywhere, ever — WAL replay compatibility.
TEST_F(ServeFixture, UnversionedServerEmitsNoVersionField) {
  ServeConfig config;
  config.shards = 2;
  ScoringServer server(*detector_, config);
  std::vector<OutputRecord> out;
  Event e;
  e.user_id = "u";
  e.session_id = "plain";
  e.action = detector_->vocab().name(0);
  ASSERT_TRUE(server.submit_sync(e, out));
  server.shutdown(out);
  ASSERT_FALSE(out.empty());
  for (const auto& r : out) {
    EXPECT_EQ(r.line.find("\"model_version\""), std::string::npos) << r.line;
  }
}

}  // namespace
}  // namespace misuse::serve
