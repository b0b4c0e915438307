// Crash safety of the streaming server (serve/wal.hpp): WAL record
// framing, torn-tail handling, snapshot round-trips, and the recovery
// invariant — a server restarted after a crash produces end-of-session
// reports identical to an uninterrupted run, at any shard count.
#include "serve/wal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "synth/portal.hpp"
#include "util/failpoint.hpp"
#include "temp_dir.hpp"

namespace misuse::serve {
namespace {

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = testing_support::test_temp_path("misusedet_wal_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Event make_event(const std::string& user, const std::string& session, const std::string& action,
                 double t) {
  Event e;
  e.user_id = user;
  e.session_id = session;
  e.action = action;
  e.timestamp = t;
  e.has_timestamp = true;
  return e;
}

TEST(WalFormat, EventRecordRoundtrip) {
  const std::string dir = scratch_dir("roundtrip");
  const std::string path = wal_path(dir, 0);
  {
    WalWriter writer(path, 1);
    ASSERT_TRUE(writer.ok());
    EXPECT_TRUE(writer.append(encode_event_record(make_event("u1", "s1", "ActionLogin", 1.5), 7)));
    EXPECT_TRUE(writer.append(encode_sweep_record(99.0, 8)));
    Event no_ts = make_event("u2", "s2", "3", 0.0);
    no_ts.has_timestamp = false;
    EXPECT_TRUE(writer.append(encode_event_record(no_ts, 9)));
  }
  const auto records = read_wal(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, WalRecord::kEvent);
  EXPECT_EQ(records[0].seq, 7u);
  EXPECT_EQ(records[0].event.user_id, "u1");
  EXPECT_EQ(records[0].event.session_id, "s1");
  EXPECT_EQ(records[0].event.action, "ActionLogin");
  EXPECT_TRUE(records[0].event.has_timestamp);
  EXPECT_EQ(records[0].event.timestamp, 1.5);
  EXPECT_EQ(records[1].type, WalRecord::kSweep);
  EXPECT_EQ(records[1].seq, 8u);
  EXPECT_EQ(records[1].sweep_now, 99.0);
  EXPECT_FALSE(records[2].event.has_timestamp);
}

TEST(WalFormat, TornTailIsDroppedCleanly) {
  const std::string dir = scratch_dir("torn");
  const std::string path = wal_path(dir, 0);
  {
    WalWriter writer(path, 1);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          writer.append(encode_event_record(make_event("u", "s", "a", i), i + 1)));
    }
  }
  // Tear the last record: a crash mid-append leaves a short tail.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 3);
  const std::uint64_t torn_before = serve_metrics().wal_torn_records.value();
  const auto records = read_wal(path);
  EXPECT_EQ(records.size(), 4u);
  EXPECT_EQ(serve_metrics().wal_torn_records.value() - torn_before, 1u);
}

TEST(WalFormat, CorruptPayloadStopsScan) {
  const std::string dir = scratch_dir("corrupt");
  const std::string path = wal_path(dir, 0);
  {
    WalWriter writer(path, 1);
    ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "a", 0.0), 1)));
    ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "b", 1.0), 2)));
  }
  // Flip one payload byte of the second record: its CRC must reject it.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(-6, std::ios::end);
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(-6, std::ios::end);
  byte = static_cast<char>(byte ^ 0x40);
  file.write(&byte, 1);
  file.close();
  EXPECT_EQ(read_wal(path).size(), 1u);
}

TEST(WalFormat, MissingFileReadsEmpty) {
  EXPECT_TRUE(read_wal(scratch_dir("missing") + "/shard-0.wal").empty());
}

TEST(WalFormat, ResetTruncates) {
  const std::string dir = scratch_dir("reset");
  const std::string path = wal_path(dir, 0);
  WalWriter writer(path, 1);
  ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "a", 0.0), 1)));
  writer.reset();
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
  ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "b", 1.0), 2)));
  const auto records = read_wal(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event.action, "b");
}

TEST(WalSnapshot, RoundtripAndAtomicity) {
  const std::string dir = scratch_dir("snap");
  ShardSnapshot snapshot;
  snapshot.watermark = 41;
  snapshot.clock = 123.5;
  snapshot.sessions.push_back({"u1", "s1", {1, 2, 3}, 10.0});
  snapshot.sessions.push_back({"u2", "s2", {}, 11.0});
  const std::string path = snapshot_path(dir, 0);
  ASSERT_TRUE(write_snapshot(path, snapshot));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // tmp+rename, no residue
  const auto loaded = read_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->watermark, 41u);
  EXPECT_EQ(loaded->clock, 123.5);
  ASSERT_EQ(loaded->sessions.size(), 2u);
  EXPECT_EQ(loaded->sessions[0].user_id, "u1");
  EXPECT_EQ(loaded->sessions[0].actions, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loaded->sessions[1].last_seen, 11.0);
}

TEST(WalSnapshot, CorruptSnapshotIsIgnored) {
  const std::string dir = scratch_dir("snapbad");
  ShardSnapshot snapshot;
  snapshot.watermark = 1;
  snapshot.sessions.push_back({"u", "s", {5}, 1.0});
  const std::string path = snapshot_path(dir, 0);
  ASSERT_TRUE(write_snapshot(path, snapshot));
  // Flip a byte in the middle: the CRC footer must reject the file.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) / 2));
  byte = static_cast<char>(byte ^ 0x01);
  file.write(&byte, 1);
  file.close();
  EXPECT_FALSE(read_snapshot(path).has_value());
  EXPECT_FALSE(read_snapshot(dir + "/absent.snap").has_value());
}

TEST(WalManifest, Roundtrip) {
  const std::string dir = scratch_dir("manifest");
  EXPECT_FALSE(read_manifest(dir).has_value());
  ASSERT_TRUE(write_manifest(dir, 7));
  EXPECT_EQ(read_manifest(dir), 7u);
}

TEST(WalManifest, StaleShardFilesAreRemoved) {
  const std::string dir = scratch_dir("stale");
  for (std::size_t k = 0; k < 6; ++k) {
    std::ofstream(wal_path(dir, k)) << "x";
    std::ofstream(snapshot_path(dir, k)) << "x";
  }
  remove_stale_shard_files(dir, 2);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_EQ(std::filesystem::exists(wal_path(dir, k)), k < 2) << k;
    EXPECT_EQ(std::filesystem::exists(snapshot_path(dir, k)), k < 2) << k;
  }
}

// ---------------------------------------------------------------------------
// Recovery invariant tests against a small trained detector.

class WalRecoveryFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 220;
    pc.users = 40;
    pc.action_count = 60;
    pc.seed = 42;
    synth::Portal portal(pc);
    store_ = new SessionStore(portal.generate());
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
    detector_ = nullptr;
    store_ = nullptr;
  }

  /// A round-robin interleaved trace over the first sessions with
  /// 2..40 actions.
  static std::vector<Event> make_trace(std::size_t session_count) {
    std::vector<std::span<const int>> sessions;
    for (std::size_t i = 0; i < store_->size() && sessions.size() < session_count; ++i) {
      if (store_->at(i).length() >= 2 && store_->at(i).length() <= 40) {
        sessions.push_back(store_->at(i).view());
      }
    }
    std::vector<Event> events;
    std::vector<std::size_t> cursor(sessions.size(), 0);
    double t = 0.0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        if (cursor[s] >= sessions[s].size()) continue;
        events.push_back(make_event("u" + std::to_string(s % 5), "s" + std::to_string(s),
                                    detector_->vocab().name(sessions[s][cursor[s]]), t));
        t += 1.0;
        ++cursor[s];
        progressed = true;
      }
    }
    return events;
  }

  /// Feeds `events` into `server` in batches of up to 256 (stdin mode's
  /// default --batch) and appends output.
  static void feed(ScoringServer& server, const std::vector<Event>& events,
                   std::vector<OutputRecord>& out) {
    const std::span<const Event> all(events);
    for (std::size_t begin = 0; begin < all.size(); begin += 256) {
      server.submit_batch(all.subspan(begin, std::min<std::size_t>(256, all.size() - begin)), out);
    }
  }

  /// The sorted multiset of session_report lines in `out` — the payload
  /// of the recovery invariant (report lines carry no seq numbers).
  static std::vector<std::string> report_lines(const std::vector<OutputRecord>& out) {
    std::vector<std::string> lines;
    for (const auto& r : out) {
      if (r.line.find("\"type\":\"session_report\"") != std::string::npos) {
        lines.push_back(r.line);
      }
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  }

  /// Uninterrupted reference run (no WAL).
  static std::vector<std::string> baseline_reports(const std::vector<Event>& events,
                                                   std::size_t shards) {
    ServeConfig config;
    config.shards = shards;
    config.idle_ttl_seconds = 1e9;
    ScoringServer server(*detector_, config);
    std::vector<OutputRecord> out;
    feed(server, events, out);
    server.shutdown(out);
    return report_lines(out);
  }

  static SessionStore* store_;
  static core::MisuseDetector* detector_;
};

SessionStore* WalRecoveryFixture::store_ = nullptr;
core::MisuseDetector* WalRecoveryFixture::detector_ = nullptr;

// The tentpole invariant: crash after an arbitrary prefix, restart,
// continue the stream — the end-of-session reports equal an
// uninterrupted run's, even when the shard count changes across the
// restart.
TEST_F(WalRecoveryFixture, CrashRecoveryReportsMatchUninterruptedRun) {
  const auto events = make_trace(10);
  ASSERT_GT(events.size(), 40u);
  const auto baseline = baseline_reports(events, 3);

  for (const auto& [shards_before, shards_after] : std::vector<std::pair<std::size_t,
                                                                         std::size_t>>{
           {3, 3}, {3, 5}, {4, 1}}) {
    const std::string dir = scratch_dir("recover_" + std::to_string(shards_before) + "_" +
                                        std::to_string(shards_after));
    const std::size_t cut = events.size() / 2;
    {
      ServeConfig config;
      config.shards = shards_before;
      config.idle_ttl_seconds = 1e9;
      config.wal_dir = dir;
      config.wal_sync_every = 1;
      ScoringServer crashed(*detector_, config);
      std::vector<OutputRecord> out;
      feed(crashed, std::vector<Event>(events.begin(),
                                       events.begin() + static_cast<std::ptrdiff_t>(cut)),
           out);
      // No shutdown(): the server "crashes" here with its WAL on disk.
    }
    ServeConfig config;
    config.shards = shards_after;
    config.idle_ttl_seconds = 1e9;
    config.wal_dir = dir;
    config.wal_sync_every = 1;
    ScoringServer restarted(*detector_, config);
    std::vector<OutputRecord> out;
    const std::size_t replayed = restarted.recover(out);
    EXPECT_EQ(replayed, cut) << "every applied event must replay";
    feed(restarted,
         std::vector<Event>(events.begin() + static_cast<std::ptrdiff_t>(cut), events.end()),
         out);
    restarted.shutdown(out);
    EXPECT_EQ(report_lines(out), baseline)
        << shards_before << " -> " << shards_after << " shards";
  }
}

// A checkpoint sets the watermark: recovery replays only WAL records past
// it, on top of the snapshotted sessions.
TEST_F(WalRecoveryFixture, CheckpointBoundsReplayToTheWatermark) {
  const auto events = make_trace(8);
  const auto baseline = baseline_reports(events, 2);
  const std::string dir = scratch_dir("watermark");
  const std::size_t checkpoint_at = events.size() / 3;
  const std::size_t crash_at = 2 * events.size() / 3;
  {
    ServeConfig config;
    config.shards = 2;
    config.idle_ttl_seconds = 1e9;
    config.wal_dir = dir;
    config.wal_sync_every = 1;
    ScoringServer crashed(*detector_, config);
    std::vector<OutputRecord> out;
    feed(crashed,
         std::vector<Event>(events.begin(),
                            events.begin() + static_cast<std::ptrdiff_t>(checkpoint_at)),
         out);
    crashed.checkpoint();
    feed(crashed,
         std::vector<Event>(events.begin() + static_cast<std::ptrdiff_t>(checkpoint_at),
                            events.begin() + static_cast<std::ptrdiff_t>(crash_at)),
         out);
  }
  ServeConfig config;
  config.shards = 2;
  config.idle_ttl_seconds = 1e9;
  config.wal_dir = dir;
  ScoringServer restarted(*detector_, config);
  std::vector<OutputRecord> out;
  const std::size_t replayed = restarted.recover(out);
  EXPECT_EQ(replayed, crash_at - checkpoint_at)
      << "snapshotted events must not replay a second time";
  EXPECT_GT(restarted.active_sessions(), 0u);
  feed(restarted,
       std::vector<Event>(events.begin() + static_cast<std::ptrdiff_t>(crash_at), events.end()),
       out);
  restarted.shutdown(out);
  EXPECT_EQ(report_lines(out), baseline);
}

// Resume-replay: the producer resends the whole stream from origin after
// the crash; already-applied events are consumed silently and the final
// reports still match the uninterrupted run.
TEST_F(WalRecoveryFixture, ResumeReplayDedupsResentPrefix) {
  const auto events = make_trace(9);
  const auto baseline = baseline_reports(events, 3);
  const std::string dir = scratch_dir("resume");
  const std::size_t cut = events.size() / 2;
  {
    ServeConfig config;
    config.shards = 3;
    config.idle_ttl_seconds = 1e9;
    config.wal_dir = dir;
    config.wal_sync_every = 1;
    ScoringServer crashed(*detector_, config);
    std::vector<OutputRecord> out;
    feed(crashed,
         std::vector<Event>(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(cut)),
         out);
  }
  ServeConfig config;
  config.shards = 3;
  config.idle_ttl_seconds = 1e9;
  config.wal_dir = dir;
  config.resume_replay = true;
  ScoringServer restarted(*detector_, config);
  std::vector<OutputRecord> out;
  restarted.recover(out);
  const std::uint64_t skipped_before = serve_metrics().replay_skipped.value();
  feed(restarted, events, out);  // the full stream again, from origin
  restarted.shutdown(out);
  EXPECT_EQ(serve_metrics().replay_skipped.value() - skipped_before, cut)
      << "every already-applied event must be skipped exactly once";
  EXPECT_EQ(report_lines(out), baseline);
}

// Graceful shutdown leaves an empty checkpoint behind: a restart recovers
// nothing and reports nothing twice.
TEST_F(WalRecoveryFixture, GracefulShutdownLeavesNothingToRecover) {
  const auto events = make_trace(5);
  const std::string dir = scratch_dir("graceful");
  {
    ServeConfig config;
    config.shards = 2;
    config.wal_dir = dir;
    ScoringServer server(*detector_, config);
    std::vector<OutputRecord> out;
    feed(server, events, out);
    server.shutdown(out);
  }
  ServeConfig config;
  config.shards = 2;
  config.wal_dir = dir;
  ScoringServer restarted(*detector_, config);
  std::vector<OutputRecord> out;
  EXPECT_EQ(restarted.recover(out), 0u);
  EXPECT_EQ(restarted.active_sessions(), 0u);
  EXPECT_TRUE(report_lines(out).empty());
}

// TTL evictions are durable: a sweep logged before the crash re-runs at
// the same position during replay, so an evicted session stays evicted.
TEST_F(WalRecoveryFixture, SweepRecordsReplayEvictions) {
  const std::string dir = scratch_dir("sweep");
  const std::string action = detector_->vocab().name(0);
  {
    ServeConfig config;
    config.shards = 2;
    config.idle_ttl_seconds = 10.0;
    config.wal_dir = dir;
    config.wal_sync_every = 1;
    ScoringServer crashed(*detector_, config);
    std::vector<OutputRecord> out;
    feed(crashed, {make_event("u", "old", action, 0.0), make_event("u", "old", action, 1.0),
                   make_event("u", "fresh", action, 100.0)},
         out);
    crashed.sweep(out);  // evicts "old" (idle 99s > 10s TTL), logs kSweep
    EXPECT_EQ(crashed.active_sessions(), 1u);
  }
  ServeConfig config;
  config.shards = 2;
  config.idle_ttl_seconds = 10.0;
  config.wal_dir = dir;
  ScoringServer restarted(*detector_, config);
  std::vector<OutputRecord> out;
  restarted.recover(out);
  EXPECT_EQ(restarted.active_sessions(), 1u) << "the evicted session must not resurrect";
}

// Injected WAL failures degrade durability, never availability: scoring
// continues when appends or fsyncs fail.
TEST_F(WalRecoveryFixture, InjectedWalFailuresDoNotStopScoring) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = scratch_dir("walfail");
  failpoints::configure("wal.append=every:2;wal.fsync=always");
  {
    ServeConfig config;
    config.shards = 1;
    config.wal_dir = dir;
    config.wal_sync_every = 1;
    ScoringServer server(*detector_, config);
    std::vector<OutputRecord> out;
    const auto events = make_trace(4);
    feed(server, events, out);
    EXPECT_GT(server.active_sessions(), 0u);
    std::size_t steps = 0;
    for (const auto& r : out) {
      if (r.line.find("\"type\":\"step\"") != std::string::npos) ++steps;
    }
    EXPECT_EQ(steps, events.size()) << "every event must still score";
  }
  failpoints::clear();
}

// Injected snapshot failure: the WAL is NOT truncated, so recovery still
// has the full log to replay from.
TEST_F(WalRecoveryFixture, SnapshotFailureKeepsWalForReplay) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const auto events = make_trace(6);
  const auto baseline = baseline_reports(events, 2);
  const std::string dir = scratch_dir("snapfail");
  const std::size_t cut = events.size() / 2;
  {
    ServeConfig config;
    config.shards = 2;
    config.idle_ttl_seconds = 1e9;
    config.wal_dir = dir;
    config.wal_sync_every = 1;
    ScoringServer crashed(*detector_, config);
    std::vector<OutputRecord> out;
    feed(crashed,
         std::vector<Event>(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(cut)),
         out);
    failpoints::configure("wal.snapshot=always");
    crashed.checkpoint();  // snapshots fail; WALs must survive
    failpoints::clear();
  }
  ServeConfig config;
  config.shards = 2;
  config.idle_ttl_seconds = 1e9;
  config.wal_dir = dir;
  ScoringServer restarted(*detector_, config);
  std::vector<OutputRecord> out;
  EXPECT_EQ(restarted.recover(out), cut);
  feed(restarted,
       std::vector<Event>(events.begin() + static_cast<std::ptrdiff_t>(cut), events.end()),
       out);
  restarted.shutdown(out);
  EXPECT_EQ(report_lines(out), baseline);
}

// ---------------------------------------------------------------------------
// WalTailer: the continuous-learning collector's incremental reader over a
// live WAL directory.

TEST(WalTailer, IncrementalPollsDeliverEachRecordExactlyOnce) {
  const std::string dir = scratch_dir("tail_inc");
  ASSERT_TRUE(write_manifest(dir, 2));
  WalWriter w0(wal_path(dir, 0), 1);
  WalWriter w1(wal_path(dir, 1), 1);
  ASSERT_TRUE(w0.append(encode_event_record(make_event("u1", "s1", "a", 1.0), 1)));
  ASSERT_TRUE(w1.append(encode_event_record(make_event("u2", "s2", "b", 2.0), 2)));
  ASSERT_TRUE(w0.flush());
  ASSERT_TRUE(w1.flush());

  WalTailer tailer(dir);
  std::vector<WalRecord> out;
  EXPECT_EQ(tailer.poll(out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 1u);  // merged ascending across shards
  EXPECT_EQ(out[1].seq, 2u);
  EXPECT_EQ(tailer.poll(out), 0u) << "already-delivered records re-polled";

  ASSERT_TRUE(w0.append(encode_sweep_record(50.0, 3)));
  ASSERT_TRUE(w0.flush());
  EXPECT_EQ(tailer.poll(out), 1u);
  EXPECT_EQ(out.back().seq, 3u);
  EXPECT_EQ(out.back().type, WalRecord::kSweep);
  EXPECT_EQ(tailer.last_seq(), 3u);
}

TEST(WalTailer, StartsBeforeTheServerWritesAnything) {
  const std::string dir = scratch_dir("tail_early");
  WalTailer tailer(dir);  // no MANIFEST yet
  std::vector<WalRecord> out;
  EXPECT_EQ(tailer.poll(out), 0u);

  ASSERT_TRUE(write_manifest(dir, 1));
  WalWriter writer(wal_path(dir, 0), 1);
  ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "a", 1.0), 1)));
  ASSERT_TRUE(writer.flush());
  EXPECT_EQ(tailer.poll(out), 1u);
}

TEST(WalTailer, TornTailIsRetriedWholeNotSkipped) {
  const std::string dir = scratch_dir("tail_torn");
  ASSERT_TRUE(write_manifest(dir, 1));
  const std::string path = wal_path(dir, 0);
  WalWriter writer(path, 1);
  ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "a", 1.0), 1)));
  ASSERT_TRUE(writer.flush());

  // The writer mid-append: only half of the next frame is on disk.
  const std::string frame = encode_event_record(make_event("u", "s", "b", 2.0), 2);
  {
    std::ofstream tail(path, std::ios::binary | std::ios::app);
    tail.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }
  WalTailer tailer(dir);
  std::vector<WalRecord> out;
  EXPECT_EQ(tailer.poll(out), 1u);  // the complete frame only
  EXPECT_EQ(out[0].seq, 1u);

  // The append completes: the whole frame must arrive on the next poll.
  {
    std::ofstream tail(path, std::ios::binary | std::ios::app);
    tail.write(frame.data() + frame.size() / 2,
               static_cast<std::streamsize>(frame.size() - frame.size() / 2));
  }
  EXPECT_EQ(tailer.poll(out), 1u);
  EXPECT_EQ(out.back().seq, 2u);
}

TEST(WalTailer, CheckpointTruncationDoesNotRedeliver) {
  const std::string dir = scratch_dir("tail_trunc");
  ASSERT_TRUE(write_manifest(dir, 1));
  WalWriter writer(wal_path(dir, 0), 1);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "a", 1.0), seq)));
  }
  ASSERT_TRUE(writer.flush());
  WalTailer tailer(dir);
  std::vector<WalRecord> out;
  EXPECT_EQ(tailer.poll(out), 5u);

  // Checkpoint: the server truncates the log, then recovery-style
  // re-logging repeats seq 5 before new records land. The shrunk file
  // resets the byte cursor; the seq watermark drops the replay.
  writer.reset();
  ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "a", 1.0), 5)));
  ASSERT_TRUE(writer.append(encode_event_record(make_event("u", "s", "b", 2.0), 6)));
  ASSERT_TRUE(writer.flush());
  EXPECT_EQ(tailer.poll(out), 1u) << "the replayed record leaked through";
  EXPECT_EQ(out.back().seq, 6u);
  EXPECT_EQ(tailer.last_seq(), 6u);
}

}  // namespace
}  // namespace misuse::serve
