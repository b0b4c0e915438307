// Detector persistence round-trip as used by the serving path
// (misusedet_serve loads an archive saved after training): save -> load
// -> score equivalence, plus SerializeError coverage for truncated
// archives, wrong magic, and unsupported versions. Legacy archives with
// quantized weight sections are covered through the committed fixture
// tests/golden/detector_v3_int8.bin (tests/golden/detector.bin with an
// int8 section per cluster).
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "core/detector.hpp"
#include "core/monitor.hpp"
#include "synth/portal.hpp"
#include "temp_dir.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace misuse::core {
namespace {

class PersistenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 200;
    pc.users = 40;
    pc.action_count = 50;
    pc.seed = 7;
    store_ = new SessionStore(synth::Portal(pc).generate());
    DetectorConfig dc;
    dc.ensemble.topic_counts = {8, 10};
    dc.ensemble.iterations = 8;
    dc.expert.target_clusters = 3;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 8;
    dc.lm.epochs = 2;
    dc.lm.patience = 0;
    detector_ = new MisuseDetector(MisuseDetector::train(*store_, dc));
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    detector_->save(writer);
    archive_ = new std::string(out.str());
  }
  static void TearDownTestSuite() {
    delete detector_;
    delete store_;
    delete archive_;
    detector_ = nullptr;
    store_ = nullptr;
    archive_ = nullptr;
  }

  static MisuseDetector load_from(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    BinaryReader reader(in);
    return MisuseDetector::load(reader);
  }

  static SessionStore* store_;
  static MisuseDetector* detector_;
  static std::string* archive_;
};

SessionStore* PersistenceFixture::store_ = nullptr;
MisuseDetector* PersistenceFixture::detector_ = nullptr;
std::string* PersistenceFixture::archive_ = nullptr;

TEST_F(PersistenceFixture, SaveLoadPredictEquivalence) {
  const MisuseDetector loaded = load_from(*archive_);
  ASSERT_EQ(loaded.cluster_count(), detector_->cluster_count());
  EXPECT_EQ(loaded.vocab().names(), detector_->vocab().names());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < store_->size() && checked < 10; ++i) {
    if (store_->at(i).length() < 2) continue;
    ++checked;
    const auto a = detector_->predict(store_->at(i).view());
    const auto b = loaded.predict(store_->at(i).view());
    EXPECT_EQ(a.cluster, b.cluster);
    EXPECT_EQ(a.score.likelihoods, b.score.likelihoods);  // bit-exact
    EXPECT_EQ(a.score.losses, b.score.losses);
    EXPECT_EQ(a.score.accuracy, b.score.accuracy);
  }
  EXPECT_EQ(checked, 10u);
}

TEST_F(PersistenceFixture, SaveLoadOnlineMonitorEquivalence) {
  // The server-side regime: the loaded archive must drive OnlineMonitor
  // bit-identically to the in-memory detector.
  const MisuseDetector loaded = load_from(*archive_);
  const MonitorConfig config;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() < 4) continue;
    OnlineMonitor original(*detector_, config);
    OnlineMonitor reloaded(loaded, config);
    for (const int action : store_->at(i).view()) {
      const auto a = original.observe(action);
      const auto b = reloaded.observe(action);
      EXPECT_EQ(a.ocsvm_scores, b.ocsvm_scores);
      EXPECT_EQ(a.cluster_voted, b.cluster_voted);
      EXPECT_EQ(a.likelihood_voted, b.likelihood_voted);
      EXPECT_EQ(a.alarm, b.alarm);
    }
    break;  // one full session suffices; predict covers breadth
  }
}

TEST_F(PersistenceFixture, TruncatedArchiveThrows) {
  // Cutting the archive anywhere must throw SerializeError, never crash
  // or return a half-initialized detector.
  for (const double fraction : {0.0, 0.1, 0.5, 0.9}) {
    const auto cut = static_cast<std::size_t>(static_cast<double>(archive_->size()) * fraction);
    EXPECT_THROW((void)load_from(archive_->substr(0, cut)), SerializeError) << "cut=" << cut;
  }
  EXPECT_THROW((void)load_from(archive_->substr(0, archive_->size() - 1)), SerializeError);
}

TEST_F(PersistenceFixture, WrongMagicThrows) {
  std::string corrupt = *archive_;
  corrupt[0] = static_cast<char>(corrupt[0] ^ 0x5a);
  EXPECT_THROW((void)load_from(corrupt), SerializeError);
}

TEST_F(PersistenceFixture, WrongVersionThrows) {
  // Bytes 4..8 hold the archive version (little-endian, after the magic).
  std::string corrupt = *archive_;
  const std::uint32_t bogus = 9999;
  std::memcpy(corrupt.data() + 4, &bogus, sizeof(bogus));
  EXPECT_THROW((void)load_from(corrupt), SerializeError);
}

TEST_F(PersistenceFixture, GarbageArchiveThrows) {
  EXPECT_THROW((void)load_from(std::string(256, '\x7f')), SerializeError);
}

TEST_F(PersistenceFixture, LoadErrorsNameTheFailingSection) {
  // "unexpected end of stream" alone is useless at 3am; the error must
  // say *which* archive section broke.
  for (const double fraction : {0.0, 0.1, 0.5, 0.9}) {
    const auto cut = static_cast<std::size_t>(static_cast<double>(archive_->size()) * fraction);
    try {
      (void)load_from(archive_->substr(0, cut));
      FAIL() << "truncated archive loaded at cut=" << cut;
    } catch (const SerializeError& e) {
      EXPECT_NE(std::string(e.what()).find("section "), std::string::npos)
          << "cut=" << cut << ": " << e.what();
    }
  }
}

TEST_F(PersistenceFixture, LoadFileErrorsCarryThePath) {
  const std::string path = testing_support::test_temp_path("misusedet_persistence_truncated.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << archive_->substr(0, archive_->size() / 2);
  }
  try {
    (void)MisuseDetector::load_file(path);
    FAIL() << "truncated archive file loaded";
  } catch (const SerializeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("section "), std::string::npos) << what;
  }

  const std::string missing = testing_support::test_temp_path("misusedet_no_such_archive.bin");
  try {
    (void)MisuseDetector::load_file(missing);
    FAIL() << "missing archive file loaded";
  } catch (const SerializeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(missing), std::string::npos) << what;
    EXPECT_NE(what.find("cannot open file"), std::string::npos) << what;
  }
}

TEST_F(PersistenceFixture, HeaderCorruptionFailsTheFileCrc) {
  // A flip outside the per-cluster model sections (here: in the
  // vocabulary block right after magic+version) must be caught — by the
  // section parse if it lands on a length, else by the whole-file CRC
  // footer — never silently accepted.
  for (const std::size_t offset : {9u, 12u, 16u, 24u}) {
    std::string corrupt = *archive_;
    ASSERT_LT(offset, corrupt.size());
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    EXPECT_THROW((void)load_from(corrupt), SerializeError) << "offset=" << offset;
  }
}

TEST_F(PersistenceFixture, SingleByteCorruptionNeverCrashesAndNeverGoesUnnoticed) {
  // Sweep single-byte flips across the archive. Every flip must either
  // throw SerializeError or load a detector that still predicts; a flip
  // inside an LSTM section specifically must surface as a degraded
  // cluster, not silent model corruption.
  std::span<const int> probe;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() >= 4) {
      probe = store_->at(i).view();
      break;
    }
  }
  ASSERT_FALSE(probe.empty());
  std::size_t loaded_degraded = 0;
  std::size_t threw = 0;
  for (std::size_t step = 0; step < 24; ++step) {
    const std::size_t offset = archive_->size() / 24 * step + 7;
    if (offset >= archive_->size()) break;
    std::string corrupt = *archive_;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
    try {
      const MisuseDetector loaded = load_from(corrupt);
      // The flip landed inside a model section: the archive loads in
      // degraded form (or with a dead fallback) and must still score.
      if (loaded.degraded_cluster_count() > 0) ++loaded_degraded;
      (void)loaded.predict(probe);
    } catch (const SerializeError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0u) << "flips outside model sections must fail the file CRC";
  // The archive is dominated by LSTM weights, so the sweep is expected to
  // hit at least one LSTM section.
  EXPECT_GT(loaded_degraded, 0u) << "no flip produced a degraded load";
}

TEST_F(PersistenceFixture, InjectedLstmCorruptionDegradesToMarkovFallback) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  // Force the first cluster's LSTM section to read as corrupt: the
  // detector must come up degraded and route that cluster's scoring
  // through the Markov fallback instead of aborting the load.
  failpoints::configure("detector.load.lstm=nth:1");
  const MisuseDetector degraded = load_from(*archive_);
  failpoints::clear();
  ASSERT_EQ(degraded.degraded_cluster_count(), 1u);
  EXPECT_TRUE(degraded.cluster_degraded(0));
  EXPECT_EQ(degraded.cluster_count(), detector_->cluster_count());

  const MonitorConfig config;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() < 4) continue;
    OnlineMonitor monitor(degraded, config);
    SessionAccumulator acc;
    bool saw_degraded_step = false;
    for (const int action : store_->at(i).view()) {
      const auto step = monitor.observe(action);
      // The per-step flag is exactly "the voted cluster runs on the
      // Markov fallback".
      EXPECT_EQ(step.degraded, degraded.cluster_degraded(step.cluster_voted));
      saw_degraded_step = saw_degraded_step || step.degraded;
      acc.add(step);
    }
    EXPECT_EQ(acc.report().degraded, saw_degraded_step);
    break;
  }
}

// --- archive v3: legacy quantized weight sections ----------------------

const std::string kGoldenDir = MISUSEDET_GOLDEN_DIR;

std::string read_golden(const std::string& name) {
  std::ifstream in(kGoldenDir + "/" + name, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_FALSE(buffer.str().empty()) << "missing fixture tests/golden/" << name;
  return buffer.str();
}

// The float archive and its int8-quantized twin, published by an older
// release (`misusedet_registry publish --quantize=int8`).
const std::string& float_archive() {
  static const std::string bytes = read_golden("detector.bin");
  return bytes;
}
const std::string& int8_archive() {
  static const std::string bytes = read_golden("detector_v3_int8.bin");
  return bytes;
}

// The quantized payload begins with its "IMQT" magic; locating it in the
// raw archive gives a byte offset inside the (CRC-protected) quant
// section without hard-coding the layout of everything before it. The
// section's u64 length and the cluster's marker byte sit right before.
std::size_t first_quant_payload(const std::string& archive) {
  const std::size_t at = archive.find("IMQT");
  EXPECT_NE(at, std::string::npos) << "no quantized section in archive";
  return at;
}
constexpr std::size_t kMarkerBeforePayload = 1 + sizeof(std::uint64_t);

// Scores the same random action streams through both detectors' online
// monitors and requires bit-identical verdicts.
void expect_same_scores(const MisuseDetector& a, const MisuseDetector& b) {
  ASSERT_EQ(a.vocab().size(), b.vocab().size());
  const MonitorConfig config;
  Rng rng(4);
  for (int session = 0; session < 3; ++session) {
    OnlineMonitor ma(a, config);
    OnlineMonitor mb(b, config);
    for (int step = 0; step < 20; ++step) {
      const int action = static_cast<int>(rng.uniform_index(a.vocab().size()));
      const auto ra = ma.observe(action);
      const auto rb = mb.observe(action);
      EXPECT_EQ(ra.ocsvm_scores, rb.ocsvm_scores);
      EXPECT_EQ(ra.cluster_voted, rb.cluster_voted);
      EXPECT_EQ(ra.likelihood_voted, rb.likelihood_voted);
      EXPECT_EQ(ra.alarm, rb.alarm);
    }
  }
}

TEST_F(PersistenceFixture, V3ArchiveLoadsWithQuantizationDisabled) {
  // The int8 sections are checked and dropped: the legacy archive scores
  // with the float weights, bit-identically to the float archive.
  ASSERT_NE(int8_archive().find("IMQT"), std::string::npos);
  const MisuseDetector legacy = load_from(int8_archive());
  const MisuseDetector plain = load_from(float_archive());
  EXPECT_EQ(legacy.degraded_cluster_count(), 0u);
  EXPECT_EQ(legacy.cluster_count(), plain.cluster_count());
  expect_same_scores(legacy, plain);
}

TEST_F(PersistenceFixture, QuantizedArchiveRoundTripSavesTheFloatArchive) {
  // save() writes zero quant markers, so re-saving the legacy archive
  // reproduces the float archive byte for byte.
  const MisuseDetector legacy = load_from(int8_archive());
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out);
  legacy.save(writer);
  EXPECT_EQ(out.str(), float_archive());
}

TEST_F(PersistenceFixture, CorruptQuantSectionFallsBackToFloatWithoutCrashing) {
  std::string archive = int8_archive();
  const std::size_t payload = first_quant_payload(archive);
  ASSERT_LT(payload + 20, archive.size());
  archive[payload + 20] ^= 0x40;  // bit-rot inside the quant payload

  // The section fails its CRC; it was never going to be used, so the
  // load succeeds and scores exactly like the float archive.
  const MisuseDetector loaded = load_from(archive);
  EXPECT_EQ(loaded.degraded_cluster_count(), 0u);
  expect_same_scores(loaded, load_from(float_archive()));
}

TEST_F(PersistenceFixture, TruncationInsideQuantSectionThrows) {
  std::string archive = int8_archive();
  const std::size_t payload = first_quant_payload(archive);
  archive.resize(payload + 8);  // structural damage, not bit-rot
  EXPECT_THROW((void)load_from(archive), SerializeError);
}

TEST_F(PersistenceFixture, UnknownQuantMarkerThrows) {
  // The marker decides whether a section follows; a value no release
  // ever wrote leaves the rest of the archive unparseable.
  std::string archive = int8_archive();
  const std::size_t marker = first_quant_payload(archive) - kMarkerBeforePayload;
  ASSERT_EQ(archive[marker], 1) << "fixture marker is not int8";
  archive[marker] = 3;
  try {
    (void)load_from(archive);
    FAIL() << "archive with an unknown quant marker loaded";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown quantization marker"), std::string::npos)
        << e.what();
  }
}

TEST_F(PersistenceFixture, AllLstmSectionsCorruptStillServesFromMarkov) {
  if (!failpoints::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  failpoints::configure("detector.load.lstm=always");
  const MisuseDetector degraded = load_from(*archive_);
  failpoints::clear();
  EXPECT_EQ(degraded.degraded_cluster_count(), degraded.cluster_count());
  std::span<const int> probe;
  for (std::size_t i = 0; i < store_->size(); ++i) {
    if (store_->at(i).length() >= 4) {
      probe = store_->at(i).view();
      break;
    }
  }
  ASSERT_FALSE(probe.empty());
  const auto verdict = degraded.predict(probe);
  EXPECT_LT(verdict.cluster, degraded.cluster_count());
  EXPECT_EQ(verdict.score.likelihoods.size(), probe.size() - 1);
}

}  // namespace
}  // namespace misuse::core
