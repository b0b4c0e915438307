// Golden-file regression test for the serving path: a committed tiny
// trained detector plus a committed interleaved NDJSON trace, replayed
// through the installed misusedet_serve binary, must reproduce the
// committed output byte for byte. This pins the entire chain — archive
// loading, engine packing, the inference kernels (bit-identical to the
// reference forward by contract), routing, alarm policy, JSON rendering
// — against silent drift.
//
// The goldens are tied to the floating-point contraction behavior of the
// build that generated them (same compiler family and -march flags as
// CI). To regenerate after an intentional behavior change:
//
//   MISUSEDET_REGEN_GOLDEN=1 ./tests/test_golden_serve
//
// which retrains the tiny detector, rewrites the trace, and re-captures
// the expected output in tests/golden/.
//
// tests/golden/detector_v3_int8.bin is detector.bin as an older release
// published it with `misusedet_registry publish --quantize=int8`: the
// same archive plus an int8 weight section per cluster. The loader
// drops those sections, so it must serve the same bytes as detector.bin.
// It cannot be regenerated (the quantizer is gone); regenerating
// detector.bin orphans it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "synth/portal.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "temp_dir.hpp"

namespace misuse::serve {
namespace {

const std::string kGoldenDir = MISUSEDET_GOLDEN_DIR;
const std::string kDetectorPath = kGoldenDir + "/detector.bin";
const std::string kInt8DetectorPath = kGoldenDir + "/detector_v3_int8.bin";
const std::string kTracePath = kGoldenDir + "/trace.ndjson";
const std::string kExpectedPath = kGoldenDir + "/expected_output.ndjson";

bool regen_requested() { return std::getenv("MISUSEDET_REGEN_GOLDEN") != nullptr; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  ASSERT_TRUE(out.good()) << "failed writing " << path;
}

// Small, fast to train, deterministic: the archive is committed, so the
// exact weights travel with the repo — training only runs under regen.
void regenerate_detector_and_trace() {
  synth::PortalConfig pc;
  pc.sessions = 150;
  pc.action_count = 40;
  pc.seed = 33;
  const SessionStore store = synth::Portal(pc).generate();
  core::DetectorConfig dc;
  dc.ensemble.topic_counts = {8, 10};
  dc.ensemble.iterations = 8;
  dc.expert.target_clusters = 3;
  dc.expert.min_cluster_sessions = 5;
  dc.lm.hidden = 8;
  dc.lm.epochs = 2;
  dc.lm.patience = 0;
  const core::MisuseDetector detector = core::MisuseDetector::train(store, dc);
  std::filesystem::create_directories(kGoldenDir);
  std::ofstream out(kDetectorPath, std::ios::binary);
  BinaryWriter writer(out);
  detector.save(writer);
  ASSERT_TRUE(out.good());

  // Interleaved trace: 8 concurrent sessions, numeric action ids drawn
  // from the detector vocabulary, event-time timestamps strictly
  // increasing so eviction behavior is a pure function of the trace.
  const std::size_t vocab = detector.vocab().size();
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kSteps = 30;
  Rng rng(77);
  std::ostringstream trace;
  double timestamp = 1000.0;
  for (std::size_t t = 0; t < kSteps; ++t) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      const auto action = rng.uniform_index(vocab);
      trace << "{\"user_id\":\"user" << s % 4 << "\",\"session_id\":\"sess" << s
            << "\",\"action\":\"" << action << "\",\"timestamp\":" << timestamp << "}\n";
      timestamp += 1.0;
    }
  }
  write_file(kTracePath, trace.str());
}

// Byte identity, with a readable first-divergence report on mismatch.
void expect_same_lines(const std::string& expected, const std::string& actual) {
  if (actual == expected) return;
  std::istringstream a(actual), e(expected);
  std::string al, el;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, al));
    const bool ge = static_cast<bool>(std::getline(e, el));
    if (!ga && !ge) break;
    ASSERT_EQ(el, al) << "first divergence at line " << line;
    ASSERT_EQ(ge, ga) << "line count diverges at line " << line;
  }
  FAIL() << "outputs differ in bytes but not line content (line endings?)";
}

std::string run_serve_scalar(const std::string& out_path,
                             const std::string& model_path = kDetectorPath) {
  const std::string command = std::string(MISUSEDET_SERVE_BIN) + " --model=" + model_path +
                              " --shards=1 --threads=1 --batch=64 < " +
                              kTracePath + " > " + out_path + " 2> " + out_path + ".err";
  const int rc = std::system(command.c_str());
  EXPECT_EQ(rc, 0) << "serve exited " << rc << "\nstderr:\n" << read_file(out_path + ".err");
  return read_file(out_path);
}

TEST(GoldenServe, ScalarOutputByteIdenticalToCommittedGolden) {
#if defined(__FMA__)
  // The committed goldens are generated by the portable build (CI's
  // -DMISUSE_NATIVE=OFF): with FMA available the compiler contracts the
  // scalar forward's mul+add chains differently, so a -march=native
  // build legitimately produces different bytes. The cross-run
  // determinism test below still covers such builds.
  GTEST_SKIP() << "FMA-contracted build; goldens are pinned to the portable (CI) build";
#endif
  if (regen_requested()) regenerate_detector_and_trace();
  ASSERT_TRUE(std::filesystem::exists(kDetectorPath))
      << kDetectorPath << " missing — regenerate with MISUSEDET_REGEN_GOLDEN=1";
  ASSERT_TRUE(std::filesystem::exists(kTracePath))
      << kTracePath << " missing — regenerate with MISUSEDET_REGEN_GOLDEN=1";

  const std::string out_path = testing_support::test_temp_path("misusedet_golden_out.ndjson");
  const std::string actual = run_serve_scalar(out_path);
  ASSERT_FALSE(actual.empty()) << "serve produced no output";

  if (regen_requested()) {
    write_file(kExpectedPath, actual);
    GTEST_SKIP() << "goldens regenerated; re-run without MISUSEDET_REGEN_GOLDEN to verify";
  }
  ASSERT_TRUE(std::filesystem::exists(kExpectedPath))
      << kExpectedPath << " missing — regenerate with MISUSEDET_REGEN_GOLDEN=1";
  expect_same_lines(read_file(kExpectedPath), actual);
}

// The legacy int8 archive, served with its quantized sections dropped,
// reproduces the float archive's output: the committed golden on the
// portable build, the same build's float run everywhere.
TEST(GoldenServe, LegacyInt8ArchiveServesTheFloatGolden) {
  if (regen_requested()) GTEST_SKIP() << "the int8 fixture is not regenerated";
  ASSERT_TRUE(std::filesystem::exists(kInt8DetectorPath)) << kInt8DetectorPath << " missing";
  const std::string actual = run_serve_scalar(
      testing_support::test_temp_path("misusedet_golden_int8.ndjson"), kInt8DetectorPath);
  ASSERT_FALSE(actual.empty()) << "serve produced no output";
#if !defined(__FMA__)
  expect_same_lines(read_file(kExpectedPath), actual);
#endif
  expect_same_lines(
      run_serve_scalar(testing_support::test_temp_path("misusedet_golden_float.ndjson")), actual);
}

// The scalar engine contract makes two runs of the same build on the
// same trace trivially identical; this guards against nondeterminism
// creeping into the serving loop itself (map iteration order, timing-
// dependent eviction, uninitialized fields in rendered records).
TEST(GoldenServe, ScalarOutputStableAcrossRuns) {
  if (!std::filesystem::exists(kDetectorPath) || !std::filesystem::exists(kTracePath)) {
    GTEST_SKIP() << "goldens not generated yet";
  }
  const std::string first = run_serve_scalar(testing_support::test_temp_path("misusedet_golden_a.ndjson"));
  const std::string second = run_serve_scalar(testing_support::test_temp_path("misusedet_golden_b.ndjson"));
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace misuse::serve
