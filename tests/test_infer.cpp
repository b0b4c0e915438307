// Differential test harness for the inference engine (nn/infer/).
//
// The engine's contracts, in decreasing strictness:
//   * scalar kernels — BIT-identical to the training-grade reference
//     forward (NextActionModel::step_into), one-row and batched alike
//     (the scalar batch kernels reuse weight rows across the batch but
//     keep each row's operation sequence, and deferred heads recovered
//     by finish_probs equal the eager tail). Every determinism
//     guarantee in the repo (WAL replay, hot swap, server-vs-offline,
//     cross-session batches) leans on this.
//   * avx2 kernels — ULP-bounded against scalar per step (vectorized
//     exp approximation, FMA re-association); the fused batch kernels
//     (register-blocked broadcast-FMA) must sit in the same envelope.
//   * quantized weights — different weights entirely; gated by the
//     measured verdict-flip check (core/quant_gate.hpp).
//   * packing — a pure permutation; pack -> unpack is lossless.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/detector.hpp"
#include "core/quant_gate.hpp"
#include "nn/dense.hpp"
#include "nn/infer/dispatch.hpp"
#include "nn/infer/engine.hpp"
#include "nn/infer/packed.hpp"
#include "nn/infer/quant.hpp"
#include "nn/lstm.hpp"
#include "nn/next_action_model.hpp"
#include "synth/portal.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace misuse::nn::infer {
namespace {

// The mode/quant switches are process globals; every test restores them.
struct ModeGuard {
  InferMode mode = infer_mode();
  bool quant = quant_enabled();
  ~ModeGuard() {
    set_infer_mode(mode);
    set_quant_enabled(quant);
  }
};

std::vector<int> random_actions(std::size_t n, std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> actions(n);
  for (auto& a : actions) a = static_cast<int>(rng.uniform_index(vocab));
  return actions;
}

NextActionModel make_model(std::size_t vocab, std::size_t hidden, std::uint64_t seed) {
  ModelConfig config;
  config.vocab = vocab;
  config.hidden = hidden;
  Rng rng(seed);
  return NextActionModel(config, rng);
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Lexicographically ordered integer image of a float: distances in this
// space count representable values between two floats (ULPs).
std::int64_t float_lex(float x) {
  const auto i = std::bit_cast<std::int32_t>(x);
  return i >= 0 ? static_cast<std::int64_t>(i)
                : static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min()) - i;
}

std::int64_t ulp_distance(float a, float b) {
  return std::llabs(float_lex(a) - float_lex(b));
}

// Max per-element ULP divergence tolerated between the avx2 kernels and
// scalar for one step from an identical state. Headroom over observed
// maxima (tens of ULPs) without masking real kernel bugs, which show up
// orders of magnitude larger.
constexpr std::int64_t kAvx2UlpBound = 2048;

// --- scalar: bit-identity with the reference forward -------------------

TEST(InferScalar, BitIdenticalToReferenceAcrossShapesAndSeeds) {
  ModeGuard guard;
  const struct {
    std::size_t vocab, hidden;
    std::uint64_t seed;
  } cases[] = {
      {13, 16, 1}, {29, 32, 2}, {50, 64, 3}, {61, 24, 4}, {7, 5, 5}, {40, 128, 6},
  };
  for (const auto& c : cases) {
    const NextActionModel model = make_model(c.vocab, c.hidden, c.seed);
    const auto engine = LstmInferEngine::build(model);
    ASSERT_NE(engine, nullptr);
    const auto actions = random_actions(120, c.vocab, c.seed * 977);

    set_infer_mode(InferMode::kScalar);
    ModelState ref_state = model.make_state();
    EngineState eng_state = engine->make_state();
    EngineScratch scratch;
    std::vector<float> ref_probs, eng_probs;
    for (const int a : actions) {
      model.step_into(ref_state, a, ref_probs);
      engine->step(eng_state, a, eng_probs, scratch);
      ASSERT_TRUE(bit_equal(ref_probs, eng_probs))
          << "vocab=" << c.vocab << " hidden=" << c.hidden << " seed=" << c.seed;
    }
  }
}

TEST(InferScalar, AutoModeResolvesToBitIdenticalKernels) {
  ModeGuard guard;
  const NextActionModel model = make_model(23, 48, 11);
  const auto engine = LstmInferEngine::build(model);
  ASSERT_NE(engine, nullptr);
  const auto actions = random_actions(60, 23, 123);

  set_infer_mode(InferMode::kAuto);
  ModelState ref_state = model.make_state();
  EngineState eng_state = engine->make_state();
  EngineScratch scratch;
  std::vector<float> ref_probs, eng_probs;
  for (const int a : actions) {
    model.step_into(ref_state, a, ref_probs);
    engine->step(eng_state, a, eng_probs, scratch);
    ASSERT_TRUE(bit_equal(ref_probs, eng_probs));
  }
}

TEST(InferScalar, BatchBitIdenticalToSequential) {
  ModeGuard guard;
  set_infer_mode(InferMode::kScalar);
  const NextActionModel model = make_model(31, 40, 17);
  const auto engine = LstmInferEngine::build(model);
  ASSERT_NE(engine, nullptr);

  constexpr std::size_t kSessions = 7;  // odd on purpose — no tile alignment
  constexpr std::size_t kSteps = 40;
  std::vector<std::vector<int>> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams.push_back(random_actions(kSteps, 31, 500 + i));
  }

  std::vector<EngineState> seq(kSessions, engine->make_state());
  std::vector<EngineState> bat(kSessions, engine->make_state());
  EngineScratch scratch;
  std::vector<float> seq_probs;
  std::vector<std::vector<float>> bat_probs(kSessions);
  std::vector<EngineState*> state_ptrs(kSessions);
  std::vector<std::vector<float>*> prob_ptrs(kSessions);
  std::vector<int> actions(kSessions);
  for (std::size_t t = 0; t < kSteps; ++t) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      actions[i] = streams[i][t];
      state_ptrs[i] = &bat[i];
      prob_ptrs[i] = &bat_probs[i];
    }
    engine->step_batch(state_ptrs, actions, prob_ptrs, scratch);
    for (std::size_t i = 0; i < kSessions; ++i) {
      engine->step(seq[i], actions[i], seq_probs, scratch);
      ASSERT_TRUE(bit_equal(seq_probs, bat_probs[i])) << "step " << t << " session " << i;
      ASSERT_TRUE(bit_equal(seq[i].h, bat[i].h));
      ASSERT_TRUE(bit_equal(seq[i].c, bat[i].c));
    }
  }
}

// The fused scalar batch kernels with deferred heads, against eager
// one-row step(): every batch size the server sees in practice (1, a
// few, a full wakeup), rows fresh (all-zero h, the zero-skip path) and
// warm side by side, and kPadToken inputs. Bit-identity on h, c and the
// distribution recovered by finish_probs.
TEST(InferScalar, FusedDeferredBatchBitIdenticalToEagerStep) {
  ModeGuard guard;
  set_infer_mode(InferMode::kScalar);
  constexpr std::size_t kVocab = 37;
  const NextActionModel model = make_model(kVocab, 48, 23);
  const auto engine = LstmInferEngine::build(model);
  ASSERT_NE(engine, nullptr);

  for (const std::size_t n : {1u, 2u, 3u, 7u, 33u}) {
    std::vector<EngineState> eager(n, engine->make_state());
    EngineScratch scratch;
    std::vector<float> probs;
    // Every third row starts fresh; the rest are warmed by a few steps.
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 0) continue;
      for (const int a : random_actions(1 + i % 5, kVocab, 7000 + i)) {
        engine->step(eager[i], a, probs, scratch);
      }
    }
    std::vector<EngineState> fused(eager);
    std::vector<EngineState*> state_ptrs(n);
    std::vector<std::vector<float>> fused_probs(n);
    std::vector<std::vector<float>*> prob_ptrs(n);
    std::vector<int> actions(n);
    std::vector<float> eager_probs;
    std::vector<float> finished;
    for (std::size_t t = 0; t < 12; ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        if ((i + t) % 11 == 10) {  // a row restarts mid-run: fresh again
          eager[i].reset();
          fused[i].reset();
        }
        actions[i] = (i + t) % 5 == 0 ? kPadToken
                                      : random_actions(1, kVocab, 31 * t + i).front();
        state_ptrs[i] = &fused[i];
        prob_ptrs[i] = &fused_probs[i];
      }
      const bool deferred_step = t % 2 == 0;
      const bool deferred = engine->step_batch(state_ptrs, actions, prob_ptrs, scratch,
                                               /*use_quant=*/false, deferred_step);
      ASSERT_EQ(deferred, deferred_step) << "n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        engine->step(eager[i], actions[i], eager_probs, scratch);
        ASSERT_TRUE(bit_equal(eager[i].h, fused[i].h)) << "n=" << n << " t=" << t << " i=" << i;
        ASSERT_TRUE(bit_equal(eager[i].c, fused[i].c)) << "n=" << n << " t=" << t << " i=" << i;
        if (deferred) {
          engine->finish_probs(fused[i], finished);
          ASSERT_TRUE(bit_equal(eager_probs, finished)) << "n=" << n << " t=" << t << " i=" << i;
        } else {
          ASSERT_TRUE(bit_equal(eager_probs, fused_probs[i]))
              << "n=" << n << " t=" << t << " i=" << i;
        }
      }
    }
  }
}

// --- avx2: ULP envelope against scalar ----------------------------------

TEST(InferAvx2, OneRowStepWithinUlpOfScalar) {
  if (!avx2_supported()) GTEST_SKIP() << "avx2 kernels unavailable on this host";
  ModeGuard guard;
  const NextActionModel model = make_model(50, 96, 29);
  const auto engine = LstmInferEngine::build(model);
  ASSERT_NE(engine, nullptr);
  const auto actions = random_actions(100, 50, 4242);

  // Walk the trajectory under scalar; at each step, run one avx2 step
  // from the identical pre-step state so only per-step kernel error is
  // measured, not accumulated trajectory divergence.
  EngineState state = engine->make_state();
  EngineScratch scratch;
  std::vector<float> scalar_probs, avx2_probs;
  std::int64_t worst = 0;
  for (const int a : actions) {
    EngineState snapshot = state;
    set_infer_mode(InferMode::kScalar);
    engine->step(state, a, scalar_probs, scratch);
    set_infer_mode(InferMode::kAvx2);
    engine->step(snapshot, a, avx2_probs, scratch);
    ASSERT_EQ(scalar_probs.size(), avx2_probs.size());
    for (std::size_t j = 0; j < scalar_probs.size(); ++j) {
      worst = std::max(worst, ulp_distance(scalar_probs[j], avx2_probs[j]));
    }
    ASSERT_LE(worst, kAvx2UlpBound);
  }
  RecordProperty("max_ulp", static_cast<int>(worst));
}

TEST(InferAvx2, FusedBatchWithinUlpOfScalar) {
  if (!avx2_supported()) GTEST_SKIP() << "avx2 kernels unavailable on this host";
  ModeGuard guard;
  const NextActionModel model = make_model(44, 80, 31);
  const auto engine = LstmInferEngine::build(model);
  ASSERT_NE(engine, nullptr);

  // 10 sessions: one full 6-session tile plus a remainder, so both the
  // tiled kernel and the single-row tail are exercised.
  constexpr std::size_t kSessions = 10;
  constexpr std::size_t kSteps = 50;
  std::vector<std::vector<int>> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams.push_back(random_actions(kSteps, 44, 900 + i));
  }

  std::vector<EngineState> scalar_states(kSessions, engine->make_state());
  EngineScratch scratch;
  std::vector<float> scalar_probs;
  std::vector<std::vector<float>> batch_probs(kSessions);
  std::int64_t worst = 0;
  for (std::size_t t = 0; t < kSteps; ++t) {
    // Fresh copies of the scalar trajectory states for the avx2 batch.
    std::vector<EngineState> batch_states(scalar_states);
    std::vector<EngineState*> state_ptrs(kSessions);
    std::vector<std::vector<float>*> prob_ptrs(kSessions);
    std::vector<int> actions(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      actions[i] = streams[i][t];
      state_ptrs[i] = &batch_states[i];
      prob_ptrs[i] = &batch_probs[i];
    }
    set_infer_mode(InferMode::kAvx2);
    engine->step_batch(state_ptrs, actions, prob_ptrs, scratch);
    set_infer_mode(InferMode::kScalar);
    for (std::size_t i = 0; i < kSessions; ++i) {
      engine->step(scalar_states[i], actions[i], scalar_probs, scratch);
      ASSERT_EQ(scalar_probs.size(), batch_probs[i].size());
      for (std::size_t j = 0; j < scalar_probs.size(); ++j) {
        worst = std::max(worst, ulp_distance(scalar_probs[j], batch_probs[i][j]));
      }
      ASSERT_LE(worst, kAvx2UlpBound) << "step " << t << " session " << i;
    }
  }
  RecordProperty("max_ulp", static_cast<int>(worst));
}

// --- packing: pure permutation, lossless --------------------------------

TEST(InferPacking, PackUnpackLosslessOver100RandomShapes) {
  Rng shape_rng(2026);
  for (int k = 0; k < 100; ++k) {
    const std::size_t vocab = 3 + shape_rng.uniform_index(38);
    const std::size_t hidden = 2 + shape_rng.uniform_index(46);
    const NextActionModel model = make_model(vocab, hidden, 7000 + k);
    const auto* cell = dynamic_cast<const Lstm*>(&model.layer(0));
    ASSERT_NE(cell, nullptr);
    const PackedLstm packed = pack_lstm(*cell, model.head());

    // Direct copies must match the source matrices bit for bit.
    ASSERT_EQ(packed.wx.size(), cell->wx().size());
    EXPECT_EQ(std::memcmp(packed.wx.data(), cell->wx().data(),
                          packed.wx.size() * sizeof(float)),
              0);
    ASSERT_EQ(packed.wh.size(), cell->wh().size());
    EXPECT_EQ(std::memcmp(packed.wh.data(), cell->wh().data(),
                          packed.wh.size() * sizeof(float)),
              0);
    ASSERT_EQ(packed.head_w.size(), model.head().weights().size());
    EXPECT_EQ(std::memcmp(packed.head_w.data(), model.head().weights().data(),
                          packed.head_w.size() * sizeof(float)),
              0);

    // Transposed copies invert exactly.
    const Matrix wh = unpack_wh(packed);
    ASSERT_EQ(wh.rows(), cell->wh().rows());
    ASSERT_EQ(wh.cols(), cell->wh().cols());
    EXPECT_EQ(std::memcmp(wh.data(), cell->wh().data(), wh.size() * sizeof(float)), 0)
        << "case " << k << " vocab=" << vocab << " hidden=" << hidden;
    const Matrix hw = unpack_head_w(packed);
    ASSERT_EQ(hw.rows(), model.head().weights().rows());
    ASSERT_EQ(hw.cols(), model.head().weights().cols());
    EXPECT_EQ(std::memcmp(hw.data(), model.head().weights().data(),
                          hw.size() * sizeof(float)),
              0)
        << "case " << k << " vocab=" << vocab << " hidden=" << hidden;
  }
}

// --- quantization: measured verdict-flip gate ---------------------------

class QuantGateFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::PortalConfig pc;
    pc.sessions = 150;
    pc.action_count = 50;
    pc.seed = 21;
    const SessionStore store = synth::Portal(pc).generate();
    core::DetectorConfig dc;
    dc.ensemble.topic_counts = {8, 10};
    dc.ensemble.iterations = 8;
    dc.expert.target_clusters = 3;
    dc.expert.min_cluster_sessions = 5;
    dc.lm.hidden = 16;
    dc.lm.epochs = 2;
    dc.lm.patience = 0;
    detector_ = new core::MisuseDetector(core::MisuseDetector::train(store, dc));
  }
  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
  }

  static core::MisuseDetector quantized_reload(QuantKind kind) {
    std::ostringstream out(std::ios::binary);
    BinaryWriter writer(out);
    core::DetectorSaveOptions options;
    options.quant = kind;
    detector_->save(writer, options);
    std::istringstream in(out.str(), std::ios::binary);
    BinaryReader reader(in);
    return core::MisuseDetector::load(reader);
  }

  static core::MisuseDetector* detector_;
};

core::MisuseDetector* QuantGateFixture::detector_ = nullptr;

TEST_F(QuantGateFixture, Int8FlipRateUnderFixedThreshold) {
  ModeGuard guard;
  set_infer_mode(InferMode::kAuto);
  const core::MisuseDetector loaded = quantized_reload(QuantKind::kInt8);
  for (std::size_t c = 0; c < loaded.cluster_count(); ++c) {
    ASSERT_TRUE(loaded.cluster_quantized(c));
  }
  core::QuantGateConfig gate;
  gate.max_flip_rate = 0.01;  // the registry's default publish threshold
  gate.sessions_per_cluster = 12;
  gate.session_length = 32;
  const core::QuantGateResult result = core::measure_quant_gate(loaded, gate);
  EXPECT_GT(result.steps, 0u);
  EXPECT_LE(result.flip_rate, 0.01) << result.verdict_flips << "/" << result.steps;
  EXPECT_TRUE(result.pass) << "max_loss_delta=" << result.max_loss_delta;
}

TEST_F(QuantGateFixture, Fp16FlipRateUnderFixedThreshold) {
  ModeGuard guard;
  set_infer_mode(InferMode::kAuto);
  const core::MisuseDetector loaded = quantized_reload(QuantKind::kFp16);
  core::QuantGateConfig gate;
  gate.max_flip_rate = 0.01;
  gate.sessions_per_cluster = 12;
  gate.session_length = 32;
  const core::QuantGateResult result = core::measure_quant_gate(loaded, gate);
  EXPECT_GT(result.steps, 0u);
  EXPECT_LE(result.flip_rate, 0.01);
  EXPECT_TRUE(result.pass);
}

// --- fp16 converters ----------------------------------------------------

TEST(InferQuant, HalfRoundTripExactForRepresentableValues) {
  // Every binary16 value decodes to a float that re-encodes to the same
  // bits (NaNs excluded — payload bits may legitimately differ).
  for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = half_to_float(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(float_to_half(f), h) << "half bits 0x" << std::hex << bits;
  }
}

}  // namespace
}  // namespace misuse::nn::infer
