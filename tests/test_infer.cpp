// Differential test harness for the inference engine (nn/infer/).
//
// The engine's contracts:
//   * steps — BIT-identical to the training-grade reference forward
//     (NextActionModel::step_into), one-row and batched alike (the
//     register-blocked kernels share weight loads across a tile of rows
//     but keep each element's operation sequence, and deferred heads
//     recovered by finish_probs equal the eager tail). Every determinism
//     guarantee in the repo (WAL replay, hot swap, server-vs-offline,
//     cross-session batches) leans on this.
//   * packing — wh and head_w reordered column-block-major (zero pad
//     lanes), everything else copied; every weight maps back bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "nn/dense.hpp"
#include "nn/infer/dispatch.hpp"
#include "nn/infer/engine.hpp"
#include "nn/infer/packed.hpp"
#include "nn/lstm.hpp"
#include "nn/next_action_model.hpp"
#include "nn/parameter.hpp"
#include "util/rng.hpp"

namespace misuse::nn::infer {
namespace {

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

// --- scalar: bit-identity with the reference forward -------------------

TEST(InferScalar, BitIdenticalToReferenceAcrossShapesAndSeeds) {
  const struct {
    std::size_t vocab, hidden;
    std::uint64_t seed;
  } cases[] = {
      {13, 16, 1}, {29, 32, 2}, {50, 64, 3}, {61, 24, 4}, {7, 5, 5}, {40, 128, 6},
      // Paper shape, and widths (4H or V) that are not whole weight blocks.
      {300, 256, 7}, {300, 17, 8}, {9, 33, 9},
  };
  for (const auto& c : cases) {
    const NextActionModel model = make_model(c.vocab, c.hidden, c.seed);
    const auto engine = LstmInferEngine::build(model);
    ASSERT_NE(engine, nullptr);
    const auto actions = random_actions(120, c.vocab, c.seed * 977);

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

TEST(InferScalar, DefaultModeResolvesToBitIdenticalKernels) {
  // The one kernel path, under the name tools print for it, reproduces
  // the reference forward bit for bit.
  EXPECT_STREQ(infer_mode_name(effective_infer_mode()), "scalar");
  const NextActionModel model = make_model(23, 48, 11);
  const auto engine = LstmInferEngine::build(model);
  ASSERT_NE(engine, nullptr);
  ModelState ref_state = model.make_state();
  EngineState eng_state = engine->make_state();
  EngineScratch scratch;
  std::vector<float> ref_probs, eng_probs;
  for (const int a : random_actions(60, 23, 123)) {
    model.step_into(ref_state, a, ref_probs);
    engine->step(eng_state, a, eng_probs, scratch);
    ASSERT_TRUE(bit_equal(ref_probs, eng_probs));
  }
}

// The fused batch against the reference forward, row by row, at every
// tile remainder (n = 1..9) and a multi-tile batch (33). Every row holds
// +0.0 or -0.0 at one hidden unit whose wh and head_w rows are +inf, so
// a kernel that multiplied a zero activation into its weight row instead
// of skipping it (as gemm_rows does) would turn that row's outputs into
// NaN; more signed zeros sit at a moving unit with finite weights. Rows
// start fresh (all-zero h), and the last row steps on kPadToken every
// third step.
TEST(InferScalar, BatchBitIdenticalToSequential) {
  constexpr std::size_t kVocab = 31;
  constexpr std::size_t kHidden = 40;
  constexpr std::size_t kPinned = 7;  // hidden unit held at a signed zero
  NextActionModel model = make_model(kVocab, kHidden, 17);
  for (Parameter* param : model.params()) {
    if (param->name != "lstm.wh" && param->name != "dense.w") continue;
    for (std::size_t j = 0; j < param->value.cols(); ++j) {
      param->value(kPinned, j) = std::numeric_limits<float>::infinity();
    }
  }
  const auto engine = LstmInferEngine::build(model);
  ASSERT_NE(engine, nullptr);

  std::vector<std::size_t> sizes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33};
  for (const std::size_t n : sizes) {
    std::vector<ModelState> ref(n, model.make_state());
    std::vector<EngineState> bat(n, engine->make_state());
    EngineScratch scratch;
    std::vector<float> ref_probs;
    std::vector<std::vector<float>> bat_probs(n);
    std::vector<EngineState*> state_ptrs(n);
    std::vector<std::vector<float>*> prob_ptrs(n);
    std::vector<int> actions(n);
    for (std::size_t t = 0; t < 10; ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t moving = (t + 3 * i) % kHidden;
        for (const auto& [unit, value] : {std::pair{kPinned, i % 2 == 0 ? 0.0f : -0.0f},
                                          std::pair{moving, i % 3 == 0 ? -0.0f : 0.0f}}) {
          ref[i].layers[0].h(0, unit) = value;
          bat[i].h[unit] = value;
        }
        actions[i] = i == n - 1 && t % 3 == 0
                         ? kPadToken
                         : random_actions(1, kVocab, 1000 * n + 31 * t + i).front();
        state_ptrs[i] = &bat[i];
        prob_ptrs[i] = &bat_probs[i];
      }
      engine->step_batch(state_ptrs, actions, prob_ptrs, scratch);
      for (std::size_t i = 0; i < n; ++i) {
        model.step_into(ref[i], actions[i], ref_probs);
        const auto& ref_h = ref[i].layers[0].h.flat();
        const auto& ref_c = ref[i].layers[0].c.flat();
        ASSERT_TRUE(bit_equal(ref_probs, bat_probs[i])) << "n=" << n << " t=" << t << " i=" << i;
        ASSERT_TRUE(bit_equal({ref_h.begin(), ref_h.end()}, bat[i].h))
            << "n=" << n << " t=" << t << " i=" << i;
        ASSERT_TRUE(bit_equal({ref_c.begin(), ref_c.end()}, bat[i].c))
            << "n=" << n << " t=" << t << " i=" << i;
      }
    }
  }
}

// The fused batch kernels with deferred heads, against eager
// one-row step(): every batch size the server sees in practice (1, a
// few, a full wakeup), rows fresh (all-zero h, the zero-skip path) and
// warm side by side, and kPadToken inputs. Bit-identity on h, c and the
// distribution recovered by finish_probs.
TEST(InferScalar, FusedDeferredBatchBitIdenticalToEagerStep) {
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
      const bool deferred = t % 2 == 0;
      engine->step_batch(state_ptrs, actions, prob_ptrs, scratch, deferred);
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

// --- packing: lossless, column-block-major GEMV operands ---------------

TEST(InferPacking, PackUnpackLosslessOver100RandomShapes) {
  Rng shape_rng(2026);
  const auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };
  const auto same_bits = [](const std::vector<float>& packed, const Matrix& source) {
    return packed.size() == source.size() &&
           std::memcmp(packed.data(), source.data(), packed.size() * sizeof(float)) == 0;
  };
  // Every w[p][j] sits at blocked_index(rows, p, j) with its exact bits;
  // every other slot is a +0.0 pad lane.
  const auto blocked_lossless = [&](const std::vector<float>& packed, const Matrix& source) {
    const std::size_t rows = source.rows();
    if (packed.size() != rows * blocked_width(source.cols())) return false;
    std::vector<bool> covered(packed.size(), false);
    for (std::size_t p = 0; p < rows; ++p) {
      for (std::size_t j = 0; j < source.cols(); ++j) {
        const std::size_t at = blocked_index(rows, p, j);
        if (covered[at] || bits(packed[at]) != bits(source(p, j))) return false;
        covered[at] = true;
      }
    }
    for (std::size_t at = 0; at < packed.size(); ++at) {
      if (!covered[at] && bits(packed[at]) != 0u) return false;
    }
    return true;
  };
  for (int k = 0; k < 100; ++k) {
    const std::size_t vocab = 3 + shape_rng.uniform_index(38);
    const std::size_t hidden = 2 + shape_rng.uniform_index(46);
    const NextActionModel model = make_model(vocab, hidden, 7000 + k);
    const auto* cell = dynamic_cast<const Lstm*>(&model.layer(0));
    ASSERT_NE(cell, nullptr);
    const PackedLstm packed = pack_lstm(*cell, model.head());
    EXPECT_EQ(packed.vocab, vocab);
    EXPECT_EQ(packed.hidden, hidden);
    EXPECT_EQ(packed.head_out, vocab);
    EXPECT_TRUE(same_bits(packed.wx, cell->wx())) << "case " << k;
    EXPECT_TRUE(blocked_lossless(packed.wh, cell->wh())) << "case " << k;
    EXPECT_TRUE(same_bits(packed.bias, cell->bias())) << "case " << k;
    EXPECT_TRUE(blocked_lossless(packed.head_w, model.head().weights())) << "case " << k;
    EXPECT_TRUE(same_bits(packed.head_b, model.head().bias())) << "case " << k;
  }
}

}  // namespace
}  // namespace misuse::nn::infer
