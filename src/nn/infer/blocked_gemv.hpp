// Register-blocked GEMV accumulation over column-block-major weights
// (nn/infer/packed.hpp) — the inner loop of every LSTM step:
//
//   out[i][j] += sum over p of x[i][p] * m(p, j)     for i < n, j < cols
//
// A tile of kTileRows batch rows x kTileCols output columns is held in
// registers across the whole p loop; each weight vector is loaded once
// per tile and applied to every row in it, so a batch of n rows streams
// the weights once per kTileRows rows instead of once per row, and no
// partial sum goes through memory.
//
// Bit-identity: every output element sees exactly the reference
// forward's operation sequence (tensor/ops.cpp gemm_rows, i-p-j order):
// its seed (whatever the caller put in out), then `+= x[p] * w[p][j]` for
// p ascending, skipping the p where x[p] == 0.0f. Tiling only chooses
// which elements are in flight together, never the order of operations
// on one of them. The update is written as a GCC vector-extension
// expression of the same shape as gemm_rows' `ci[j] += aip * bp[j]`, so
// the compiler's FMA-contraction choice (on where the target has FMA and
// contraction is on, off otherwise) is the same for both.
//
// Internal linkage: engine.cpp is the one TU that includes this header.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>

#include "nn/infer/packed.hpp"
#include "nn/lstm.hpp"

namespace misuse::nn::infer {
namespace {

// Tile shape, fixed per target ISA at compile time: kTileRows rows x
// kTileCols columns of accumulators, kVecsPerTile vectors of kLanes floats
// per row — as many as the register file holds next to one row of
// weights. A 64-column block is kBlockCols / kTileCols column slices.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 16;  // zmm: 16 accumulators + 4 weights of 32
constexpr std::size_t kTileRows = 4;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 8;  // ymm: 8 accumulators + 4 weights of 16
constexpr std::size_t kTileRows = 2;
#else
constexpr std::size_t kLanes = 4;  // xmm: 8 accumulators + 4 weights of 16
constexpr std::size_t kTileRows = 2;
#endif
constexpr std::size_t kVecsPerTile = 4;
constexpr std::size_t kTileCols = kLanes * kVecsPerTile;
static_assert(kBlockCols % kTileCols == 0);

using LaneVec = float __attribute__((vector_size(kLanes * sizeof(float))));

// One full-width tile: out[r][0..kTileCols) += x[r] * w for r < R, where
// row p of w starts at w + p * kBlockCols. The unroll pragmas make every
// accumulator a named SSA value before GCC's scalar replacement runs;
// without them the arrays stay on the stack and every update goes
// through memory.
template <std::size_t R>
void accumulate_registers(const float* w, std::size_t len, const float* const* x,
                          float* const* out) {
  LaneVec acc[R][kVecsPerTile];
  const float* xr[R];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < R; ++r) {
    xr[r] = x[r];
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kVecsPerTile; ++v) {
      std::memcpy(&acc[r][v], out[r] + v * kLanes, sizeof(LaneVec));
    }
  }
  for (std::size_t p = 0; p < len; ++p) {
    LaneVec wp[kVecsPerTile];
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kVecsPerTile; ++v) {
      std::memcpy(&wp[v], w + p * kBlockCols + v * kLanes, sizeof(LaneVec));
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
      const float xp = xr[r][p];
      if (xp == 0.0f) continue;  // gemm_rows' zero-skip
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kVecsPerTile; ++v) acc[r][v] += xp * wp[v];
    }
  }
#pragma GCC unroll 16
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kVecsPerTile; ++v) {
      std::memcpy(out[r] + v * kLanes, &acc[r][v], sizeof(LaneVec));
    }
  }
}

// Rows x[0..R), output columns [j0, j0 + width) (width <= kTileCols),
// weights from w as above. A partial slice runs on zero-padded copies of
// its columns, so the register tile only ever sees full slices.
template <std::size_t R>
void accumulate_tile(const float* w, std::size_t len, std::size_t j0, std::size_t width,
                     const float* const* x, float* const* out) {
  float* rows[R];
  if (width == kTileCols) {
    for (std::size_t r = 0; r < R; ++r) rows[r] = out[r] + j0;
    accumulate_registers<R>(w, len, x, rows);
    return;
  }
  float padded[R][kTileCols] = {};
  for (std::size_t r = 0; r < R; ++r) {
    std::memcpy(padded[r], out[r] + j0, width * sizeof(float));
    rows[r] = padded[r];
  }
  accumulate_registers<R>(w, len, x, rows);
  for (std::size_t r = 0; r < R; ++r) std::memcpy(out[r] + j0, padded[r], width * sizeof(float));
}

// The last rows % kTileRows rows, as one narrower tile.
template <std::size_t R>
void accumulate_tail(std::size_t rows, const float* w, std::size_t len, std::size_t j0,
                     std::size_t width, const float* const* x, float* const* out) {
  if constexpr (R > 0) {
    if (rows == R) {
      accumulate_tile<R>(w, len, j0, width, x, out);
    } else {
      accumulate_tail<R - 1>(rows, w, len, j0, width, x, out);
    }
  }
}

/// out[i][0..cols) += x[i][0..len) * m for i < n, m column-block-major
/// with `len` rows. Column slices run outermost, so one slice's weights
/// (len x kTileCols floats) stay cache-hot across all the batch's row
/// tiles.
inline void blocked_accumulate(const float* m, std::size_t len, std::size_t cols,
                               const float* const* x, float* const* out, std::size_t n) {
  for (std::size_t j0 = 0; j0 < cols; j0 += kTileCols) {
    const float* w = m + (j0 / kBlockCols) * len * kBlockCols + j0 % kBlockCols;
    const std::size_t width = std::min(kTileCols, cols - j0);
    std::size_t i = 0;
    for (; i + kTileRows <= n; i += kTileRows) {
      accumulate_tile<kTileRows>(w, len, j0, width, x + i, out + i);
    }
    accumulate_tail<kTileRows - 1>(n - i, w, len, j0, width, x + i, out + i);
  }
}

/// gates[i][0..4H) = bias + wx[tokens[i]] (unless kPadToken) + Wh^T h[i]:
/// the reference compute_gates sequence (seed with bias, add the token's
/// wx row, then accumulate).
inline void blocked_gates(const PackedLstm& w, const float* const* h, const int* tokens,
                          float* const* gates, std::size_t n) {
  const std::size_t g4 = 4 * w.hidden;
  const float* bias = w.bias.data();
  for (std::size_t i = 0; i < n; ++i) {
    float* g = gates[i];
    for (std::size_t j = 0; j < g4; ++j) g[j] = bias[j];
    if (tokens[i] != kPadToken) {
      assert(tokens[i] >= 0 && static_cast<std::size_t>(tokens[i]) < w.vocab);
      const float* wxrow = w.wx.data() + static_cast<std::size_t>(tokens[i]) * g4;
      for (std::size_t j = 0; j < g4; ++j) g[j] += wxrow[j];
    }
  }
  blocked_accumulate(w.wh.data(), w.hidden, g4, h, gates, n);
}

/// logits[i][0..V) = head_w h[i] + head_b: Dense::infer's sequence (a
/// beta == 0 gemm from zero, then the bias broadcast after the full
/// accumulation).
inline void blocked_head(const PackedLstm& w, const float* const* h, float* const* logits,
                         std::size_t n) {
  const std::size_t v = w.head_out;
  for (std::size_t i = 0; i < n; ++i) std::fill(logits[i], logits[i] + v, 0.0f);
  blocked_accumulate(w.head_w.data(), w.hidden, v, h, logits, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < v; ++j) logits[i][j] += w.head_b[j];
  }
}

}  // namespace
}  // namespace misuse::nn::infer
