// Inference weight layout for the paper architecture (one token-input
// LSTM layer + dense softmax head), packed once at detector-load time.
//
// `wx` (vocab x 4H) and the biases keep the reference row-major layout,
// so a step reads the observed token's whole row contiguously. The two
// GEMV operands, `wh` (H x 4H) and `head_w` (H x V), are stored
// column-block-major instead: the output columns are cut into blocks of
// kBlockCols, and block b holds, for p = 0..H-1 in order, the kBlockCols
// weights w[p][b*kBlockCols ..]. The last block is padded with zeros to
// the full width. This is the order the register-blocked kernels
// (nn/infer/blocked_gemv.hpp) consume: one block's weights stream
// contiguously while a tile of outputs stays in registers across the
// whole p loop. The packing only moves values, so it is lossless
// (property-tested in tests/test_infer.cpp); it replaces the row-major
// copy rather than adding to it, so a packed model holds one copy of
// every weight.
#pragma once

#include <cstddef>
#include <vector>

namespace misuse::nn {
class Lstm;
class Dense;
}  // namespace misuse::nn

namespace misuse::nn::infer {

/// Output columns per weight block: the width of one register tile.
inline constexpr std::size_t kBlockCols = 64;

/// `cols` rounded up to whole blocks.
inline constexpr std::size_t blocked_width(std::size_t cols) {
  return (cols + kBlockCols - 1) / kBlockCols * kBlockCols;
}

/// Position of w[p][j] in a column-block-major matrix with `rows` rows.
inline constexpr std::size_t blocked_index(std::size_t rows, std::size_t p, std::size_t j) {
  return (j / kBlockCols) * rows * kBlockCols + p * kBlockCols + j % kBlockCols;
}

struct PackedLstm {
  std::size_t vocab = 0;     // token vocabulary (wx rows)
  std::size_t hidden = 0;    // H
  std::size_t head_out = 0;  // V — head output width (== vocab here)
  std::vector<float> wx;      // vocab x 4H, row-major
  std::vector<float> wh;      // H x 4H, column-block-major, zero-padded
  std::vector<float> bias;    // 4H
  std::vector<float> head_w;  // H x V, column-block-major, zero-padded
  std::vector<float> head_b;  // V
};

/// Copies the cell + head weights into the layout above. Lossless.
PackedLstm pack_lstm(const Lstm& cell, const Dense& head);

}  // namespace misuse::nn::infer
