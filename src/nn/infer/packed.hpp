// Inference weight layout for the paper architecture (one token-input
// LSTM layer + dense softmax head), packed once at detector-load time.
//
// Every matrix keeps the reference row-major layout: `wx` (vocab x 4H) so
// a step reads the observed token's whole row contiguously, and `wh`
// (H x 4H) / `head_w` (H x V) so the kernels can replay the training
// forward's p-outer accumulation (the loop shape the scalar bit-identity
// contract needs) and stream each weight row once per batch. The packing
// is a plain copy, so it is lossless (property-tested in
// tests/test_infer.cpp).
#pragma once

#include <cstddef>
#include <vector>

namespace misuse::nn {
class Lstm;
class Dense;
}  // namespace misuse::nn

namespace misuse::nn::infer {

struct PackedLstm {
  std::size_t vocab = 0;     // token vocabulary (wx rows)
  std::size_t hidden = 0;    // H
  std::size_t head_out = 0;  // V — head output width (== vocab here)
  std::vector<float> wx;      // vocab x 4H
  std::vector<float> wh;      // H x 4H
  std::vector<float> bias;    // 4H
  std::vector<float> head_w;  // H x head_out
  std::vector<float> head_b;  // head_out
};

/// Copies the cell + head weights. Pure data movement — lossless.
PackedLstm pack_lstm(const Lstm& cell, const Dense& head);

}  // namespace misuse::nn::infer
