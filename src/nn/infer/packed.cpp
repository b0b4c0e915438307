#include "nn/infer/packed.hpp"

#include <cassert>

#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "tensor/matrix.hpp"

namespace misuse::nn::infer {

namespace {

std::vector<float> copy(const Matrix& m) { return std::vector<float>(m.data(), m.data() + m.size()); }

// Row-major rows x cols -> column-block-major, pad lanes zero.
std::vector<float> copy_blocked(const Matrix& m) {
  std::vector<float> out(m.rows() * blocked_width(m.cols()), 0.0f);
  for (std::size_t p = 0; p < m.rows(); ++p) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      out[blocked_index(m.rows(), p, j)] = m(p, j);
    }
  }
  return out;
}

}  // namespace

PackedLstm pack_lstm(const Lstm& cell, const Dense& head) {
  PackedLstm packed;
  packed.vocab = cell.vocab();
  packed.hidden = cell.hidden();
  packed.head_out = head.out_dim();
  assert(head.in_dim() == packed.hidden);
  packed.wx = copy(cell.wx());                   // vocab x 4H
  packed.wh = copy_blocked(cell.wh());           // H x 4H
  packed.bias = copy(cell.bias());               // 1 x 4H
  packed.head_w = copy_blocked(head.weights());  // H x V
  packed.head_b = copy(head.bias());             // 1 x V
  return packed;
}

}  // namespace misuse::nn::infer
