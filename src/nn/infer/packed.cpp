#include "nn/infer/packed.hpp"

#include <cassert>

#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "tensor/matrix.hpp"

namespace misuse::nn::infer {

PackedLstm pack_lstm(const Lstm& cell, const Dense& head) {
  PackedLstm packed;
  packed.vocab = cell.vocab();
  packed.hidden = cell.hidden();
  packed.head_out = head.out_dim();
  assert(head.in_dim() == packed.hidden);
  const auto copy = [](const Matrix& m) {
    return std::vector<float>(m.data(), m.data() + m.size());
  };
  packed.wx = copy(cell.wx());           // vocab x 4H
  packed.wh = copy(cell.wh());           // H x 4H
  packed.bias = copy(cell.bias());       // 1 x 4H
  packed.head_w = copy(head.weights());  // H x V
  packed.head_b = copy(head.bias());     // 1 x V
  return packed;
}

}  // namespace misuse::nn::infer
