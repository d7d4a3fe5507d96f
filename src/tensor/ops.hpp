// Allocation-free numeric kernels over tensor views.
//
// These are the verifiable primitives the FUSA DL library is built from:
// each is a pure function over caller-provided buffers, with explicit shape
// checking and typed status results — no hidden state, no allocation.
#pragma once

#include <span>

#include "tensor/tensor.hpp"
#include "util/status.hpp"

namespace sx::tensor {

/// out = a + b (element-wise). Shapes must match.
Status add(ConstTensorView a, ConstTensorView b, TensorView out) noexcept;

/// out = a - b (element-wise).
Status sub(ConstTensorView a, ConstTensorView b, TensorView out) noexcept;

/// out = a * b (element-wise, Hadamard).
Status mul(ConstTensorView a, ConstTensorView b, TensorView out) noexcept;

/// out = a * scalar.
Status scale(ConstTensorView a, float s, TensorView out) noexcept;

/// Dense: out[r] = sum_c w[r,c] * x[c] + b[r].  w: MxN, x: N, b: M, out: M.
Status matvec(ConstTensorView w, ConstTensorView x, ConstTensorView b,
              TensorView out) noexcept;

/// Dot product; returns 0 and sets status on mismatch.
Status dot(ConstTensorView a, ConstTensorView b, float& out) noexcept;

/// L2 norm of the whole tensor.
float l2_norm(ConstTensorView a) noexcept;

/// Sum / max / argmax over all elements.
float sum(ConstTensorView a) noexcept;
float max_value(ConstTensorView a) noexcept;
std::size_t argmax(ConstTensorView a) noexcept;

/// `m` folded with |v| for every v in `a`, as `|v| > m ? |v| : m`: NaN is
/// skipped, so the result is the largest of m and every magnitude, whatever
/// the order (the int8 quantizer's abs-max). Runs four lanes at a time.
float fold_abs_max(float m, std::span<const float> a) noexcept;

/// Numerically stable in-place softmax over a rank-1 view.
Status softmax(ConstTensorView logits, TensorView out) noexcept;

/// ReLU / leaky-ReLU.
Status relu(ConstTensorView a, TensorView out) noexcept;

/// True iff any element is NaN or Inf — the numeric-fault check the safety
/// monitor applies after every layer.
bool has_non_finite(ConstTensorView a) noexcept;

/// Copy with shape check.
Status copy(ConstTensorView src, TensorView dst) noexcept;

}  // namespace sx::tensor
