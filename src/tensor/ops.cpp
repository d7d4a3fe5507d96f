#include "tensor/ops.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

namespace sx::tensor {
namespace {

bool shapes_match(ConstTensorView a, ConstTensorView b,
                  const TensorView& out) noexcept {
  return a.shape == b.shape && a.shape == out.shape && a.valid() &&
         b.valid() && out.valid();
}

}  // namespace

// Element-wise loops hoist the trip count and raw base pointers into
// locals: distinct local pointers are the closest standard-C++ equivalent
// of `restrict` (the compiler can see no alias is re-derived inside the
// loop body), and none of it changes evaluation order, so outputs stay
// bitwise identical.
Status add(ConstTensorView a, ConstTensorView b, TensorView out) noexcept {
  if (!shapes_match(a, b, out)) return Status::kShapeMismatch;
  const std::size_t n = a.data.size();
  const float* pa = a.data.data();
  const float* pb = b.data.data();
  float* po = out.data.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  return Status::kOk;
}

Status sub(ConstTensorView a, ConstTensorView b, TensorView out) noexcept {
  if (!shapes_match(a, b, out)) return Status::kShapeMismatch;
  const std::size_t n = a.data.size();
  const float* pa = a.data.data();
  const float* pb = b.data.data();
  float* po = out.data.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
  return Status::kOk;
}

Status mul(ConstTensorView a, ConstTensorView b, TensorView out) noexcept {
  if (!shapes_match(a, b, out)) return Status::kShapeMismatch;
  const std::size_t n = a.data.size();
  const float* pa = a.data.data();
  const float* pb = b.data.data();
  float* po = out.data.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  return Status::kOk;
}

Status scale(ConstTensorView a, float s, TensorView out) noexcept {
  if (a.shape != out.shape || !a.valid() || !out.valid())
    return Status::kShapeMismatch;
  const std::size_t n = a.data.size();
  const float* pa = a.data.data();
  float* po = out.data.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] * s;
  return Status::kOk;
}

Status matvec(ConstTensorView w, ConstTensorView x, ConstTensorView b,
              TensorView out) noexcept {
  if (w.shape.rank() != 2 || !w.valid() || !x.valid() || !b.valid() ||
      !out.valid())
    return Status::kShapeMismatch;
  const std::size_t rows = w.shape[0];
  const std::size_t cols = w.shape[1];
  if (x.shape.size() != cols || b.shape.size() != rows ||
      out.shape.size() != rows)
    return Status::kShapeMismatch;
  // Base pointers hoisted once (local-pointer aliasing contract as above);
  // the row pointer advances instead of being recomputed from r * cols.
  // Accumulation order per output row is unchanged => bitwise identical.
  const float* wr = w.data.data();
  const float* px = x.data.data();
  const float* pb = b.data.data();
  float* po = out.data.data();
  for (std::size_t r = 0; r < rows; ++r, wr += cols) {
    float acc = pb[r];
    for (std::size_t c = 0; c < cols; ++c) acc += wr[c] * px[c];
    po[r] = acc;
  }
  return Status::kOk;
}

Status dot(ConstTensorView a, ConstTensorView b, float& out) noexcept {
  out = 0.0f;
  if (a.shape.size() != b.shape.size() || !a.valid() || !b.valid())
    return Status::kShapeMismatch;
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.data.size(); ++i) acc += a.data[i] * b.data[i];
  out = acc;
  return Status::kOk;
}

float l2_norm(ConstTensorView a) noexcept {
  float acc = 0.0f;
  for (float v : a.data) acc += v * v;
  return std::sqrt(acc);
}

float sum(ConstTensorView a) noexcept {
  float acc = 0.0f;
  for (float v : a.data) acc += v;
  return acc;
}

float max_value(ConstTensorView a) noexcept {
  float m = -std::numeric_limits<float>::infinity();
  for (float v : a.data) m = v > m ? v : m;
  return m;
}

float fold_abs_max(float m, std::span<const float> a) noexcept {
  typedef float v4sf __attribute__((vector_size(16)));
  typedef std::int32_t v4si __attribute__((vector_size(16)));
  const v4si abs_mask = {0x7fffffff, 0x7fffffff, 0x7fffffff, 0x7fffffff};
  const std::size_t n = a.size();
  const float* p = a.data();
  v4sf acc = {m, m, m, m};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4si x;
    __builtin_memcpy(&x, p + i, sizeof x);
    const v4sf v = reinterpret_cast<v4sf>(x & abs_mask);
    acc = v > acc ? v : acc;
  }
  for (int l = 0; l < 4; ++l) m = acc[l] > m ? acc[l] : m;
  for (; i < n; ++i) {
    const float v = std::fabs(p[i]);
    m = v > m ? v : m;
  }
  return m;
}

std::size_t argmax(ConstTensorView a) noexcept {
  std::size_t best = 0;
  float m = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    if (a.data[i] > m) {
      m = a.data[i];
      best = i;
    }
  }
  return best;
}

Status softmax(ConstTensorView logits, TensorView out) noexcept {
  if (logits.shape != out.shape || !logits.valid() || !out.valid())
    return Status::kShapeMismatch;
  if (logits.data.empty()) return Status::kInvalidArgument;
  const float m = max_value(logits);
  float z = 0.0f;
  for (std::size_t i = 0; i < logits.data.size(); ++i) {
    out.data[i] = std::exp(logits.data[i] - m);
    z += out.data[i];
  }
  if (z <= 0.0f || !std::isfinite(z)) return Status::kNumericFault;
  for (auto& v : out.data) v /= z;
  return Status::kOk;
}

Status relu(ConstTensorView a, TensorView out) noexcept {
  if (a.shape != out.shape || !a.valid() || !out.valid())
    return Status::kShapeMismatch;
  const std::size_t n = a.data.size();
  const float* pa = a.data.data();
  float* po = out.data.data();
  for (std::size_t i = 0; i < n; ++i) po[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
  return Status::kOk;
}

bool has_non_finite(ConstTensorView a) noexcept {
  for (float v : a.data)
    if (!std::isfinite(v)) return true;
  return false;
}

Status copy(ConstTensorView src, TensorView dst) noexcept {
  if (src.shape != dst.shape || !src.valid() || !dst.valid())
    return Status::kShapeMismatch;
  const std::size_t n = src.data.size();
  const float* ps = src.data.data();
  float* pd = dst.data.data();
  for (std::size_t i = 0; i < n; ++i) pd[i] = ps[i];
  return Status::kOk;
}

}  // namespace sx::tensor
