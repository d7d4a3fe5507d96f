// kWide float microkernels: 8-lane (AVX2-class) and 16-lane
// (AVX-512-class) Dense panel kernels and direct Conv2d kernels, plus
// their portable scalar arm (generic vector_size(16) lanes: SSE2 on
// x86-64, NEON on aarch64, scalar code elsewhere).
//
// Determinism contract (the whole point of this file): each lane family
// computes the *identical* fixed accumulation tree. One output element is
// always one serial chain — bias, then every column/tap in strict
// ascending reference order — and the SIMD only runs independent chains
// side by side (broadcast multiplicand, one lane per output, no
// horizontal reductions). A Dense lane is one output row of a panel; a
// conv lane is one output pixel of a row, and a tap that the padding
// clips for that pixel is masked off the lane (the accumulator keeps its
// bits, nothing is loaded), which is the reference loop's skip. The
// scalar arm runs the same chains, so scalar/avx2/avx512 outputs are
// bitwise identical across machines, and all of them are bitwise
// identical to the kReference loops (tensor_kernels_wide_test proves both
// claims differentially).
//
// This translation unit is compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt): the target("avx512f")/target("avx2")
// function attributes make FMA available (as does NEON), and a contracted
// a*b+c rounds once instead of twice — which would silently fork the
// SIMD results from the reference loops. Keeping contraction off pins
// every arm to the reference's two-rounding chain.
#include "tensor/kernels.hpp"

#include <cmath>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define SX_WIDE_X86 1
#include <immintrin.h>
#else
#define SX_WIDE_X86 0
#endif

namespace sx::tensor::kernels {

namespace {

/// Screens a finished pre-activation accumulator (same predicate as
/// tensor::has_non_finite), applies the epilogue, stores. Returns the
/// updated ok flag rather than early-exiting: on a detected fault the
/// engine discards the whole buffer, and finishing the sweep keeps the
/// kernel's timing data-independent.
inline bool finish(float acc, float* out, Epilogue ep, bool check,
                   bool ok) noexcept {
  if (check && !std::isfinite(acc)) ok = false;
  *out = apply_epilogue(acc, ep);
  return ok;
}

typedef float v4sf __attribute__((vector_size(16)));
typedef float v8sf __attribute__((vector_size(32)));
typedef float v16sf __attribute__((vector_size(64)));

inline v4sf v4_load(const float* p) noexcept {
  v4sf v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

/// The rows % kWideRowBlock tail block (interleaved at its own row count
/// `tail`), shared by every arm: kGroups 4-row vector groups at the
/// tail's lane stride, then the last tail % 4 rows as scalar chains — all
/// in one column sweep, each row still one ascending-column chain.
template <std::size_t kGroups>
inline bool wide_dense_tail_sweep(const float* blk, const float* bias,
                                  std::size_t r0, std::size_t tail,
                                  std::size_t cols, const float* x,
                                  float* out, Epilogue ep, bool check,
                                  bool ok) noexcept {
  constexpr std::size_t kVec = 4 * kGroups;
  v4sf va[kGroups > 0 ? kGroups : 1];
  for (std::size_t g = 0; g < kGroups; ++g) va[g] = v4_load(bias + r0 + 4 * g);
  float acc[kWideRowBlock - 1];
  for (std::size_t i = kVec; i < tail; ++i) acc[i] = bias[r0 + i];
  const float* lane = blk;
  for (std::size_t c = 0; c < cols; ++c, lane += tail) {
    const float xv = x[c];
    for (std::size_t g = 0; g < kGroups; ++g)
      va[g] += v4_load(lane + 4 * g) * xv;
    for (std::size_t i = kVec; i < tail; ++i) acc[i] += lane[i] * xv;
  }
  for (std::size_t g = 0; g < kGroups; ++g)
    __builtin_memcpy(acc + 4 * g, &va[g], sizeof va[g]);
  for (std::size_t i = 0; i < tail; ++i)
    ok = finish(acc[i], out + r0 + i, ep, check, ok);
  return ok;
}

inline bool wide_dense_tail(const float* blk, const float* bias,
                            std::size_t r0, std::size_t tail,
                            std::size_t cols, const float* x, float* out,
                            Epilogue ep, bool check, bool ok) noexcept {
  switch (tail / 4) {
    case 0:
      return wide_dense_tail_sweep<0>(blk, bias, r0, tail, cols, x, out, ep,
                                      check, ok);
    case 1:
      return wide_dense_tail_sweep<1>(blk, bias, r0, tail, cols, x, out, ep,
                                      check, ok);
    case 2:
      return wide_dense_tail_sweep<2>(blk, bias, r0, tail, cols, x, out, ep,
                                      check, ok);
    default:
      return wide_dense_tail_sweep<3>(blk, bias, r0, tail, cols, x, out, ep,
                                      check, ok);
  }
}

}  // namespace

const char* wide_isa_name(WideIsa isa) noexcept {
  switch (isa) {
    case WideIsa::kScalar: return "scalar";
    case WideIsa::kAvx2: return "avx2";
    case WideIsa::kAvx512: return "avx512";
  }
  return "unknown";
}

std::size_t wide_dense_panel_floats(std::size_t rows,
                                    std::size_t cols) noexcept {
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  std::size_t floats = full * align_up(kWideRowBlock * cols);
  if (tail != 0) floats += align_up(tail * cols);
  return floats;
}

void pack_wide_dense_panel(const float* w, std::size_t rows,
                           std::size_t cols, float* panel) noexcept {
  const std::size_t total = wide_dense_panel_floats(rows, cols);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0.0f;  // padding
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  const std::size_t full_stride = align_up(kWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    float* blk = panel + b * full_stride;
    const float* wb = w + b * kWideRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < kWideRowBlock; ++i)
        blk[c * kWideRowBlock + i] = wb[i * cols + c];
  }
  if (tail != 0) {
    float* blk = panel + full * full_stride;
    const float* wb = w + full * kWideRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < tail; ++i)
        blk[c * tail + i] = wb[i * cols + c];
  }
}

bool matvec_wide_scalar(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept {
  bool ok = true;
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  const std::size_t full_stride = align_up(kWideRowBlock * cols);
  std::size_t b = 0;
  // Paired row blocks: eight independent 4-lane accumulators in flight,
  // enough chains to cover the vector-add latency. Each lane still folds
  // only its own row's products in ascending-column order (broadcast
  // multiplicand, vertical add) — exactly the tree the wider variants
  // below compute lane-for-lane; pairing changes scheduling only.
  for (; b + 2 <= full; b += 2) {
    const float* blk0 = panel + b * full_stride;
    const float* blk1 = blk0 + full_stride;
    const std::size_t r = b * kWideRowBlock;
    v4sf a0 = v4_load(bias + r), a1 = v4_load(bias + r + 4);
    v4sf a2 = v4_load(bias + r + 8), a3 = v4_load(bias + r + 12);
    v4sf a4 = v4_load(bias + r + 16), a5 = v4_load(bias + r + 20);
    v4sf a6 = v4_load(bias + r + 24), a7 = v4_load(bias + r + 28);
    for (std::size_t c = 0; c < cols; ++c) {
      const float xv = x[c];
      const float* l0 = blk0 + c * kWideRowBlock;
      const float* l1 = blk1 + c * kWideRowBlock;
      a0 += v4_load(l0) * xv;
      a1 += v4_load(l0 + 4) * xv;
      a2 += v4_load(l0 + 8) * xv;
      a3 += v4_load(l0 + 12) * xv;
      a4 += v4_load(l1) * xv;
      a5 += v4_load(l1 + 4) * xv;
      a6 += v4_load(l1 + 8) * xv;
      a7 += v4_load(l1 + 12) * xv;
    }
    const v4sf parts[] = {a0, a1, a2, a3, a4, a5, a6, a7};
    float acc[2 * kWideRowBlock];
    __builtin_memcpy(acc, parts, sizeof parts);
    for (std::size_t i = 0; i < 2 * kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  for (; b < full; ++b) {
    const float* blk = panel + b * full_stride;
    const std::size_t r = b * kWideRowBlock;
    // Leftover block: four 4-lane accumulators, one per 4 rows.
    v4sf a0 = v4_load(bias + r), a1 = v4_load(bias + r + 4);
    v4sf a2 = v4_load(bias + r + 8), a3 = v4_load(bias + r + 12);
    const float* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kWideRowBlock) {
      const float xv = x[c];
      a0 += v4_load(lane) * xv;
      a1 += v4_load(lane + 4) * xv;
      a2 += v4_load(lane + 8) * xv;
      a3 += v4_load(lane + 12) * xv;
    }
    const v4sf parts[] = {a0, a1, a2, a3};
    float acc[kWideRowBlock];
    __builtin_memcpy(acc, parts, sizeof parts);
    for (std::size_t i = 0; i < kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  if (tail != 0)
    ok = wide_dense_tail(panel + full * full_stride, bias,
                         full * kWideRowBlock, tail, cols, x, out, ep,
                         check, ok);
  return ok;
}

#if SX_WIDE_X86

namespace {

__attribute__((target("avx2"))) inline v8sf v8_load(const float* p) noexcept {
  v8sf v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

__attribute__((target("avx512f"))) inline v16sf v16_load(
    const float* p) noexcept {
  v16sf v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

__attribute__((target("avx2")))
bool matvec_wide_avx2(const float* panel, const float* bias,
                      std::size_t rows, std::size_t cols, const float* x,
                      float* out, Epilogue ep, bool check) noexcept {
  bool ok = true;
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t tail = rows % kWideRowBlock;
  const std::size_t full_stride = align_up(kWideRowBlock * cols);
  std::size_t b = 0;
  // Paired row blocks keep four independent 8-lane accumulators in
  // flight — enough chains to cover the vector-add latency that a single
  // serial chain per block would expose. Each lane still folds only its
  // own row's products in ascending-column order (broadcast multiplicand,
  // vertical add), so pairing changes instruction scheduling only, never
  // a per-output tree: bitwise identity to the scalar arm is preserved.
  for (; b + 2 <= full; b += 2) {
    const float* blk0 = panel + b * full_stride;
    const float* blk1 = blk0 + full_stride;
    const std::size_t r = b * kWideRowBlock;
    v8sf a0 = v8_load(bias + r);
    v8sf a1 = v8_load(bias + r + 8);
    v8sf a2 = v8_load(bias + r + 16);
    v8sf a3 = v8_load(bias + r + 24);
    for (std::size_t c = 0; c < cols; ++c) {
      const float xv = x[c];
      const float* l0 = blk0 + c * kWideRowBlock;
      const float* l1 = blk1 + c * kWideRowBlock;
      a0 += v8_load(l0) * xv;
      a1 += v8_load(l0 + 8) * xv;
      a2 += v8_load(l1) * xv;
      a3 += v8_load(l1 + 8) * xv;
    }
    float acc[2 * kWideRowBlock];
    __builtin_memcpy(acc, &a0, sizeof a0);
    __builtin_memcpy(acc + 8, &a1, sizeof a1);
    __builtin_memcpy(acc + 16, &a2, sizeof a2);
    __builtin_memcpy(acc + 24, &a3, sizeof a3);
    for (std::size_t i = 0; i < 2 * kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  for (; b < full; ++b) {
    const float* blk = panel + b * full_stride;
    const std::size_t r = b * kWideRowBlock;
    // Leftover block: two 8-lane accumulators, the original single-block
    // sweep.
    v8sf lo = v8_load(bias + r);
    v8sf hi = v8_load(bias + r + 8);
    const float* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kWideRowBlock) {
      const float xv = x[c];
      lo += v8_load(lane) * xv;
      hi += v8_load(lane + 8) * xv;
    }
    float acc[kWideRowBlock];
    __builtin_memcpy(acc, &lo, sizeof lo);
    __builtin_memcpy(acc + 8, &hi, sizeof hi);
    for (std::size_t i = 0; i < kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  if (tail != 0)
    ok = wide_dense_tail(panel + full * full_stride, bias,
                         full * kWideRowBlock, tail, cols, x, out, ep,
                         check, ok);
  return ok;
}

__attribute__((target("avx512f")))
bool matvec_wide_avx512(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept {
  bool ok = true;
  const std::size_t full = rows / kWideRowBlock;
  const std::size_t full_stride = align_up(kWideRowBlock * cols);
  std::size_t b = 0;
  // Four row blocks in flight: a single 16-lane accumulator per block is
  // one serial vector chain, so four of them are needed to cover the add
  // latency. Scheduling only — every per-output tree is still the scalar
  // arm's (and the contraction-off build keeps mul+add as two roundings;
  // see the file comment).
  for (; b + 4 <= full; b += 4) {
    const float* blk0 = panel + b * full_stride;
    const float* blk1 = blk0 + full_stride;
    const float* blk2 = blk1 + full_stride;
    const float* blk3 = blk2 + full_stride;
    const std::size_t r = b * kWideRowBlock;
    v16sf a0 = v16_load(bias + r);
    v16sf a1 = v16_load(bias + r + 16);
    v16sf a2 = v16_load(bias + r + 32);
    v16sf a3 = v16_load(bias + r + 48);
    for (std::size_t c = 0; c < cols; ++c) {
      const float xv = x[c];
      const std::size_t o = c * kWideRowBlock;
      a0 += v16_load(blk0 + o) * xv;
      a1 += v16_load(blk1 + o) * xv;
      a2 += v16_load(blk2 + o) * xv;
      a3 += v16_load(blk3 + o) * xv;
    }
    float acc[4 * kWideRowBlock];
    __builtin_memcpy(acc, &a0, sizeof a0);
    __builtin_memcpy(acc + 16, &a1, sizeof a1);
    __builtin_memcpy(acc + 32, &a2, sizeof a2);
    __builtin_memcpy(acc + 48, &a3, sizeof a3);
    for (std::size_t i = 0; i < 4 * kWideRowBlock; ++i)
      ok = finish(acc[i], out + r + i, ep, check, ok);
  }
  // The last full % 4 blocks and the tail are a panel of their own (same
  // block stride): the AVX2 sweep keeps two to four 8-lane chains in
  // flight there, where one 16-lane accumulator per block would be a
  // single serial chain.
  const std::size_t r = b * kWideRowBlock;
  const bool rest = matvec_wide_avx2(panel + b * full_stride, bias + r,
                                     rows - r, cols, x, out + r, ep, check);
  return ok && rest;
}

#else  // !SX_WIDE_X86: the SIMD entry points are the scalar arm itself.

bool matvec_wide_avx2(const float* panel, const float* bias,
                      std::size_t rows, std::size_t cols, const float* x,
                      float* out, Epilogue ep, bool check) noexcept {
  return matvec_wide_scalar(panel, bias, rows, cols, x, out, ep, check);
}

bool matvec_wide_avx512(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept {
  return matvec_wide_scalar(panel, bias, rows, cols, x, out, ep, check);
}

#endif  // SX_WIDE_X86

// ------------------------------------------------------------- Conv2d

namespace {

/// The float element of the direct conv driver (kernels_wide_conv_arm.h),
/// shared by the three arms: the live natural-layout weights, the bias
/// that seeds each chain, and the output with its epilogue and screen.
struct FloatTaps {
  using T = float;
  using W = float;
  static constexpr std::size_t kGroup = 1;
  const float* in;
  const float* wt;
  const float* bias;
  float* out;
  std::size_t stride, kk, wslab, opix;
  Epilogue ep;
  bool check;
  bool ok = true;

  const float* weights(std::size_t oc0, std::size_t ic) const noexcept {
    return wt + oc0 * wslab + ic * kk;
  }
  void begin_block(std::size_t, std::size_t) const noexcept {}
  /// The scalar epilogue over the live lanes (every epilogue the SIMD
  /// stores do not vectorize).
  template <typename V>
  void finish_lanes(const V& acc, float* o, std::size_t lanes) noexcept {
    float a[sizeof(V) / sizeof(float)];
    __builtin_memcpy(a, &acc, sizeof a);
    for (std::size_t j = 0; j < lanes; ++j)
      ok = finish(a[j], o + j, ep, check, ok);
  }
};

FloatTaps float_taps(const float* wt, const float* bias, const Conv2dGeom& g,
                     const float* in, float* out, Epilogue ep,
                     bool check) noexcept {
  const std::size_t kk = g.k * g.k;
  return FloatTaps{.in = in, .wt = wt, .bias = bias, .out = out,
                   .stride = g.stride, .kk = kk, .wslab = g.in_c * kk,
                   .opix = g.opix(), .ep = ep, .check = check};
}

}  // namespace

// The scalar arm: 4 lanes on generic vectors, a clipped lane kept by a
// select. The canonical tree the SIMD arms reproduce.
namespace scalar_arm {

typedef std::int32_t v4si __attribute__((vector_size(16)));

struct Lanes : FloatTaps {
  static constexpr std::size_t kLanes = 4;
  using V = v4sf;
  using M = v4si;

  M mask(std::uint32_t b) const noexcept {
    return (M{1, 2, 4, 8} & static_cast<int>(b)) != 0;
  }
  V load(const float* p, M m, bool full, bool) const noexcept {
    V x;
    if (full && stride == 1) {
      __builtin_memcpy(&x, p, sizeof x);
      return x;
    }
    for (std::size_t j = 0; j < kLanes; ++j)
      x[j] = m[j] != 0 ? p[j * stride] : 0.0f;
    return x;
  }
  static V bcast(float v) noexcept { return V{v, v, v, v}; }
  V init(std::size_t oc) const noexcept { return bcast(bias[oc]); }
  V weight(const float* wk, std::size_t c, std::size_t kx) const noexcept {
    return bcast(wk[c * wslab + kx]);
  }
  static V madd(V acc, M m, bool full, V w, V x) noexcept {
    return full ? acc + w * x : (m ? acc + w * x : acc);
  }
  void store(V acc, std::size_t oc, std::size_t pix,
             std::size_t lanes) noexcept {
    finish_lanes(acc, out + oc * opix + pix, lanes);
  }
};

#define SX_ARM_ATTR
#include "tensor/kernels_wide_conv_arm.h"
#undef SX_ARM_ATTR

}  // namespace scalar_arm

#if SX_WIDE_X86

// The avx2 arm: 8 lanes, maskload (a masked gather when strided) plus
// blendv on clipped columns.
namespace avx2_arm {

struct Lanes : FloatTaps {
  static constexpr std::size_t kLanes = 8;
  using V = __m256;
  using M = __m256i;

  __attribute__((target("avx2"))) static M mask(std::uint32_t b) noexcept {
    const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i v = _mm256_set1_epi32(static_cast<int>(b));
    return _mm256_cmpeq_epi32(_mm256_and_si256(v, bit), bit);
  }
  __attribute__((target("avx2"))) V load(const float* p, M m, bool,
                                         bool) const noexcept {
    if (stride == 1) return _mm256_maskload_ps(p, m);
    const __m256i idx =
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                           _mm256_set1_epi32(static_cast<int>(stride)));
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), p, idx,
                                    _mm256_castsi256_ps(m), 4);
  }
  __attribute__((target("avx2"))) V init(std::size_t oc) const noexcept {
    return _mm256_set1_ps(bias[oc]);
  }
  __attribute__((target("avx2"))) V weight(const float* wk, std::size_t c,
                                           std::size_t kx) const noexcept {
    return _mm256_set1_ps(wk[c * wslab + kx]);
  }
  __attribute__((target("avx2"))) static V madd(V acc, M m, bool full, V w,
                                                V x) noexcept {
    const V sum = _mm256_add_ps(acc, _mm256_mul_ps(w, x));
    return full ? sum : _mm256_blendv_ps(acc, sum, _mm256_castsi256_ps(m));
  }
  __attribute__((target("avx2"))) void store(V acc, std::size_t oc,
                                             std::size_t pix,
                                             std::size_t lanes) noexcept {
    float* o = out + oc * opix + pix;
    if (ep != Epilogue::kNone && ep != Epilogue::kRelu)
      return finish_lanes(acc, o, lanes);
    const auto valid = static_cast<int>((1u << lanes) - 1);
    if (check) {
      const V mag = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), acc);
      const V fin = _mm256_cmp_ps(mag, _mm256_set1_ps(__builtin_inff()),
                                  _CMP_LT_OQ);
      if ((_mm256_movemask_ps(fin) & valid) != valid) ok = false;
    }
    if (ep == Epilogue::kRelu) acc = _mm256_max_ps(acc, _mm256_setzero_ps());
    _mm256_maskstore_ps(o, mask(static_cast<std::uint32_t>(valid)), acc);
  }
};

#define SX_ARM_ATTR __attribute__((target("avx2")))
#include "tensor/kernels_wide_conv_arm.h"
#undef SX_ARM_ATTR

}  // namespace avx2_arm

// The avx512 arm: 16 lanes, a zero-masked load (a masked gather when
// strided) plus mask_add on clipped columns.
namespace avx512_arm {

struct Lanes : FloatTaps {
  static constexpr std::size_t kLanes = 16;
  using V = __m512;
  using M = __mmask16;

  static M mask(std::uint32_t b) noexcept { return static_cast<M>(b); }
  __attribute__((target("avx512f"))) V load(const float* p, M m, bool,
                                            bool) const noexcept {
    if (stride == 1) return _mm512_maskz_loadu_ps(m, p);
    const __m512i idx = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int>(stride)));
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m, idx, p, 4);
  }
  __attribute__((target("avx512f"))) V init(std::size_t oc) const noexcept {
    return _mm512_set1_ps(bias[oc]);
  }
  __attribute__((target("avx512f"))) V weight(const float* wk, std::size_t c,
                                              std::size_t kx) const noexcept {
    return _mm512_set1_ps(wk[c * wslab + kx]);
  }
  __attribute__((target("avx512f"))) static V madd(V acc, M m, bool, V w,
                                                   V x) noexcept {
    return _mm512_mask_add_ps(acc, m, acc, _mm512_mul_ps(w, x));
  }
  __attribute__((target("avx512f"))) void store(V acc, std::size_t oc,
                                                std::size_t pix,
                                                std::size_t lanes) noexcept {
    float* o = out + oc * opix + pix;
    if (ep != Epilogue::kNone && ep != Epilogue::kRelu)
      return finish_lanes(acc, o, lanes);
    const auto valid = static_cast<M>((1u << lanes) - 1);
    if (check) {
      const M fin = _mm512_cmp_ps_mask(
          _mm512_abs_ps(acc), _mm512_set1_ps(__builtin_inff()), _CMP_LT_OQ);
      if ((fin & valid) != valid) ok = false;
    }
    if (ep == Epilogue::kRelu)
      acc = _mm512_maskz_max_ps(valid, acc, _mm512_setzero_ps());
    _mm512_mask_storeu_ps(o, valid, acc);
  }
};

#define SX_ARM_ATTR __attribute__((target("avx512f")))
#include "tensor/kernels_wide_conv_arm.h"
#undef SX_ARM_ATTR

}  // namespace avx512_arm

#else  // !SX_WIDE_X86: the SIMD entry points are the scalar arm itself.

namespace avx2_arm = scalar_arm;
namespace avx512_arm = scalar_arm;

#endif  // SX_WIDE_X86

bool conv2d_direct_scalar(const float* wt, const float* bias,
                          const Conv2dGeom& g, const float* in, float* out,
                          Epilogue ep, bool check) noexcept {
  scalar_arm::Lanes ln{float_taps(wt, bias, g, in, out, ep, check)};
  scalar_arm::conv(ln, g);
  return ln.ok;
}

bool conv2d_direct_avx2(const float* wt, const float* bias,
                        const Conv2dGeom& g, const float* in, float* out,
                        Epilogue ep, bool check) noexcept {
  avx2_arm::Lanes ln{float_taps(wt, bias, g, in, out, ep, check)};
  avx2_arm::conv(ln, g);
  return ln.ok;
}

bool conv2d_direct_avx512(const float* wt, const float* bias,
                          const Conv2dGeom& g, const float* in, float* out,
                          Epilogue ep, bool check) noexcept {
  avx512_arm::Lanes ln{float_taps(wt, bias, g, in, out, ep, check)};
  avx512_arm::conv(ln, g);
  return ln.ok;
}

DenseKernelFn wide_dense_kernel(WideIsa isa) noexcept {
  switch (isa) {
    case WideIsa::kAvx2: return &matvec_wide_avx2;
    case WideIsa::kAvx512: return &matvec_wide_avx512;
    case WideIsa::kScalar: break;
  }
  return &matvec_wide_scalar;
}

ConvKernelFn wide_conv_kernel(WideIsa isa) noexcept {
  switch (isa) {
    case WideIsa::kAvx2: return &conv2d_direct_avx2;
    case WideIsa::kAvx512: return &conv2d_direct_avx512;
    case WideIsa::kScalar: break;
  }
  return &conv2d_direct_scalar;
}

}  // namespace sx::tensor::kernels
