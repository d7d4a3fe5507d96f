// kWide float microkernels: 8-lane (AVX2-class, GCC vector extensions
// vector_size(32)) and 16-lane (AVX-512-class, vector_size(64)) panel
// kernels plus their portable scalar arm (generic vector_size(16) lanes:
// SSE2 on x86-64, NEON on aarch64, scalar code elsewhere).
//
// Determinism contract (the whole point of this file): each lane family
// computes the *identical* fixed accumulation tree. One output element is
// always one serial chain — bias, then every column/tap in strict
// ascending reference order — and the SIMD only runs independent chains
// side by side (broadcast multiplicand, one lane per output, no
// horizontal reductions). The scalar arm walks the same panel with the
// same chains, so scalar/avx2/avx512 outputs are bitwise identical across
// machines, and all of them are bitwise identical to the kReference loops
// (tensor_kernels_wide_test proves both claims differentially).
//
// This translation unit is compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt): the target("avx512f")/target("avx2")
// function attributes make FMA available (as does NEON), and a contracted
// a*b+c rounds once instead of twice — which would silently fork the
// SIMD results from the reference loops. Keeping contraction off pins
// every arm to the reference's two-rounding chain.
#include "tensor/kernels.hpp"

#include <cmath>

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

/// One kOc sweep over every output pixel, sharing the gathered column.
/// Interior pixels (full patch, w_ofs is the identity) take the
/// contiguous-weight fast path; clipped border pixels indirect through
/// w_ofs. Both walk the taps in table order == reference order. Used for
/// the tail channels of every wide conv arm.
template <std::size_t kOc>
inline bool conv_oc_sweep(const float* wt, const float* bias,
                          const ConvTables& t, const float* col, float* out,
                          std::size_t oc0, Epilogue ep, bool check,
                          bool ok) noexcept {
  const float* w[kOc];
  for (std::size_t i = 0; i < kOc; ++i) w[i] = wt + (oc0 + i) * t.patch;
  float* o[kOc];
  for (std::size_t i = 0; i < kOc; ++i) o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    float acc[kOc];
    for (std::size_t i = 0; i < kOc; ++i) acc[i] = bias[oc0 + i];
    const float* c = col + base;
    if (taps == t.patch) {
      // 4x tap unroll on the contiguous fast path (interior pixels are the
      // overwhelming majority); each output channel's taps stay in strict
      // ascending order, so accumulation order is untouched.
      std::size_t j = 0;
      for (; j + 4 <= taps; j += 4) {
        for (std::size_t u = 0; u < 4; ++u) {
          const float v = c[j + u];
          for (std::size_t i = 0; i < kOc; ++i) acc[i] += w[i][j + u] * v;
        }
      }
      for (; j < taps; ++j) {
        const float v = c[j];
        for (std::size_t i = 0; i < kOc; ++i) acc[i] += w[i][j] * v;
      }
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j) {
        const float v = c[j];
        const std::size_t k = wo[j];
        for (std::size_t i = 0; i < kOc; ++i) acc[i] += w[i][k] * v;
      }
    }
    for (std::size_t i = 0; i < kOc; ++i)
      ok = finish(acc[i], o[i] + p, ep, check, ok);
  }
  return ok;
}

/// Dispatches the 1..3-channel conv tail left after the wide groups and
/// the half group through the templated sweep (reads live weights).
inline bool conv_tail_sweep(const float* wt, const float* bias,
                            const ConvTables& t, const float* col,
                            float* out, std::size_t oc0, Epilogue ep,
                            bool check, bool ok) noexcept {
  switch (t.out_c - oc0) {
    case 1: return conv_oc_sweep<1>(wt, bias, t, col, out, oc0, ep, check, ok);
    case 2: return conv_oc_sweep<2>(wt, bias, t, col, out, oc0, ep, check, ok);
    case 3: return conv_oc_sweep<3>(wt, bias, t, col, out, oc0, ep, check, ok);
    default: return ok;
  }
}

typedef float v4sf __attribute__((vector_size(16)));
typedef float v8sf __attribute__((vector_size(32)));
typedef float v16sf __attribute__((vector_size(64)));

#if defined(__x86_64__) || defined(__i386__)
#define SX_WIDE_X86 1
#else
#define SX_WIDE_X86 0
#endif

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

std::size_t wide_conv_panel_floats(std::size_t out_c,
                                   std::size_t patch) noexcept {
  std::size_t floats =
      (out_c / kWideConvLanes) * align_up(patch * kWideConvLanes);
  if (out_c % kWideConvLanes >= kWideHalfLanes)
    floats += align_up(patch * kWideHalfLanes);
  return floats;
}

void pack_wide_conv_panel(const float* wt, std::size_t out_c,
                          std::size_t patch, float* panel) noexcept {
  const std::size_t total = wide_conv_panel_floats(out_c, patch);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0.0f;  // padding
  // Tap-major lane group of `lanes` channels starting at oc0.
  auto pack_group = [&](float* gp, std::size_t oc0, std::size_t lanes) {
    for (std::size_t j = 0; j < patch; ++j)
      for (std::size_t i = 0; i < lanes; ++i)
        gp[j * lanes + i] = wt[(oc0 + i) * patch + j];
  };
  const std::size_t gstride = align_up(patch * kWideConvLanes);
  const std::size_t groups = out_c / kWideConvLanes;
  for (std::size_t g = 0; g < groups; ++g)
    pack_group(panel + g * gstride, g * kWideConvLanes, kWideConvLanes);
  if (out_c % kWideConvLanes >= kWideHalfLanes)
    pack_group(panel + groups * gstride, groups * kWideConvLanes,
               kWideHalfLanes);
}

namespace {

/// Everything after the full groups, shared by every arm: the 4-lane half
/// group on one generic vector accumulator when at least kWideHalfLanes
/// channels remain, then the last 0..3 channels from the live weights.
/// Each channel is computed by exactly one sweep.
inline bool wide_conv_rest(const float* panel, const float* wt,
                           const float* bias, const ConvTables& t,
                           const float* col, float* out, Epilogue ep,
                           bool check, bool ok) noexcept {
  const std::size_t groups = t.out_c / kWideConvLanes;
  std::size_t oc0 = groups * kWideConvLanes;
  if (t.out_c - oc0 >= kWideHalfLanes) {
    const float* gp = panel + groups * align_up(t.patch * kWideConvLanes);
    float* o[kWideHalfLanes];
    for (std::size_t i = 0; i < kWideHalfLanes; ++i)
      o[i] = out + (oc0 + i) * t.opix;
    for (std::size_t p = 0; p < t.opix; ++p) {
      const std::size_t base = t.pix_off[p];
      const std::size_t taps = t.pix_off[p + 1] - base;
      v4sf acc = v4_load(bias + oc0);
      const float* c = col + base;
      if (taps == t.patch) {
        const float* lane = gp;
        for (std::size_t j = 0; j < taps; ++j, lane += kWideHalfLanes)
          acc += v4_load(lane) * c[j];
      } else {
        const std::uint32_t* wo = t.w_ofs + base;
        for (std::size_t j = 0; j < taps; ++j)
          acc += v4_load(gp + wo[j] * kWideHalfLanes) * c[j];
      }
      float a[kWideHalfLanes];
      __builtin_memcpy(a, &acc, sizeof acc);
      for (std::size_t i = 0; i < kWideHalfLanes; ++i)
        ok = finish(a[i], o[i] + p, ep, check, ok);
    }
    oc0 += kWideHalfLanes;
  }
  return conv_tail_sweep(wt, bias, t, col, out, oc0, ep, check, ok);
}

/// Scalar core of one wide conv lane group — the canonical tree the SIMD
/// group sweeps reproduce.
inline bool wide_conv_group_scalar(const float* gp, const float* bias,
                                   const ConvTables& t, const float* col,
                                   float* out, std::size_t oc0, Epilogue ep,
                                   bool check, bool ok) noexcept {
  float* o[kWideConvLanes];
  for (std::size_t i = 0; i < kWideConvLanes; ++i)
    o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    float acc[kWideConvLanes];
    for (std::size_t i = 0; i < kWideConvLanes; ++i)
      acc[i] = bias[oc0 + i];
    const float* c = col + base;
    if (taps == t.patch) {
      const float* lane = gp;
      for (std::size_t j = 0; j < taps; ++j, lane += kWideConvLanes) {
        const float v = c[j];
        for (std::size_t i = 0; i < kWideConvLanes; ++i)
          acc[i] += lane[i] * v;
      }
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j) {
        const float v = c[j];
        const float* lane = gp + wo[j] * kWideConvLanes;
        for (std::size_t i = 0; i < kWideConvLanes; ++i)
          acc[i] += lane[i] * v;
      }
    }
    for (std::size_t i = 0; i < kWideConvLanes; ++i)
      ok = finish(acc[i], o[i] + p, ep, check, ok);
  }
  return ok;
}

}  // namespace

bool conv2d_im2col_wide_scalar(const float* panel, const float* wt,
                               const float* bias, const ConvTables& t,
                               const float* col, float* out, Epilogue ep,
                               bool check) noexcept {
  bool ok = true;
  const std::size_t gstride = align_up(t.patch * kWideConvLanes);
  const std::size_t groups = t.out_c / kWideConvLanes;
  for (std::size_t g = 0; g < groups; ++g)
    ok = wide_conv_group_scalar(panel + g * gstride, bias, t, col, out,
                                g * kWideConvLanes, ep, check, ok);
  return wide_conv_rest(panel, wt, bias, t, col, out, ep, check, ok);
}

#if SX_WIDE_X86

namespace {

/// One 8-lane conv group on 256-bit vectors: every tap broadcasts the
/// shared column value and folds into its own channel lane only.
__attribute__((target("avx2")))
inline bool wide_conv_group_avx2(const float* gp, const float* bias,
                                 const ConvTables& t, const float* col,
                                 float* out, std::size_t oc0, Epilogue ep,
                                 bool check, bool ok) noexcept {
  float* o[kWideConvLanes];
  for (std::size_t i = 0; i < kWideConvLanes; ++i)
    o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    v8sf acc = v8_load(bias + oc0);
    const float* c = col + base;
    if (taps == t.patch) {
      const float* lane = gp;
      for (std::size_t j = 0; j < taps; ++j, lane += kWideConvLanes)
        acc += v8_load(lane) * c[j];
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j)
        acc += v8_load(gp + wo[j] * kWideConvLanes) * c[j];
    }
    float a[kWideConvLanes];
    __builtin_memcpy(a, &acc, sizeof acc);
    for (std::size_t i = 0; i < kWideConvLanes; ++i)
      ok = finish(a[i], o[i] + p, ep, check, ok);
  }
  return ok;
}

/// Two adjacent 8-lane groups per pixel sweep — 16 output channels in
/// flight per tap (the AVX-512-class working set). The chains stay
/// per-channel serial; pairing only adds ILP.
__attribute__((target("avx512f")))
inline bool wide_conv_group_pair_avx512(const float* gp0, const float* gp1,
                                        const float* bias,
                                        const ConvTables& t,
                                        const float* col, float* out,
                                        std::size_t oc0, Epilogue ep,
                                        bool check, bool ok) noexcept {
  float* o[2 * kWideConvLanes];
  for (std::size_t i = 0; i < 2 * kWideConvLanes; ++i)
    o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    v8sf acc0 = v8_load(bias + oc0);
    v8sf acc1 = v8_load(bias + oc0 + kWideConvLanes);
    const float* c = col + base;
    if (taps == t.patch) {
      const float* lane0 = gp0;
      const float* lane1 = gp1;
      for (std::size_t j = 0; j < taps;
           ++j, lane0 += kWideConvLanes, lane1 += kWideConvLanes) {
        const float v = c[j];
        acc0 += v8_load(lane0) * v;
        acc1 += v8_load(lane1) * v;
      }
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j) {
        const float v = c[j];
        acc0 += v8_load(gp0 + wo[j] * kWideConvLanes) * v;
        acc1 += v8_load(gp1 + wo[j] * kWideConvLanes) * v;
      }
    }
    float a[2 * kWideConvLanes];
    __builtin_memcpy(a, &acc0, sizeof acc0);
    __builtin_memcpy(a + kWideConvLanes, &acc1, sizeof acc1);
    for (std::size_t i = 0; i < 2 * kWideConvLanes; ++i)
      ok = finish(a[i], o[i] + p, ep, check, ok);
  }
  return ok;
}

}  // namespace

bool conv2d_im2col_wide_avx2(const float* panel, const float* wt,
                             const float* bias, const ConvTables& t,
                             const float* col, float* out, Epilogue ep,
                             bool check) noexcept {
  bool ok = true;
  const std::size_t gstride = align_up(t.patch * kWideConvLanes);
  const std::size_t groups = t.out_c / kWideConvLanes;
  for (std::size_t g = 0; g < groups; ++g)
    ok = wide_conv_group_avx2(panel + g * gstride, bias, t, col, out,
                              g * kWideConvLanes, ep, check, ok);
  return wide_conv_rest(panel, wt, bias, t, col, out, ep, check, ok);
}

bool conv2d_im2col_wide_avx512(const float* panel, const float* wt,
                               const float* bias, const ConvTables& t,
                               const float* col, float* out, Epilogue ep,
                               bool check) noexcept {
  bool ok = true;
  const std::size_t gstride = align_up(t.patch * kWideConvLanes);
  const std::size_t groups = t.out_c / kWideConvLanes;
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2)
    ok = wide_conv_group_pair_avx512(panel + g * gstride,
                                     panel + (g + 1) * gstride, bias, t,
                                     col, out, g * kWideConvLanes, ep,
                                     check, ok);
  for (; g < groups; ++g)
    ok = wide_conv_group_avx2(panel + g * gstride, bias, t, col, out,
                              g * kWideConvLanes, ep, check, ok);
  return wide_conv_rest(panel, wt, bias, t, col, out, ep, check, ok);
}

#else  // !SX_WIDE_X86

bool conv2d_im2col_wide_avx2(const float* panel, const float* wt,
                             const float* bias, const ConvTables& t,
                             const float* col, float* out, Epilogue ep,
                             bool check) noexcept {
  return conv2d_im2col_wide_scalar(panel, wt, bias, t, col, out, ep, check);
}

bool conv2d_im2col_wide_avx512(const float* panel, const float* wt,
                               const float* bias, const ConvTables& t,
                               const float* col, float* out, Epilogue ep,
                               bool check) noexcept {
  return conv2d_im2col_wide_scalar(panel, wt, bias, t, col, out, ep, check);
}

#endif  // SX_WIDE_X86

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
    case WideIsa::kAvx2: return &conv2d_im2col_wide_avx2;
    case WideIsa::kAvx512: return &conv2d_im2col_wide_avx512;
    case WideIsa::kScalar: break;
  }
  return &conv2d_im2col_wide_scalar;
}

}  // namespace sx::tensor::kernels
