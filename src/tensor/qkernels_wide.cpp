// kWide int8 microkernels: widened int8 x int8 -> int32 dot products with
// fused requantize. 32-row Dense blocks and 16-channel Conv2d lane groups
// (plus one 8-channel half group) in three variants — portable scalar
// arm, AVX2-class (8-byte sign-extended lane loads into 256-bit int32
// accumulators), AVX-512-class (16-byte lane loads into 512-bit
// accumulators; the half group keeps one 256-bit accumulator).
//
// Determinism contract: one output element is always one serial int32
// chain in strict reference order (ascending columns / table-order taps).
// The SIMD variants sign-extend each int8 lane load to int32
// (__builtin_convertvector) and fold the broadcast multiplicand into each
// lane's own accumulator only — no horizontal reductions, no partial-sum
// restructuring — so the per-chain sequence of int32 additions, and hence
// the overflow envelope, is *identical* to the scalar arm and to the
// audited reference loop in dl/quant.cpp. Int32 accumulation of in-range
// products is exact, so bitwise identity across variants follows by
// construction; dl_quant_kernels_wide_test proves it differentially.
//
// This TU is compiled with -ffp-contract=off alongside kernels_wide.cpp;
// the requantize epilogue is float math and must keep the reference's
// two-rounding a*b+c shape.
#include "tensor/qkernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SX_QWIDE_X86 1
#include <immintrin.h>
#else
#define SX_QWIDE_X86 0
#endif

namespace sx::tensor::qkernels {

namespace {

/// One kOc-channel sweep over every output pixel, sharing the gathered
/// int8 column. Interior pixels (full patch, w_ofs is the identity) take
/// the contiguous-weight fast path; clipped border pixels indirect through
/// w_ofs. Both walk the taps in table order == reference order (the table
/// construction in tensor/kernels.cpp mirrors the dl/quant.cpp skip).
template <std::size_t kOc>
inline void qconv_oc_sweep(const std::int8_t* wt,
                           const kernels::ConvTables& t,
                           const std::int8_t* col, const Requant& rq,
                           std::int8_t* out, std::size_t oc0,
                           std::uint64_t* sat) noexcept {
  const std::int8_t* w[kOc];
  for (std::size_t i = 0; i < kOc; ++i) w[i] = wt + (oc0 + i) * t.patch;
  std::int8_t* o[kOc];
  for (std::size_t i = 0; i < kOc; ++i) o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    std::int32_t acc[kOc] = {};
    const std::int8_t* c = col + base;
    if (taps == t.patch) {
      // 4x tap unroll on the contiguous fast path (interior pixels are the
      // overwhelming majority); tap order per channel stays ascending.
      std::size_t j = 0;
      for (; j + 4 <= taps; j += 4) {
        for (std::size_t u = 0; u < 4; ++u) {
          const std::int32_t v = c[j + u];
          for (std::size_t i = 0; i < kOc; ++i)
            acc[i] += static_cast<std::int32_t>(w[i][j + u]) * v;
        }
      }
      for (; j < taps; ++j) {
        const std::int32_t v = c[j];
        for (std::size_t i = 0; i < kOc; ++i)
          acc[i] += static_cast<std::int32_t>(w[i][j]) * v;
      }
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j) {
        const std::int32_t v = c[j];
        const std::size_t k = wo[j];
        for (std::size_t i = 0; i < kOc; ++i)
          acc[i] += static_cast<std::int32_t>(w[i][k]) * v;
      }
    }
    for (std::size_t i = 0; i < kOc; ++i)
      o[i][p] = requantize(acc[i], oc0 + i, rq, sat);
  }
}

/// Sweeps the 1..7 output channels oc..out_c left after the wide groups
/// and the 8-lane half group over the live weights.
inline void qconv_tail_sweep(const std::int8_t* wt,
                             const kernels::ConvTables& t,
                             const std::int8_t* col, const Requant& rq,
                             std::int8_t* out, std::size_t oc,
                             std::uint64_t* sat) noexcept {
  switch (t.out_c - oc) {
    case 1: qconv_oc_sweep<1>(wt, t, col, rq, out, oc, sat); break;
    case 2: qconv_oc_sweep<2>(wt, t, col, rq, out, oc, sat); break;
    case 3: qconv_oc_sweep<3>(wt, t, col, rq, out, oc, sat); break;
    case 4: qconv_oc_sweep<4>(wt, t, col, rq, out, oc, sat); break;
    case 5: qconv_oc_sweep<5>(wt, t, col, rq, out, oc, sat); break;
    case 6: qconv_oc_sweep<6>(wt, t, col, rq, out, oc, sat); break;
    case 7: qconv_oc_sweep<7>(wt, t, col, rq, out, oc, sat); break;
    default: break;
  }
}

typedef std::int32_t v8si __attribute__((vector_size(32)));
typedef std::int32_t v16si __attribute__((vector_size(64)));

/// Scalar tail block of the wide Dense kernel (rows % kQWideRowBlock,
/// interleaved at its own row count) — shared by every variant.
inline void qwide_dense_tail(const std::int8_t* blk, std::size_t r0,
                             std::size_t tail, std::size_t cols,
                             const std::int8_t* x, const Requant& rq,
                             std::int8_t* out, std::uint64_t* sat) noexcept {
  std::int32_t acc[kQWideRowBlock - 1] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const std::int32_t xv = x[c];
    const std::int8_t* lane = blk + c * tail;
    for (std::size_t i = 0; i < tail; ++i)
      acc[i] += static_cast<std::int32_t>(lane[i]) * xv;
  }
  for (std::size_t i = 0; i < tail; ++i)
    out[r0 + i] = requantize(acc[i], r0 + i, rq, sat);
}

}  // namespace

void im2col_gather_i8(const std::int8_t* in, const std::uint32_t* in_idx,
                      std::size_t entries, std::int8_t* col) noexcept {
  for (std::size_t e = 0; e < entries; ++e) col[e] = in[in_idx[e]];
}

std::size_t qwide_dense_panel_bytes(std::size_t rows,
                                    std::size_t cols) noexcept {
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  std::size_t bytes = full * align_up_bytes(kQWideRowBlock * cols);
  if (tail != 0) bytes += align_up_bytes(tail * cols);
  return bytes;
}

void pack_qwide_dense_panel(const std::int8_t* w, std::size_t rows,
                            std::size_t cols, std::int8_t* panel) noexcept {
  const std::size_t total = qwide_dense_panel_bytes(rows, cols);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0;  // padding
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  const std::size_t full_stride = align_up_bytes(kQWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    std::int8_t* blk = panel + b * full_stride;
    const std::int8_t* wb = w + b * kQWideRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < kQWideRowBlock; ++i)
        blk[c * kQWideRowBlock + i] = wb[i * cols + c];
  }
  if (tail != 0) {
    std::int8_t* blk = panel + full * full_stride;
    const std::int8_t* wb = w + full * kQWideRowBlock * cols;
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t i = 0; i < tail; ++i)
        blk[c * tail + i] = wb[i * cols + c];
  }
}

void qmatvec_wide_scalar(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  const std::size_t full_stride = align_up_bytes(kQWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const std::int8_t* blk = panel + b * full_stride;
    const std::size_t r = b * kQWideRowBlock;
    // Thirty-two independent int32 chains; chain r+i sums its columns in
    // strict ascending order — the exact tree the SIMD variants compute.
    std::int32_t acc[kQWideRowBlock] = {};
    const std::int8_t* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kQWideRowBlock) {
      const std::int32_t xv = x[c];
      for (std::size_t i = 0; i < kQWideRowBlock; ++i)
        acc[i] += static_cast<std::int32_t>(lane[i]) * xv;
    }
    for (std::size_t i = 0; i < kQWideRowBlock; ++i)
      out[r + i] = requantize(acc[i], r + i, rq, sat);
  }
  if (tail != 0)
    qwide_dense_tail(panel + full * full_stride, full * kQWideRowBlock,
                     tail, cols, x, rq, out, sat);
}

#if SX_QWIDE_X86

namespace {

// The sign-extending lane loads use the vpmovsxbd intrinsics directly:
// GCC scalarizes a generic __builtin_convertvector from int8 to int32
// (one movsbl + insert per lane), which is slower than the scalar arm.
// The value is identical either way — sign extension is exact — only the
// instruction selection changes.
__attribute__((target("avx2"))) inline v8si v8si_sx(
    const std::int8_t* p) noexcept {
  const __m256i w = _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  v8si v;
  __builtin_memcpy(&v, &w, sizeof v);
  return v;
}

// maskz with an all-ones mask (not _mm512_cvtepi8_epi32): the unmasked
// intrinsic's _mm512_undefined_epi32 passthrough trips GCC's
// -Wmaybe-uninitialized; a full maskz select is the same vpmovsxbd.
__attribute__((target("avx512f"))) inline v16si v16si_sx(
    const std::int8_t* p) noexcept {
  const __m512i w = _mm512_maskz_cvtepi8_epi32(
      static_cast<__mmask16>(-1),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  v16si v;
  __builtin_memcpy(&v, &w, sizeof v);
  return v;
}

}  // namespace

__attribute__((target("avx2")))
void qmatvec_wide_avx2(const std::int8_t* panel, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) noexcept {
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  const std::size_t full_stride = align_up_bytes(kQWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const std::int8_t* blk = panel + b * full_stride;
    const std::size_t r = b * kQWideRowBlock;
    // Four 8-lane int32 accumulators carry the 32 chains. Each column
    // sign-extends its 8-byte lane quarters and folds the broadcast
    // multiplicand vertically — per-chain addition order is untouched.
    v8si a0 = {}, a1 = {}, a2 = {}, a3 = {};
    const std::int8_t* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kQWideRowBlock) {
      const v8si xv = v8si{} + static_cast<std::int32_t>(x[c]);
      a0 += v8si_sx(lane) * xv;
      a1 += v8si_sx(lane + 8) * xv;
      a2 += v8si_sx(lane + 16) * xv;
      a3 += v8si_sx(lane + 24) * xv;
    }
    std::int32_t acc[kQWideRowBlock];
    __builtin_memcpy(acc, &a0, sizeof a0);
    __builtin_memcpy(acc + 8, &a1, sizeof a1);
    __builtin_memcpy(acc + 16, &a2, sizeof a2);
    __builtin_memcpy(acc + 24, &a3, sizeof a3);
    for (std::size_t i = 0; i < kQWideRowBlock; ++i)
      out[r + i] = requantize(acc[i], r + i, rq, sat);
  }
  if (tail != 0)
    qwide_dense_tail(panel + full * full_stride, full * kQWideRowBlock,
                     tail, cols, x, rq, out, sat);
}

__attribute__((target("avx512f")))
void qmatvec_wide_avx512(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  const std::size_t full = rows / kQWideRowBlock;
  const std::size_t tail = rows % kQWideRowBlock;
  const std::size_t full_stride = align_up_bytes(kQWideRowBlock * cols);
  for (std::size_t b = 0; b < full; ++b) {
    const std::int8_t* blk = panel + b * full_stride;
    const std::size_t r = b * kQWideRowBlock;
    // Two 16-lane int32 accumulators; 16-byte sign-extended lane loads.
    v16si lo = {}, hi = {};
    const std::int8_t* lane = blk;
    for (std::size_t c = 0; c < cols; ++c, lane += kQWideRowBlock) {
      const v16si xv = v16si{} + static_cast<std::int32_t>(x[c]);
      lo += v16si_sx(lane) * xv;
      hi += v16si_sx(lane + 16) * xv;
    }
    std::int32_t acc[kQWideRowBlock];
    __builtin_memcpy(acc, &lo, sizeof lo);
    __builtin_memcpy(acc + 16, &hi, sizeof hi);
    for (std::size_t i = 0; i < kQWideRowBlock; ++i)
      out[r + i] = requantize(acc[i], r + i, rq, sat);
  }
  if (tail != 0)
    qwide_dense_tail(panel + full * full_stride, full * kQWideRowBlock,
                     tail, cols, x, rq, out, sat);
}

#else  // !SX_QWIDE_X86: the SIMD entry points are the scalar arm itself.

void qmatvec_wide_avx2(const std::int8_t* panel, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) noexcept {
  qmatvec_wide_scalar(panel, rows, cols, x, rq, out, sat);
}

void qmatvec_wide_avx512(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  qmatvec_wide_scalar(panel, rows, cols, x, rq, out, sat);
}

#endif  // SX_QWIDE_X86

std::size_t qwide_conv_panel_bytes(std::size_t out_c,
                                   std::size_t patch) noexcept {
  std::size_t bytes =
      (out_c / kQWideConvLanes) * align_up_bytes(patch * kQWideConvLanes);
  if (out_c % kQWideConvLanes >= kQWideHalfLanes)
    bytes += align_up_bytes(patch * kQWideHalfLanes);
  return bytes;
}

void pack_qwide_conv_panel(const std::int8_t* wt, std::size_t out_c,
                           std::size_t patch, std::int8_t* panel) noexcept {
  const std::size_t total = qwide_conv_panel_bytes(out_c, patch);
  for (std::size_t i = 0; i < total; ++i) panel[i] = 0;  // padding
  // Tap-major lane group of `lanes` channels starting at oc0.
  auto pack_group = [&](std::int8_t* gp, std::size_t oc0,
                        std::size_t lanes) {
    for (std::size_t j = 0; j < patch; ++j)
      for (std::size_t i = 0; i < lanes; ++i)
        gp[j * lanes + i] = wt[(oc0 + i) * patch + j];
  };
  const std::size_t gstride = align_up_bytes(patch * kQWideConvLanes);
  const std::size_t groups = out_c / kQWideConvLanes;
  for (std::size_t g = 0; g < groups; ++g)
    pack_group(panel + g * gstride, g * kQWideConvLanes, kQWideConvLanes);
  if (out_c % kQWideConvLanes >= kQWideHalfLanes)
    pack_group(panel + groups * gstride, groups * kQWideConvLanes,
               kQWideHalfLanes);
}

namespace {

/// Signature shared by the per-variant lane-group sweeps.
using QWideGroupFn = void (*)(const std::int8_t* gp,
                              const kernels::ConvTables& t,
                              const std::int8_t* col, const Requant& rq,
                              std::int8_t* out, std::size_t oc0,
                              std::uint64_t* sat) noexcept;

/// The group schedule every wide conv variant shares: the full
/// kQWideConvLanes-channel groups, then one kQWideHalfLanes-channel half
/// group when at least that many channels remain, then the live-weight
/// tail sweep over the last 0..7 channels. Each channel is computed by
/// exactly one sweep, so the schedule changes timing only.
inline void qwide_conv_schedule(const std::int8_t* panel,
                                const std::int8_t* wt,
                                const kernels::ConvTables& t,
                                const std::int8_t* col, const Requant& rq,
                                std::int8_t* out, std::uint64_t* sat,
                                QWideGroupFn full,
                                QWideGroupFn half) noexcept {
  const std::size_t gstride = align_up_bytes(t.patch * kQWideConvLanes);
  const std::size_t groups = t.out_c / kQWideConvLanes;
  for (std::size_t g = 0; g < groups; ++g)
    full(panel + g * gstride, t, col, rq, out, g * kQWideConvLanes, sat);
  std::size_t oc = groups * kQWideConvLanes;
  if (t.out_c - oc >= kQWideHalfLanes) {
    half(panel + groups * gstride, t, col, rq, out, oc, sat);
    oc += kQWideHalfLanes;
  }
  qconv_tail_sweep(wt, t, col, rq, out, oc, sat);
}

/// Scalar core of one wide conv lane group of kLanes channels — the
/// canonical tree the SIMD group sweeps reproduce.
template <std::size_t kLanes>
void qwide_conv_group_scalar(const std::int8_t* gp,
                             const kernels::ConvTables& t,
                             const std::int8_t* col, const Requant& rq,
                             std::int8_t* out, std::size_t oc0,
                             std::uint64_t* sat) noexcept {
  std::int8_t* o[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    std::int32_t acc[kLanes] = {};
    const std::int8_t* c = col + base;
    if (taps == t.patch) {
      const std::int8_t* lane = gp;
      for (std::size_t j = 0; j < taps; ++j, lane += kLanes) {
        const std::int32_t v = c[j];
        for (std::size_t i = 0; i < kLanes; ++i)
          acc[i] += static_cast<std::int32_t>(lane[i]) * v;
      }
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j) {
        const std::int32_t v = c[j];
        const std::int8_t* lane = gp + wo[j] * kLanes;
        for (std::size_t i = 0; i < kLanes; ++i)
          acc[i] += static_cast<std::int32_t>(lane[i]) * v;
      }
    }
    for (std::size_t i = 0; i < kLanes; ++i)
      o[i][p] = requantize(acc[i], oc0 + i, rq, sat);
  }
}

}  // namespace

void qconv2d_im2col_wide_scalar(const std::int8_t* panel,
                                const std::int8_t* wt,
                                const kernels::ConvTables& t,
                                const std::int8_t* col, const Requant& rq,
                                std::int8_t* out,
                                std::uint64_t* sat) noexcept {
  qwide_conv_schedule(panel, wt, t, col, rq, out, sat,
                      &qwide_conv_group_scalar<kQWideConvLanes>,
                      &qwide_conv_group_scalar<kQWideHalfLanes>);
}

#if SX_QWIDE_X86

namespace {

/// One conv group of 16 (two) or 8 (one) channels on 256-bit int32
/// accumulators: every tap broadcasts the shared column value and folds
/// into its own lane only.
template <std::size_t kLanes>
__attribute__((target("avx2")))
void qwide_conv_group_avx2(const std::int8_t* gp,
                           const kernels::ConvTables& t,
                           const std::int8_t* col, const Requant& rq,
                           std::int8_t* out, std::size_t oc0,
                           std::uint64_t* sat) noexcept {
  static_assert(kLanes == 8 || kLanes == 16);
  std::int8_t* o[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    v8si lo = {}, hi = {};
    const std::int8_t* c = col + base;
    if (taps == t.patch) {
      const std::int8_t* lane = gp;
      for (std::size_t j = 0; j < taps; ++j, lane += kLanes) {
        const v8si v = v8si{} + static_cast<std::int32_t>(c[j]);
        lo += v8si_sx(lane) * v;
        if constexpr (kLanes == 16) hi += v8si_sx(lane + 8) * v;
      }
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j) {
        const v8si v = v8si{} + static_cast<std::int32_t>(c[j]);
        const std::int8_t* lane = gp + wo[j] * kLanes;
        lo += v8si_sx(lane) * v;
        if constexpr (kLanes == 16) hi += v8si_sx(lane + 8) * v;
      }
    }
    std::int32_t acc[kLanes];
    __builtin_memcpy(acc, &lo, sizeof lo);
    if constexpr (kLanes == 16) __builtin_memcpy(acc + 8, &hi, sizeof hi);
    for (std::size_t i = 0; i < kLanes; ++i)
      o[i][p] = requantize(acc[i], oc0 + i, rq, sat);
  }
}

/// One 16-channel conv group on a single 512-bit int32 accumulator.
__attribute__((target("avx512f")))
void qwide_conv_group_avx512(const std::int8_t* gp,
                             const kernels::ConvTables& t,
                             const std::int8_t* col, const Requant& rq,
                             std::int8_t* out, std::size_t oc0,
                             std::uint64_t* sat) noexcept {
  std::int8_t* o[kQWideConvLanes];
  for (std::size_t i = 0; i < kQWideConvLanes; ++i)
    o[i] = out + (oc0 + i) * t.opix;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    v16si acc = {};
    const std::int8_t* c = col + base;
    if (taps == t.patch) {
      const std::int8_t* lane = gp;
      for (std::size_t j = 0; j < taps; ++j, lane += kQWideConvLanes)
        acc += v16si_sx(lane) * (v16si{} + static_cast<std::int32_t>(c[j]));
    } else {
      const std::uint32_t* wo = t.w_ofs + base;
      for (std::size_t j = 0; j < taps; ++j)
        acc += v16si_sx(gp + wo[j] * kQWideConvLanes) *
               (v16si{} + static_cast<std::int32_t>(c[j]));
    }
    std::int32_t a[kQWideConvLanes];
    __builtin_memcpy(a, &acc, sizeof acc);
    for (std::size_t i = 0; i < kQWideConvLanes; ++i)
      o[i][p] = requantize(a[i], oc0 + i, rq, sat);
  }
}

}  // namespace

void qconv2d_im2col_wide_avx2(const std::int8_t* panel,
                              const std::int8_t* wt,
                              const kernels::ConvTables& t,
                              const std::int8_t* col, const Requant& rq,
                              std::int8_t* out,
                              std::uint64_t* sat) noexcept {
  qwide_conv_schedule(panel, wt, t, col, rq, out, sat,
                      &qwide_conv_group_avx2<kQWideConvLanes>,
                      &qwide_conv_group_avx2<kQWideHalfLanes>);
}

// The half group has 8 lanes: one 256-bit accumulator, the AVX2 sweep.
void qconv2d_im2col_wide_avx512(const std::int8_t* panel,
                                const std::int8_t* wt,
                                const kernels::ConvTables& t,
                                const std::int8_t* col, const Requant& rq,
                                std::int8_t* out,
                                std::uint64_t* sat) noexcept {
  qwide_conv_schedule(panel, wt, t, col, rq, out, sat,
                      &qwide_conv_group_avx512,
                      &qwide_conv_group_avx2<kQWideHalfLanes>);
}

#else  // !SX_QWIDE_X86

void qconv2d_im2col_wide_avx2(const std::int8_t* panel,
                              const std::int8_t* wt,
                              const kernels::ConvTables& t,
                              const std::int8_t* col, const Requant& rq,
                              std::int8_t* out,
                              std::uint64_t* sat) noexcept {
  qconv2d_im2col_wide_scalar(panel, wt, t, col, rq, out, sat);
}

void qconv2d_im2col_wide_avx512(const std::int8_t* panel,
                                const std::int8_t* wt,
                                const kernels::ConvTables& t,
                                const std::int8_t* col, const Requant& rq,
                                std::int8_t* out,
                                std::uint64_t* sat) noexcept {
  qconv2d_im2col_wide_scalar(panel, wt, t, col, rq, out, sat);
}

#endif  // SX_QWIDE_X86

QDenseKernelFn wide_qdense_kernel(kernels::WideIsa isa) noexcept {
  switch (isa) {
    case kernels::WideIsa::kAvx2: return &qmatvec_wide_avx2;
    case kernels::WideIsa::kAvx512: return &qmatvec_wide_avx512;
    case kernels::WideIsa::kScalar: break;
  }
  return &qmatvec_wide_scalar;
}

QConvKernelFn wide_qconv_kernel(kernels::WideIsa isa) noexcept {
  switch (isa) {
    case kernels::WideIsa::kAvx2: return &qconv2d_im2col_wide_avx2;
    case kernels::WideIsa::kAvx512: return &qconv2d_im2col_wide_avx512;
    case kernels::WideIsa::kScalar: break;
  }
  return &qconv2d_im2col_wide_scalar;
}

}  // namespace sx::tensor::qkernels
