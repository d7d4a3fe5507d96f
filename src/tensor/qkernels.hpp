// Deploy-time-planned int8 kernels: the wide-panel int8 x int8 -> int32
// Dense matvec and the direct Conv2d, both with fused requantize(+ReLU)
// epilogues (pillar 3: the quantized deployment path).
//
// Determinism contract: exact int32 sums. Every product of two int8
// values and every partial sum the kernels form is an integer that fits
// in int32 as long as the reduction length k_len satisfies the plan's
// bound k_len * 255 * 128 < 2^31 (qwide_bound_ok). Integer addition is
// associative and exact in that range, so *any* grouping of the products
// — four k per lane (vpdpbusd), two per lane (vpmaddwd, vpdpwssd), or the
// serial chain of the reference loop — yields the identical int32, which
// the epilogue then finishes with a requantization value-identical to the
// reference expression. Planned and reference QuantizedModel runs are
// therefore bitwise identical, clip counters included
// (dl_quant_kernels_wide_test proves this differentially on every arm).
// A step whose k_len fails the bound is planned on the scalar arm, which
// keeps the reference loop's own serial chain.
//
//   - Dense: one panel layout — each 32-row block stores 4 consecutive k
//     per output lane, zero-padded in k and in lanes, followed by the
//     per-lane correction 128 * sum(w) that the u8-shifted vpdpbusd arm
//     subtracts;
//   - Conv2d: the direct driver the float kernels use
//     (kernels_wide_conv_arm.h) — a lane is one output pixel, a clipped
//     kernel row is skipped and a clipped column is a lane that loads 0,
//     which adds exactly 0. The weights are read live from the model, so
//     a faulted weight reaches the next run without a repack;
//   - fused requantize epilogue: float(acc) * w_scale * in_scale + bias,
//     quantized at the layer's activation scale; an immediately following
//     int8 ReLU (out = q > 0 ? q : 0) folds into the same store. Both
//     expressions match dl/quant.cpp bit for bit;
//   - saturation counters: every requantization that clips to +/-127 is
//     counted through the caller's counter, giving the runtime measurement
//     that verify/range's static saturation-margin verdicts are
//     cross-checked against.
//
// All functions are allocation-free and operate on caller-provided buffers;
// the Dense panel size comes from qwide_dense_panel_bytes() so
// dl::QuantKernelPlan can place it in deploy-time storage.
// (This file is covered by sxlint's hot-path-alloc rule.)
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/kernels.hpp"

namespace sx::tensor::qkernels {

/// Panel alignment: 64 bytes == one cache line.
inline constexpr std::size_t kAlignBytes = 64;

constexpr std::size_t align_up_bytes(std::size_t n) noexcept {
  return (n + kAlignBytes - 1) / kAlignBytes * kAlignBytes;
}

/// Quantizes one float at `scale`, counting the clip into `*sat` when the
/// rounded magnitude exceeds 127. Value-identical to dl::quantize_value —
/// the expression is the reference round-half-away + clamp verbatim, with
/// the clip made observable for the saturation cross-check.
inline std::int8_t quantize_sat(float v, float scale,
                                std::uint64_t* sat) noexcept {
  const float q = v / scale;
  const float r = q >= 0.0f ? q + 0.5f : q - 0.5f;  // round half away
  // Clip in float, *before* the integer conversion: casting a float past
  // the int range is UB, and a degenerate scale or extreme accumulator
  // reaches it. The thresholds keep the reference semantics exactly —
  // trunc(r) exceeds +/-127 iff r >= 128 or r <= -128 — so every value the
  // unguarded cast handled keeps its bit pattern and saturation count
  // (NaN, previously UB, deterministically clips positive).
  if (!(r < 128.0f)) {
    if (sat != nullptr) ++*sat;
    return std::int8_t{127};
  }
  if (r <= -128.0f) {
    if (sat != nullptr) ++*sat;
    return std::int8_t{-127};
  }
  return static_cast<std::int8_t>(static_cast<int>(r));
}

/// Fused requantization parameters of one planned int8 layer. Pointer
/// members alias the QuantizedModel's live parameter storage.
struct Requant {
  const float* w_scales = nullptr;  ///< per output channel, or one entry
  bool per_channel = false;         ///< w_scales has one entry per channel
  const float* bias = nullptr;      ///< float bias (the reference epilogue
                                    ///< keeps bias in float — see quant.cpp)
  float in_scale = 1.0f;            ///< activation scale entering the layer
  float out_scale = 1.0f;           ///< activation scale after the layer
  bool relu = false;                ///< fused following int8 ReLU layer
};

/// Finishes one int32 accumulator for output channel `ch`: the reference
/// requantize expression, the optional fused ReLU, and the saturation
/// count. Bitwise identical to dl/quant.cpp's epilogue composed with its
/// ReLU layer (ReLU on int8 never re-quantizes, so fusing it after the
/// clamp is exact).
inline std::int8_t requantize(std::int32_t acc, std::size_t ch,
                              const Requant& rq, std::uint64_t* sat) noexcept {
  const float ws = rq.per_channel ? rq.w_scales[ch] : rq.w_scales[0];
  const float v =
      static_cast<float>(acc) * ws * rq.in_scale + rq.bias[ch];
  const std::int8_t q = quantize_sat(v, rq.out_scale, sat);
  return rq.relu ? (q > 0 ? q : std::int8_t{0}) : q;
}

// ------------------------------------------------- Wide (kWide) backends
//
// Exact int8 dot products in four arms:
//   - kScalar: the canonical per-chain loops — each output accumulates
//     its products in reference order (ascending columns / taps);
//   - kAvx2 / kAvx512Bw: vpmaddwd on int16-widened operands, two products
//     per int32 lane, 256-bit / 512-bit;
//   - kAvx512Vnni: Dense runs vpdpbusd, four k per int32 lane, on
//     activations shifted into u8 (x ^ 0x80 == x + 128) and corrected by
//     the panel's per-lane 128 * sum(w); Conv2d runs vpdpwssd.
// The SIMD conv arms pair input channels (ic, ic + 1) at one tap: each
// lane's int16 pair meets the tap's weight pair, staged from the live
// weights once per 8-channel block. The saturating vpmaddubsw /
// vpdpbusds are never used. Each SIMD arm finishes with a vectorised
// requantize epilogue value-identical to quantize_sat: cvtdq2ps, the
// reference mul/mul/add/div order (the TU is built with
// -ffp-contract=off), round-half-away by blend, a !(r < 128) / r <= -128
// clip that also sends NaN to +127, a truncating convert, the optional
// ReLU, and a clip count over the live lanes. The arm is selected once at
// deploy time (platform::select_wide_isa); on non-x86 builds the SIMD
// entry points are the scalar arm.

/// The int8 kernel arm of the wide family.
enum class QArm : std::uint8_t {
  kScalar,      ///< canonical per-chain loops, any machine
  kAvx2,        ///< vpmaddwd on 256-bit vectors
  kAvx512Bw,    ///< vpmaddwd on 512-bit vectors (AVX512BW+VL)
  kAvx512Vnni,  ///< vpdpbusd (Dense) / vpdpwssd (Conv2d), AVX512_VNNI+VL
};

const char* qarm_name(QArm arm) noexcept;

/// Output rows per Dense block (the last block is zero-padded to it).
inline constexpr std::size_t kQWideRowBlock = 32;
/// Consecutive k stored per output lane (one vpdpbusd int32 lane).
inline constexpr std::size_t kQWideQuad = 4;

/// Upper bound on |partial sum| over a reduction of k_len products of a
/// u8-shifted activation (0..255) and an int8 weight (|w| <= 128). Every
/// SIMD arm forms partial sums no larger than this.
constexpr std::uint64_t qwide_mac_bound(std::size_t k_len) noexcept {
  return static_cast<std::uint64_t>(k_len) * 255u * 128u;
}

/// True when the SIMD arms' regrouped sums provably equal the reference
/// chain: qwide_mac_bound(k_len) < 2^31.
constexpr bool qwide_bound_ok(std::size_t k_len) noexcept {
  return qwide_mac_bound(k_len) < (std::uint64_t{1} << 31);
}

/// Bytes of one Dense block: 4-k quads for `lanes` lanes (64-byte
/// aligned), then `lanes` int32 corrections (64-byte aligned).
std::size_t qwide_group_bytes(std::size_t lanes, std::size_t k_len) noexcept;

/// Bytes needed for the Dense panel: ceil(rows / 32) blocks of 32 lanes.
std::size_t qwide_dense_panel_bytes(std::size_t rows,
                                    std::size_t cols) noexcept;

/// Packs row-major int8 weights into the Dense panel. Within block b,
/// row b * 32 + i, column c sits at
/// blk[(c / 4) * 128 + i * 4 + c % 4]; padding is zero and the block's
/// corrections are recomputed from the weights.
void pack_qwide_dense_panel(const std::int8_t* w, std::size_t rows,
                            std::size_t cols, std::int8_t* panel) noexcept;

/// out = requant(W x) over a Dense panel. `x` holds exactly `cols` bytes
/// (never read past). All arms are bitwise identical to the reference
/// Dense loop.
void qmatvec_wide_scalar(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept;
void qmatvec_wide_avx2(const std::int8_t* panel, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) noexcept;
void qmatvec_wide_avx512bw(const std::int8_t* panel, std::size_t rows,
                           std::size_t cols, const std::int8_t* x,
                           const Requant& rq, std::int8_t* out,
                           std::uint64_t* sat) noexcept;
void qmatvec_wide_avx512vnni(const std::int8_t* panel, std::size_t rows,
                             std::size_t cols, const std::int8_t* x,
                             const Requant& rq, std::int8_t* out,
                             std::uint64_t* sat) noexcept;

/// Direct int8 Conv2d: out = requant(conv(in, wt)) in CHW layout over the
/// live natural-layout weights (out_c x in_c x k x k), one output pixel
/// per lane (4 scalar, 8 avx2, 16 avx512). No clipped lane reads memory,
/// so `in` may end at an unmapped page. Every arm is bitwise identical to
/// the reference Conv2d loop, clip counters included. A SIMD arm whose
/// staged weight pairs do not fit its 16 KB stack stage
/// (ceil(in_c / 2) * k * k > 512 taps of 8 channels) runs the scalar arm.
void qconv2d_direct_scalar(const std::int8_t* wt,
                           const kernels::Conv2dGeom& g,
                           const std::int8_t* in, const Requant& rq,
                           std::int8_t* out, std::uint64_t* sat) noexcept;
void qconv2d_direct_avx2(const std::int8_t* wt, const kernels::Conv2dGeom& g,
                         const std::int8_t* in, const Requant& rq,
                         std::int8_t* out, std::uint64_t* sat) noexcept;
void qconv2d_direct_avx512bw(const std::int8_t* wt,
                             const kernels::Conv2dGeom& g,
                             const std::int8_t* in, const Requant& rq,
                             std::int8_t* out, std::uint64_t* sat) noexcept;
void qconv2d_direct_avx512vnni(const std::int8_t* wt,
                               const kernels::Conv2dGeom& g,
                               const std::int8_t* in, const Requant& rq,
                               std::int8_t* out,
                               std::uint64_t* sat) noexcept;

/// Per-step int8 kernel entry points resolved once at plan-construction
/// time so the engine hot path stays branch-free.
using QDenseKernelFn = void (*)(const std::int8_t* panel,
                                std::size_t rows, std::size_t cols,
                                const std::int8_t* x, const Requant& rq,
                                std::int8_t* out,
                                std::uint64_t* sat) noexcept;
using QConvKernelFn = void (*)(const std::int8_t* wt,
                               const kernels::Conv2dGeom& g,
                               const std::int8_t* in, const Requant& rq,
                               std::int8_t* out,
                               std::uint64_t* sat) noexcept;

/// The kernel entry points of one arm (deploy-time only).
QDenseKernelFn wide_qdense_kernel(QArm arm) noexcept;
QConvKernelFn wide_qconv_kernel(QArm arm) noexcept;

}  // namespace sx::tensor::qkernels
