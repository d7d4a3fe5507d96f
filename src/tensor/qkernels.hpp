// Deploy-time-planned int8 kernels: wide-panel int8 x int8 -> int32
// matvec/GEMM and the ragged-im2col Conv2d lowering with fused
// requantize(+ReLU) epilogues (pillar 3: the quantized deployment path).
//
// Every kernel preserves the *per-output accumulation order* of the
// reference loops in dl/quant.cpp: each output element accumulates the same
// int8 products in the same sequence into one int32 chain, and is finished
// by a requantization expression character-identical to the reference
// epilogue — so planned and reference QuantizedModel runs are bitwise
// identical (dl_quant_kernels_test proves this differentially). Because
// int32 accumulation of in-range products is exact, order preservation here
// is about keeping the overflow envelope identical to the audited reference
// loop, not about rounding.
//
//   - row blocking: kQWideRowBlock independent int32 accumulation chains
//     per sweep break the serial dependency chain of the reference loop
//     (ILP) and stream the quantized input vector once per block;
//   - deploy-time im2col: the dtype-agnostic geometry and index tables of
//     tensor/kernels.hpp (Conv2dGeom, build_im2col_tables, ConvTables) are
//     reused verbatim — only the gather and the GEMM change element type;
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
// panel sizes come from the *_bytes() planners so dl::QuantKernelPlan can
// place everything in deploy-time storage and the engine's byte arena.
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

// --------------------------------------------------------------- Conv2d

/// The int8 hot-path gather: col[e] = in[in_idx[e]] over the ragged
/// deploy-time table built by kernels::build_im2col_tables (the index
/// tables are element-type-agnostic; only the gather changes dtype).
void im2col_gather_i8(const std::int8_t* in, const std::uint32_t* in_idx,
                      std::size_t entries, std::int8_t* col) noexcept;

// ------------------------------------------------- Wide (kWide) backends
//
// Widened int8 x int8 -> int32 dot-product microkernels: 32-row Dense
// blocks and 16-channel (plus one 8-channel half) Conv2d lane groups, each
// in three variants that compute the *identical* fixed accumulation tree —
// a portable scalar arm, a 16-byte-load AVX2-class sweep, and a
// 32-byte-load AVX-512-class sweep. One output element is always one serial int32 chain in strict
// reference order; the SIMD runs independent chains side by side
// (broadcast multiplicand, sign-extended lane loads, no partial-sum
// restructuring), so the overflow envelope matches the audited reference
// loop exactly and all variants are bitwise identical. Variant selection
// happens once at deploy time (platform::CpuProbe); on non-x86 builds the
// SIMD entry points are the scalar arm.

/// Output rows per wide Dense sweep (32 int8 lanes = one 256-bit load or
/// two 128-bit loads per column), output channels per wide Conv2d lane
/// group (16 int8 lanes = one 128-bit load per tap), and per wide Conv2d
/// half group (8 lanes = one 64-bit load per tap), which runs once after
/// the full groups whenever at least 8 channels remain.
inline constexpr std::size_t kQWideRowBlock = 32;
inline constexpr std::size_t kQWideConvLanes = 16;
inline constexpr std::size_t kQWideHalfLanes = 8;

/// Bytes needed for the wide row-blocked panel (blocks of kQWideRowBlock
/// rows, each 64-byte aligned; the tail block interleaved at its own row
/// count).
std::size_t qwide_dense_panel_bytes(std::size_t rows,
                                    std::size_t cols) noexcept;

/// Repacks row-major int8 weights into the wide panel layout
/// (panel[c * 32 + r] within a block); padding is zero-filled.
void pack_qwide_dense_panel(const std::int8_t* w, std::size_t rows,
                            std::size_t cols, std::int8_t* panel) noexcept;

/// out = requant(W x) over a wide panel — portable scalar arm: 32
/// independent int32 chains per block, each output row accumulating its
/// columns in strict ascending order exactly as the reference Dense loop
/// does. The canonical tree the SIMD variants below reproduce lane for
/// lane.
void qmatvec_wide_scalar(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept;

/// AVX2-class variant: four 8-lane int32 accumulators per block, 8-byte
/// sign-extended lane loads. Bitwise identical to the scalar arm.
void qmatvec_wide_avx2(const std::int8_t* panel, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) noexcept;

/// AVX-512-class variant: two 16-lane int32 accumulators per block,
/// 16-byte sign-extended lane loads. Bitwise identical to the scalar arm.
void qmatvec_wide_avx512(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept;

/// Bytes needed for the wide tap-major conv lane panel: the full
/// kQWideConvLanes-channel groups, plus one kQWideHalfLanes-channel half
/// group when out_c % 16 >= 8 (each group 64-byte aligned). The last
/// out_c % 8 channels keep reading the live weights.
std::size_t qwide_conv_panel_bytes(std::size_t out_c,
                                   std::size_t patch) noexcept;

/// Repacks the natural out_c x patch int8 layout into 16-channel
/// tap-major groups, panel[g * align_up_bytes(patch * 16) + j * 16 + i],
/// followed by the half group at stride 8 when present.
void pack_qwide_conv_panel(const std::int8_t* wt, std::size_t out_c,
                           std::size_t patch, std::int8_t* panel) noexcept;

/// out[oc * opix + p] = requant over the pixel's taps, over the wide lane
/// panel (16-channel groups, then the 8-channel half group) — portable
/// scalar arm. The last out_c % 8 channels read the live int8 weights
/// `wt` (out_c x patch, natural layout) via the shared scalar sweeps;
/// the tables are shared with the float path.
void qconv2d_im2col_wide_scalar(const std::int8_t* panel,
                                const std::int8_t* wt,
                                const kernels::ConvTables& t,
                                const std::int8_t* col, const Requant& rq,
                                std::int8_t* out,
                                std::uint64_t* sat) noexcept;

/// AVX2-class variant: two 8-lane int32 accumulators per group, one per
/// half group.
void qconv2d_im2col_wide_avx2(const std::int8_t* panel,
                              const std::int8_t* wt,
                              const kernels::ConvTables& t,
                              const std::int8_t* col, const Requant& rq,
                              std::int8_t* out, std::uint64_t* sat) noexcept;

/// AVX-512-class variant: one 16-lane int32 accumulator per group; the
/// half group runs on one 8-lane (256-bit) accumulator.
void qconv2d_im2col_wide_avx512(const std::int8_t* panel,
                                const std::int8_t* wt,
                                const kernels::ConvTables& t,
                                const std::int8_t* col, const Requant& rq,
                                std::int8_t* out,
                                std::uint64_t* sat) noexcept;

/// Per-step int8 kernel entry points resolved once at plan-construction
/// time so the engine hot path stays branch-free. Conv kernels take both
/// the panel and the live weights (the tail channels read live).
using QDenseKernelFn = void (*)(const std::int8_t* panel,
                                std::size_t rows, std::size_t cols,
                                const std::int8_t* x, const Requant& rq,
                                std::int8_t* out,
                                std::uint64_t* sat) noexcept;
using QConvKernelFn = void (*)(const std::int8_t* panel,
                               const std::int8_t* wt,
                               const kernels::ConvTables& t,
                               const std::int8_t* col, const Requant& rq,
                               std::int8_t* out,
                               std::uint64_t* sat) noexcept;

/// The wide kernel family for a probed/selected ISA (deploy-time only).
QDenseKernelFn wide_qdense_kernel(kernels::WideIsa isa) noexcept;
QConvKernelFn wide_qconv_kernel(kernels::WideIsa isa) noexcept;

}  // namespace sx::tensor::qkernels
