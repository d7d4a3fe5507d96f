// Deploy-time-planned numeric kernels: the wide-panel matvec family, a
// direct pixel-vectorized Conv2d and a planned MaxPool2d, with fused
// bias+activation epilogues.
//
// Every kernel here preserves the *per-output accumulation order* of the
// reference loops in tensor/ops.cpp and dl/layers.cpp: each output element
// is produced by the same sequence of multiply-adds on the same operands,
// so optimized and reference paths are bitwise identical and the golden
// vectors pinned in tensor_golden_test stay valid. The speedups come from
// order-preserving transformations only:
//
//   - row blocking (Dense): kWideRowBlock independent accumulation chains
//     per sweep break the single serial add chain of the reference loop
//     (ILP), and the input vector is streamed once per block instead of
//     once per row;
//   - pixel vectorization (Conv2d): a lane is one output pixel of a row,
//     and kWideConvLanes output channels share every input load. A clipped
//     kernel row is skipped for the whole vector; a clipped column is a
//     lane mask under which a lane keeps its accumulator bit for bit and
//     reads nothing -- the reference skip, so non-finite border weights
//     multiply exactly what the reference multiplies. Weights are read
//     live: no gather, tables, panel or scratch;
//   - fused epilogues: bias (already fused in the reference Dense/Conv2d)
//     plus an optional ReLU/Sigmoid/Tanh applied in the kernel tail, saving
//     one full tensor traversal per fused layer. The epilogue is
//     value-identical to the corresponding Layer::forward body.
//
// All functions are allocation-free and operate on caller-provided
// buffers; the Dense panel construction fills caller-owned storage sized
// by wide_dense_panel_floats(). The conv geometry below is shared with the
// int8 direct conv (tensor/qkernels.hpp), which runs the same driver.
// (This file is covered by sxlint's hot-path-alloc rule.)
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace sx::tensor::kernels {

/// Panel alignment in floats: 16 floats == one 64-byte cache line.
inline constexpr std::size_t kAlignFloats = 16;

constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

/// Fused activation applied in the kernel tail. Expressions match the
/// corresponding Layer::forward bodies bit for bit (including NaN
/// behaviour: relu(NaN) == 0.0f exactly as `v > 0 ? v : 0` yields).
enum class Epilogue : std::uint8_t { kNone, kRelu, kSigmoid, kTanh };

inline float apply_epilogue(float v, Epilogue ep) noexcept {
  switch (ep) {
    case Epilogue::kNone: return v;
    case Epilogue::kRelu: return v > 0.0f ? v : 0.0f;
    case Epilogue::kSigmoid: return 1.0f / (1.0f + std::exp(-v));
    case Epilogue::kTanh: return std::tanh(v);
  }
  return v;
}

// --------------------------------------------------------------- Conv2d

/// Static Conv2d geometry (CHW layout, square kernel, symmetric padding).
struct Conv2dGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0, k = 0, stride = 1, pad = 0;

  std::size_t out_h() const noexcept {
    return (in_h + 2 * pad - k) / stride + 1;
  }
  std::size_t out_w() const noexcept {
    return (in_w + 2 * pad - k) / stride + 1;
  }
  std::size_t opix() const noexcept { return out_h() * out_w(); }
  /// Full patch length (taps per output pixel when nothing is clipped).
  std::size_t patch() const noexcept { return in_c * k * k; }
};

// ------------------------------------------------- wide (kWide) backends

/// Microkernel lane family of the kWide backend, selected once at deploy
/// time by platform::select_wide_isa (CPU probe + SX_KERNEL_ISA override)
/// and recorded as audit evidence. Every family computes the *identical*
/// fixed accumulation tree — one serial ascending-column chain per output,
/// vectorized only across independent outputs — so outputs are bitwise
/// identical across families and to the kReference loops. kScalar is the
/// portable arm that runs on any machine (generic 4-lane vectors: SSE2 on
/// x86-64, NEON on aarch64, scalar code elsewhere).
enum class WideIsa : std::uint8_t {
  kScalar,  ///< portable arm of the wide accumulation tree
  kAvx2,    ///< 8-lane 256-bit float / 32-byte int8 microkernels
  kAvx512,  ///< 16-lane 512-bit float / 64-byte int8 microkernels
};

const char* wide_isa_name(WideIsa isa) noexcept;

/// Output rows (Dense) per wide sweep: one 16-lane (512-bit-class) group,
/// executed as 2 x 8 lanes on AVX2 and 4 x 4 lanes by the scalar arm.
inline constexpr std::size_t kWideRowBlock = 16;

/// Output channels per direct-conv block, float and int8: they share
/// every input load and run as independent accumulator chains. A last
/// block of out_c % 8 channels runs the same kernel at its own chain
/// count.
inline constexpr std::size_t kWideConvLanes = 8;

/// Floats needed for the wide row-blocked panel of a rows x cols Dense
/// weight matrix (full kWideRowBlock blocks plus an interleaved tail,
/// every block 64-byte aligned).
std::size_t wide_dense_panel_floats(std::size_t rows,
                                    std::size_t cols) noexcept;

/// Repacks the row-major weight matrix into the wide panel layout: full
/// blocks of kWideRowBlock rows interleaved column-major-within-block
/// (panel[c * 16 + r]), the tail block interleaved at its own row count.
void pack_wide_dense_panel(const float* w, std::size_t rows,
                           std::size_t cols, float* panel) noexcept;

/// y = W x + b over a wide panel — the portable scalar arm and the two
/// SIMD families; all three produce bitwise-identical outputs (the SIMD
/// variants fall back to the scalar arm on non-x86 builds). When `check`
/// is set, the pre-activation value of every output is screened with the
/// same predicate the engine's per-layer scan uses; returns false iff a
/// non-finite pre-activation was seen (the caller maps that to
/// Status::kNumericFault exactly where the reference path would).
bool matvec_wide_scalar(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept;
bool matvec_wide_avx2(const float* panel, const float* bias,
                      std::size_t rows, std::size_t cols, const float* x,
                      float* out, Epilogue ep, bool check) noexcept;
bool matvec_wide_avx512(const float* panel, const float* bias,
                        std::size_t rows, std::size_t cols, const float* x,
                        float* out, Epilogue ep, bool check) noexcept;

/// Direct Conv2d (see the file comment): out = act(bias + conv(in, wt))
/// in CHW layout over the live natural-layout weights (out_c x in_c x k x
/// k), one output pixel per lane (4 scalar, 8 avx2, 16 avx512). No masked
/// lane reads memory, so `in` may end at an unmapped page. Same
/// check/epilogue contract as the matvec kernels; the arms are bitwise
/// identical.
bool conv2d_direct_scalar(const float* wt, const float* bias,
                          const Conv2dGeom& g, const float* in, float* out,
                          Epilogue ep, bool check) noexcept;
bool conv2d_direct_avx2(const float* wt, const float* bias,
                        const Conv2dGeom& g, const float* in, float* out,
                        Epilogue ep, bool check) noexcept;
bool conv2d_direct_avx512(const float* wt, const float* bias,
                          const Conv2dGeom& g, const float* in, float* out,
                          Epilogue ep, bool check) noexcept;

/// MaxPool2d (window x window, stride = window) over a CHW tensor: each
/// output folds its window in the reference (dy, dx) order with
/// `v > m ? v : m` from -inf (float) or -128 (int8), so NaN is skipped and
/// the first of equal signed zeros wins. Window 2 runs as a deinterleaving
/// vector max over output rows. Max is exact: one body serves every arm.
void maxpool2d(const float* in, std::size_t c, std::size_t in_h,
               std::size_t in_w, std::size_t window, float* out) noexcept;
void maxpool2d(const std::int8_t* in, std::size_t c, std::size_t in_h,
               std::size_t in_w, std::size_t window,
               std::int8_t* out) noexcept;

// ------------------------------------------- hot-path dispatch pointers

/// Uniform Dense kernel shape of the matvec_wide_* family, so a plan can
/// resolve one pointer per step at deploy time and the hot path stays
/// branch-free.
using DenseKernelFn = bool (*)(const float* panel, const float* bias,
                               std::size_t rows, std::size_t cols,
                               const float* x, float* out, Epilogue ep,
                               bool check) noexcept;

/// Uniform Conv2d kernel shape of the conv2d_direct_* family.
using ConvKernelFn = bool (*)(const float* wt, const float* bias,
                              const Conv2dGeom& g, const float* in,
                              float* out, Epilogue ep, bool check) noexcept;

/// The wide Dense / Conv2d microkernel for one lane family — resolved
/// once at plan construction, never on the hot path.
DenseKernelFn wide_dense_kernel(WideIsa isa) noexcept;
ConvKernelFn wide_conv_kernel(WideIsa isa) noexcept;

}  // namespace sx::tensor::kernels
