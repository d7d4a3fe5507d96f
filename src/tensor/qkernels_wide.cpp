// kWide int8 microkernels: exact int8 x int8 -> int32 dot products with a
// fused requantize epilogue, in four arms:
//   - scalar: the canonical per-chain loops;
//   - avx2 / avx512bw: vpmaddwd on int16-widened operands (two products
//     per int32 lane);
//   - avx512vnni: Dense runs vpdpbusd (four k per int32 lane) on
//     activations shifted into u8 by x ^ 0x80, minus the panel's per-lane
//     128 * sum(w); Conv2d runs vpdpwssd on int16 pairs.
// Dense reads a 4-k quad panel (zero-padded in k and in lanes). Conv2d is
// the direct driver of kernels_wide_conv_arm.h over the live weights: a
// lane is one output pixel, and the SIMD arms multiply the int16 pair of
// input channels (ic, ic + 1) at one tap against that tap's staged weight
// pair, so a clipped lane loads 0 and adds exactly 0.
//
// Determinism contract: exact int32 sums. An int8 x int8 product and
// every partial sum below are integers of magnitude at most
// k_len * 255 * 128, which the plan requires to stay under 2^31
// (qwide_bound_ok; a step that fails it runs on the scalar arm). In that
// range int32 addition is exact and associative, so any grouping of the
// products — pairs, quads, the u8 shift and its correction — equals the
// reference's serial chain bit for bit. The saturating vpmaddubsw /
// vpdpbusds are never used. The epilogue is float math and must keep the
// reference's separately rounded mul/mul/add/div, so this TU is compiled
// with -ffp-contract=off; dl_quant_kernels_wide_test proves identity to
// QuantizedModel::apply_layer on every probed arm.
#include "tensor/qkernels.hpp"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define SX_QWIDE_X86 1
#include <immintrin.h>
#else
#define SX_QWIDE_X86 0
#endif

namespace sx::tensor::qkernels {

const char* qarm_name(QArm arm) noexcept {
  switch (arm) {
    case QArm::kScalar: return "scalar";
    case QArm::kAvx2: return "avx2";
    case QArm::kAvx512Bw: return "avx512bw";
    case QArm::kAvx512Vnni: return "avx512vnni";
  }
  return "scalar";
}

namespace {

constexpr std::size_t quads(std::size_t k_len) noexcept {
  return (k_len + kQWideQuad - 1) / kQWideQuad;
}

/// Bytes of a group's weight quads (its corrections follow).
constexpr std::size_t weight_bytes(std::size_t lanes,
                                   std::size_t k_len) noexcept {
  return align_up_bytes(kQWideQuad * quads(k_len) * lanes);
}

inline const std::int32_t* corrections(const std::int8_t* gp,
                                       std::size_t wbytes) noexcept {
  return reinterpret_cast<const std::int32_t*>(gp + wbytes);
}

/// Packs `real` rows of k_len int8 weights (row i at w + i * k_len) into
/// one zero-padded group of `lanes` lanes and stores each lane's
/// correction 128 * sum(w) after the quads.
void pack_group(const std::int8_t* w, std::size_t real, std::size_t lanes,
                std::size_t k_len, std::int8_t* gp) noexcept {
  const std::size_t wbytes = weight_bytes(lanes, k_len);
  const std::size_t total = qwide_group_bytes(lanes, k_len);
  for (std::size_t i = 0; i < total; ++i) gp[i] = 0;
  std::int32_t corr[kQWideRowBlock] = {};
  for (std::size_t i = 0; i < real; ++i) {
    std::int64_t sum = 0;
    for (std::size_t c = 0; c < k_len; ++c) {
      const std::int8_t v = w[i * k_len + c];
      gp[c / kQWideQuad * kQWideQuad * lanes + i * kQWideQuad +
         c % kQWideQuad] = v;
      sum += v;
    }
    // Exact within the plan's bound; past it only the scalar arm runs,
    // which never reads the correction.
    corr[i] = static_cast<std::int32_t>(128 * sum);
  }
  std::memcpy(gp + wbytes, corr, lanes * sizeof(std::int32_t));
}

inline std::uint32_t load_quad(const std::int8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The n < 4 bytes at p as a quad with zero upper bytes; never reads
/// past p + n.
inline std::uint32_t load_partial_quad(const std::int8_t* p,
                                       std::size_t n) noexcept {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < n; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

}  // namespace

std::size_t qwide_group_bytes(std::size_t lanes, std::size_t k_len) noexcept {
  return weight_bytes(lanes, k_len) +
         align_up_bytes(lanes * sizeof(std::int32_t));
}

std::size_t qwide_dense_panel_bytes(std::size_t rows,
                                    std::size_t cols) noexcept {
  const std::size_t blocks = (rows + kQWideRowBlock - 1) / kQWideRowBlock;
  return blocks * qwide_group_bytes(kQWideRowBlock, cols);
}

void pack_qwide_dense_panel(const std::int8_t* w, std::size_t rows,
                            std::size_t cols, std::int8_t* panel) noexcept {
  const std::size_t gbytes = qwide_group_bytes(kQWideRowBlock, cols);
  for (std::size_t r0 = 0; r0 < rows; r0 += kQWideRowBlock) {
    const std::size_t real =
        rows - r0 < kQWideRowBlock ? rows - r0 : kQWideRowBlock;
    pack_group(w + r0 * cols, real, kQWideRowBlock, cols,
               panel + r0 / kQWideRowBlock * gbytes);
  }
}

// ------------------------------------------------------------ scalar arm

namespace {

// Generic 4-lane int32 vectors (SSE2 on x86-64, NEON on aarch64, scalar
// code elsewhere), one lane per output channel: a 16-byte load holds four
// lanes' quads. Shifting byte u of a lane to the top and back
// (arithmetic) sign-extends that lane's weight for k = 4q + u; the quad
// path does the same in 16-bit halves, where every int8 x int8 product
// is exact, so no 32-bit multiply is needed. Each lane still adds its
// products in ascending k — one serial chain.
typedef std::int32_t v4si __attribute__((vector_size(16)));
typedef std::int16_t v8hi __attribute__((vector_size(16)));

template <typename V>
inline V load16(const std::int8_t* p) noexcept {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// acc += w(., k) * v for the L lanes of one group.
template <std::size_t L>
inline void scalar_tap(v4si* acc, const std::int8_t* gp, std::size_t k,
                       std::int32_t v) noexcept {
  const std::int8_t* row = gp + k / kQWideQuad * kQWideQuad * L;
  const int up = static_cast<int>(8 * (3 - k % kQWideQuad));
  for (std::size_t n = 0; n < L / 4; ++n)
    acc[n] += ((load16<v4si>(row + 16 * n) << up) >> 24) * v;
}

/// The four taps of one quad row, in ascending k per lane.
template <std::size_t L>
inline void scalar_quad(v4si* acc, const std::int8_t* row,
                        const std::int8_t* x) noexcept {
  // 16-bit halves of each lane's quad: (k0, k1) and (k2, k3).
  const v8hi x_even = {x[0], x[2], x[0], x[2], x[0], x[2], x[0], x[2]};
  const v8hi x_odd = {x[1], x[3], x[1], x[3], x[1], x[3], x[1], x[3]};
  for (std::size_t n = 0; n < L / 4; ++n) {
    const v8hi w = load16<v8hi>(row + 16 * n);
    // int16 products of k0/k2 and k1/k3, exact (|w * x| <= 16384).
    v4si pe, po;
    const v8hi e = ((w << 8) >> 8) * x_even;
    const v8hi o = (w >> 8) * x_odd;
    std::memcpy(&pe, &e, sizeof pe);
    std::memcpy(&po, &o, sizeof po);
    v4si a = acc[n];
    a += (pe << 16) >> 16;  // k0
    a += (po << 16) >> 16;  // k1
    a += pe >> 16;          // k2
    a += po >> 16;          // k3
    acc[n] = a;
  }
}

/// One reduction of k_len taps x[0..k_len) against a group: whole quads,
/// then the last k_len % 4 taps one at a time; the lane sums land in out.
template <std::size_t L>
inline void scalar_dot(const std::int8_t* gp, const std::int8_t* x,
                       std::size_t k_len, std::int32_t* out) noexcept {
  v4si acc[L / 4] = {};
  const std::size_t full = k_len / kQWideQuad;
  for (std::size_t q = 0; q < full; ++q)
    scalar_quad<L>(acc, gp + q * kQWideQuad * L, x + q * kQWideQuad);
  for (std::size_t k = full * kQWideQuad; k < k_len; ++k)
    scalar_tap<L>(acc, gp, k, x[k]);
  std::memcpy(out, acc, sizeof acc);
}

}  // namespace

void qmatvec_wide_scalar(const std::int8_t* panel, std::size_t rows,
                         std::size_t cols, const std::int8_t* x,
                         const Requant& rq, std::int8_t* out,
                         std::uint64_t* sat) noexcept {
  const std::size_t gbytes = qwide_group_bytes(kQWideRowBlock, cols);
  for (std::size_t r0 = 0; r0 < rows; r0 += kQWideRowBlock) {
    const std::int8_t* blk = panel + r0 / kQWideRowBlock * gbytes;
    const std::size_t real =
        rows - r0 < kQWideRowBlock ? rows - r0 : kQWideRowBlock;
    // One int32 chain per row, its columns in ascending order — the
    // reference Dense loop.
    std::int32_t acc[kQWideRowBlock];
    scalar_dot<kQWideRowBlock>(blk, x, cols, acc);
    for (std::size_t i = 0; i < real; ++i)
      out[r0 + i] = requantize(acc[i], r0 + i, rq, sat);
  }
}

// ------------------------------------------------------------ Conv2d

namespace {

using kernels::Conv2dGeom;
using kernels::kWideConvLanes;

/// The weight pairs of one tap for the kWideConvLanes channels of a
/// block, one int32 word per channel: w[ic] in the low and w[ic + 1] in
/// the high int16.
struct Pair8 {
  std::int32_t w[kWideConvLanes];
};

/// Staged taps of one block on the stack: ceil(in_c / 2) * k * k must fit
/// (in_c <= 113 at k = 3), or the SIMD entry points run the scalar arm.
constexpr std::size_t kQStageTaps = 512;

/// The int8 element of the direct conv driver (kernels_wide_conv_arm.h),
/// shared by every arm: a chain starts at 0, the input and the live
/// natural-layout weights are read where they lie, and the store
/// requantizes and counts the clips of the live lanes.
struct QTaps {
  using T = std::int8_t;
  const std::int8_t* in;
  const std::int8_t* wt;
  std::int8_t* out;
  const Requant* rq;
  std::size_t stride, in_c, kk, opix, plane;
  Pair8* stage;  ///< the SIMD arms' staged weight pairs, or null
  std::uint64_t clips = 0;

  /// Channel oc's weight scale (per channel or per tensor).
  float w_scale(std::size_t oc) const noexcept {
    return rq->per_channel ? rq->w_scales[oc] : rq->w_scales[0];
  }
};

QTaps q_taps(const std::int8_t* wt, const Conv2dGeom& g,
             const std::int8_t* in, const Requant& rq, std::int8_t* out,
             Pair8* stage) noexcept {
  return QTaps{.in = in, .wt = wt, .out = out, .rq = &rq,
               .stride = g.stride, .in_c = g.in_c, .kk = g.k * g.k,
               .opix = g.opix(), .plane = g.in_h * g.in_w, .stage = stage};
}

// The scalar arm: 4 pixel lanes of int32 chains, one input channel per
// tap, the weights broadcast straight from the live layout. Each lane
// adds its products in the reference order (a clipped tap adds 0), so
// this is the serial chain a step past the no-overflow bound keeps.
namespace scalar_arm {

typedef std::int8_t v4qi __attribute__((vector_size(4)));

struct Lanes : QTaps {
  using W = std::int8_t;
  using V = v4si;
  using M = std::uint32_t;
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kGroup = 1;

  static M mask(std::uint32_t b) noexcept { return b; }
  V load(const std::int8_t* p, M m, bool full, bool) const noexcept {
    if (full && stride == 1) {
      v4qi b;
      std::memcpy(&b, p, sizeof b);
      return __builtin_convertvector(b, V);
    }
    V x = {};
    for (std::size_t j = 0; j < kLanes; ++j)
      if ((m >> j & 1u) != 0) x[j] = p[j * stride];
    return x;
  }
  static V init(std::size_t) noexcept { return V{}; }
  const std::int8_t* weights(std::size_t oc0, std::size_t ic) const noexcept {
    return wt + (oc0 * in_c + ic) * kk;
  }
  V weight(const std::int8_t* wk, std::size_t c,
           std::size_t kx) const noexcept {
    const std::int32_t w = wk[c * in_c * kk + kx];
    return V{w, w, w, w};
  }
  static V madd(V acc, M, bool, V w, V x) noexcept { return acc + w * x; }
  static void begin_block(std::size_t, std::size_t) noexcept {}
  void store(V acc, std::size_t oc, std::size_t pix,
             std::size_t lanes) noexcept {
    for (std::size_t j = 0; j < lanes; ++j)
      out[oc * opix + pix + j] = requantize(acc[j], oc, *rq, &clips);
  }
};

#define SX_ARM_ATTR
#include "tensor/kernels_wide_conv_arm.h"
#undef SX_ARM_ATTR

}  // namespace scalar_arm

}  // namespace

void qconv2d_direct_scalar(const std::int8_t* wt, const Conv2dGeom& g,
                           const std::int8_t* in, const Requant& rq,
                           std::int8_t* out, std::uint64_t* sat) noexcept {
  scalar_arm::Lanes ln{q_taps(wt, g, in, rq, out, nullptr)};
  scalar_arm::conv(ln, g);
  if (sat != nullptr) *sat += ln.clips;
}

#if SX_QWIDE_X86

namespace {

// ------------------------------------------- vectorised requantize (AVX2)
//
// Eight lanes at a time, value-identical to quantize_sat composed with
// requantize(): every step is the scalar expression's IEEE operation in
// the same order, lane for lane.

#define SX_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

/// Loop-invariant epilogue state plus the running clip count (one int32
/// counter per lane, summed into *sat once per kernel call).
struct Epilogue8 {
  __m256 in_scale, out_scale;
  __m256i clips;
  bool relu;
};

/// Per-8-lane parameters: scales and bias of channels ch0..ch0+real
/// (masked loads, so padded lanes read nothing) and the real-lane mask.
struct Lanes8 {
  __m256 ws, bias;
  __m256i valid;
  std::size_t real;
};

SX_AVX2_INLINE Epilogue8 make_epilogue(const Requant& rq) noexcept {
  return Epilogue8{_mm256_set1_ps(rq.in_scale), _mm256_set1_ps(rq.out_scale),
                   _mm256_setzero_si256(), rq.relu};
}

SX_AVX2_INLINE Lanes8 lanes8(const Requant& rq, std::size_t ch0,
                             std::size_t real) noexcept {
  const __m256i valid =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(real)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  return Lanes8{rq.per_channel ? _mm256_maskload_ps(rq.w_scales + ch0, valid)
                               : _mm256_set1_ps(rq.w_scales[0]),
                _mm256_maskload_ps(rq.bias + ch0, valid), valid, real};
}

/// float(acc) * ws * in_scale + bias, / out_scale, round half away
/// (q >= 0 ? q + 0.5 : q - 0.5), clip !(r < 128) -> +127 (NaN included)
/// and r <= -128 -> -127, otherwise truncate; then the optional ReLU.
/// Clips of real lanes are counted.
SX_AVX2_INLINE __m256i requant8(Epilogue8& ep, const Lanes8& ln,
                                __m256i acc) noexcept {
  const __m256 f = _mm256_cvtepi32_ps(acc);
  const __m256 v = _mm256_add_ps(
      _mm256_mul_ps(_mm256_mul_ps(f, ln.ws), ep.in_scale), ln.bias);
  const __m256 q = _mm256_div_ps(v, ep.out_scale);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 r =
      _mm256_blendv_ps(_mm256_sub_ps(q, half), _mm256_add_ps(q, half),
                       _mm256_cmp_ps(q, _mm256_setzero_ps(), _CMP_GE_OQ));
  const __m256 hi = _mm256_cmp_ps(r, _mm256_set1_ps(128.0f), _CMP_NLT_UQ);
  const __m256 lo = _mm256_cmp_ps(r, _mm256_set1_ps(-128.0f), _CMP_LE_OQ);
  __m256i t = _mm256_cvttps_epi32(r);
  t = _mm256_blendv_epi8(t, _mm256_set1_epi32(127), _mm256_castps_si256(hi));
  t = _mm256_blendv_epi8(t, _mm256_set1_epi32(-127), _mm256_castps_si256(lo));
  if (ep.relu) t = _mm256_max_epi32(t, _mm256_setzero_si256());
  const __m256i clipped = _mm256_castps_si256(_mm256_or_ps(hi, lo));
  ep.clips = _mm256_sub_epi32(ep.clips, _mm256_and_si256(clipped, ln.valid));
  return t;
}

SX_AVX2_INLINE void flush(const Epilogue8& ep, std::uint64_t* sat) noexcept {
  alignas(32) std::int32_t c[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(c), ep.clips);
  std::uint64_t n = 0;
  for (const std::int32_t v : c) n += static_cast<std::uint32_t>(v);
  if (sat != nullptr) *sat += n;
}

/// Eight int32 lanes in [-127, 127] as eight bytes (the saturating packs
/// are exact in that range).
SX_AVX2_INLINE std::uint64_t pack8(__m256i v) noexcept {
  const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                    _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(_mm_packs_epi16(w, w)));
}

/// Dense store: the first `real` of eight consecutive outputs.
SX_AVX2_INLINE void store_row(std::int8_t* out, __m256i v,
                              std::size_t real) noexcept {
  const std::uint64_t b = pack8(v);
  std::memcpy(out, &b, real);
}

// --------------------------------------------- exact dot-product policies
//
// Each policy accumulates L lanes: zero() an accumulator, load() one quad
// row of weights (4 k x L lanes), prep() one activation quad, mac() one
// quad into the accumulator, finish() the exact int32 lane sums as 8-lane
// units.

#define SX_BW_TARGET "avx2,avx512f,avx512bw,avx512vl"
#define SX_VNNI_TARGET SX_BW_TARGET ",avx512vnni"
#define SX_BW_INLINE \
  __attribute__((target(SX_BW_TARGET), always_inline)) inline
#define SX_VNNI_INLINE \
  __attribute__((target(SX_VNNI_TARGET), always_inline)) inline

// The maskz forms with all-ones masks are the same instructions as the
// unmasked intrinsics, whose _mm512_undefined passthrough trips GCC's
// -Wmaybe-uninitialized.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;
constexpr __mmask32 kAll32 = 0xFFFFFFFFu;

SX_BW_INLINE __m256i high256(__m512i v) noexcept {
  return _mm512_maskz_extracti64x4_epi64(kAll8, v, 1);
}

/// The low half is a register subview (GCC 12's _mm512_castsi512_si256
/// also trips the warning).
SX_BW_INLINE __m256i low256(__m512i v) noexcept {
  __m256i r;
  std::memcpy(&r, &v, sizeof r);
  return r;
}

/// vpmovsxbw + vpmaddwd on 256-bit vectors: one accumulator per 4 lanes,
/// holding each lane's (k0*x0 + k1*x1, k2*x2 + k3*x3) pair sums.
template <std::size_t L>
struct MaddY {
  static constexpr std::size_t kN = L / 4;
  struct Acc { __m256i v[kN]; };
  struct W { __m256i v[kN]; };
  SX_AVX2_INLINE static Acc zero() noexcept {
    Acc a;
#pragma GCC unroll 8
    for (std::size_t n = 0; n < kN; ++n) a.v[n] = _mm256_setzero_si256();
    return a;
  }
  SX_AVX2_INLINE static W load(const std::int8_t* w) noexcept {
    W r;
#pragma GCC unroll 8
    for (std::size_t n = 0; n < kN; ++n)
      r.v[n] = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 16 * n)));
    return r;
  }
  /// (x0, x1, x2, x3) sign-extended to int16 in every 64-bit lane.
  SX_AVX2_INLINE static __m256i prep(std::uint32_t q) noexcept {
    return _mm256_broadcastq_epi64(
        _mm_cvtepi8_epi16(_mm_cvtsi32_si128(static_cast<int>(q))));
  }
  SX_AVX2_INLINE static void mac(Acc& a, const W& w, __m256i x) noexcept {
#pragma GCC unroll 8
    for (std::size_t n = 0; n < kN; ++n)
      a.v[n] = _mm256_add_epi32(a.v[n], _mm256_madd_epi16(w.v[n], x));
  }
  /// hadd folds each lane's two pair sums: [l0 l1 l4 l5 | l2 l3 l6 l7],
  /// which the 64-bit permute puts back in lane order.
  SX_AVX2_INLINE static void finish(const Acc& a, const std::int32_t*,
                                    __m256i* u) noexcept {
#pragma GCC unroll 8
    for (std::size_t k = 0; k < L / 8; ++k)
      u[k] = _mm256_permute4x64_epi64(
          _mm256_hadd_epi32(a.v[2 * k], a.v[2 * k + 1]), 0xD8);
  }
};

/// vpmovsxbw + vpmaddwd on 512-bit vectors: one accumulator per 8 lanes.
template <std::size_t L>
struct MaddZ {
  static constexpr std::size_t kN = L / 8;
  struct Acc { __m512i v[kN]; };
  struct W { __m512i v[kN]; };
  SX_BW_INLINE static Acc zero() noexcept {
    Acc a;
#pragma GCC unroll 8
    for (std::size_t n = 0; n < kN; ++n) a.v[n] = _mm512_setzero_si512();
    return a;
  }
  SX_BW_INLINE static W load(const std::int8_t* w) noexcept {
    W r;
#pragma GCC unroll 8
    for (std::size_t n = 0; n < kN; ++n)
      r.v[n] = _mm512_cvtepi8_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 32 * n)));
    return r;
  }
  SX_BW_INLINE static __m512i prep(std::uint32_t q) noexcept {
    return _mm512_maskz_broadcastq_epi64(
        kAll8, _mm_cvtepi8_epi16(_mm_cvtsi32_si128(static_cast<int>(q))));
  }
  SX_BW_INLINE static void mac(Acc& a, const W& w, __m512i x) noexcept {
#pragma GCC unroll 8
    for (std::size_t n = 0; n < kN; ++n)
      a.v[n] = _mm512_add_epi32(a.v[n], _mm512_madd_epi16(w.v[n], x));
  }
  /// Even pair sums to the low half, odd to the high half, then add.
  SX_BW_INLINE static void finish(const Acc& a, const std::int32_t*,
                                  __m256i* u) noexcept {
    const __m512i idx = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 1, 3,
                                          5, 7, 9, 11, 13, 15);
#pragma GCC unroll 8
    for (std::size_t n = 0; n < kN; ++n) {
      const __m512i s = _mm512_maskz_permutexvar_epi32(kAll16, idx, a.v[n]);
      u[n] = _mm256_add_epi32(low256(s), high256(s));
    }
  }
};

/// vpdpbusd on 512 bits: one accumulator per 16 lanes.
template <std::size_t L>
struct VnniZ {
  static constexpr std::size_t kN = L / 16;
  struct Acc { __m512i v[kN]; };
  struct W { __m512i v[kN]; };
  SX_VNNI_INLINE static Acc zero() noexcept {
    Acc a;
#pragma GCC unroll 4
    for (std::size_t n = 0; n < kN; ++n) a.v[n] = _mm512_setzero_si512();
    return a;
  }
  SX_VNNI_INLINE static W load(const std::int8_t* w) noexcept {
    W r;
#pragma GCC unroll 4
    for (std::size_t n = 0; n < kN; ++n) r.v[n] = _mm512_loadu_si512(w + 64 * n);
    return r;
  }
  SX_VNNI_INLINE static __m512i prep(std::uint32_t q) noexcept {
    return _mm512_xor_si512(_mm512_set1_epi32(static_cast<int>(q)),
                            _mm512_set1_epi32(static_cast<int>(0x80808080u)));
  }
  SX_VNNI_INLINE static void mac(Acc& a, const W& w, __m512i x) noexcept {
#pragma GCC unroll 4
    for (std::size_t n = 0; n < kN; ++n)
      a.v[n] = _mm512_dpbusd_epi32(a.v[n], x, w.v[n]);
  }
  SX_VNNI_INLINE static void finish(const Acc& a, const std::int32_t* corr,
                                    __m256i* u) noexcept {
#pragma GCC unroll 4
    for (std::size_t n = 0; n < kN; ++n) {
      const __m512i s =
          _mm512_sub_epi32(a.v[n], _mm512_loadu_si512(corr + 16 * n));
      u[2 * n] = low256(s);
      u[2 * n + 1] = high256(s);
    }
  }
};

// ------------------------------------------------- conv int16 pair lanes
//
// The SIMD conv arms take the input channels two at a time: lane j holds
// the int16 pair (x[ic][j], x[ic + 1][j]) and one vpmaddwd / vpdpwssd
// adds x[ic][j] * w[ic] + x[ic + 1][j] * w[ic + 1] to it, against the
// tap's weight pair broadcast to every lane. begin_block stages a block's
// pairs from the live weights once per call; an odd last channel pairs
// with a zero row and a zero weight.

/// Stages channels oc0 .. oc0 + nb: pair p, tap t of channel c at
/// stage[p * kk + t].w[c].
inline void stage_pairs(const QTaps& q, std::size_t oc0,
                        std::size_t nb) noexcept {
  const std::size_t pairs = (q.in_c + 1) / 2;
  const auto half = [](std::int8_t v) {
    return static_cast<std::uint32_t>(
        static_cast<std::uint16_t>(static_cast<std::int16_t>(v)));
  };
  for (std::size_t c = 0; c < nb; ++c)
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::int8_t* lo = q.wt + ((oc0 + c) * q.in_c + 2 * p) * q.kk;
      const bool hi = 2 * p + 1 < q.in_c;
      Pair8* dst = q.stage + p * q.kk;
      for (std::size_t t = 0; t < q.kk; ++t)
        dst[t].w[c] = static_cast<std::int32_t>(
            half(lo[t]) | (hi ? half(lo[q.kk + t]) << 16 : 0u));
    }
}

/// True when one block's staged pairs fit kQStageTaps.
constexpr bool pairs_fit(const Conv2dGeom& g) noexcept {
  return (g.in_c + 1) / 2 * g.k * g.k <= kQStageTaps;
}

/// The staged-pair half of the SIMD arms' element policy.
struct QPairTaps : QTaps {
  using W = Pair8;
  static constexpr std::size_t kGroup = 2;

  const Pair8* weights(std::size_t, std::size_t ic) const noexcept {
    return stage + ic / 2 * kk;
  }
  void begin_block(std::size_t oc0, std::size_t nb) const noexcept {
    stage_pairs(*this, oc0, nb);
  }
};

/// 8 pixel lanes on 256 bits (avx2): byte rows assembled in a GPR,
/// vpmaddwd + vpaddd, the vector requantize of the Dense arms.
struct PairsY : QPairTaps {
  using V = __m256i;
  using M = std::uint32_t;
  static constexpr std::size_t kLanes = 8;
  Epilogue8 ep;

  static M mask(std::uint32_t b) noexcept { return b; }
  /// The 8 live bytes of one row, clipped lanes 0.
  std::uint64_t bytes(const std::int8_t* p, M m, bool full) const noexcept {
    std::uint64_t v = 0;
    if (full && stride == 1) {
      std::memcpy(&v, p, sizeof v);
      return v;
    }
    for (std::size_t j = 0; j < kLanes; ++j)
      if ((m >> j & 1u) != 0)
        v |= std::uint64_t{static_cast<std::uint8_t>(p[j * stride])}
             << (8 * j);
    return v;
  }
  SX_AVX2_INLINE V load(const std::int8_t* p, M m, bool full,
                        bool pair) const noexcept {
    const __m128i a =
        _mm_cvtsi64_si128(static_cast<long long>(bytes(p, m, full)));
    const __m128i b =
        pair ? _mm_cvtsi64_si128(
                   static_cast<long long>(bytes(p + plane, m, full)))
             : _mm_setzero_si128();
    return _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(a, b));
  }
  SX_AVX2_INLINE static V init(std::size_t) noexcept {
    return _mm256_setzero_si256();
  }
  SX_AVX2_INLINE static V weight(const Pair8* wk, std::size_t c,
                                 std::size_t kx) noexcept {
    return _mm256_set1_epi32(wk[kx].w[c]);
  }
  SX_AVX2_INLINE static V madd(V acc, M, bool, V w, V x) noexcept {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(x, w));
  }
  SX_AVX2_INLINE void store(V acc, std::size_t oc, std::size_t pix,
                            std::size_t lanes) noexcept {
    const Lanes8 ln{_mm256_set1_ps(w_scale(oc)), _mm256_set1_ps(rq->bias[oc]),
                    _mm256_cmpgt_epi32(
                        _mm256_set1_epi32(static_cast<int>(lanes)),
                        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
                    lanes};
    store_row(out + oc * opix + pix, requant8(ep, ln, acc), lanes);
  }
};

/// The 16-lane masks of one tap column: the lanes, and their even bytes
/// for a stride-2 load of 32 bytes.
struct Mask16 {
  __mmask16 k;
  __mmask32 k2;
};

/// 16 pixel lanes on 512 bits (avx512bw and up): zero-masked byte loads,
/// the pairs interleaved and widened by vpmovsxbw, a 16-lane requantize.
/// `Madd` supplies the pair product: vpmaddwd + vpaddd, or vpdpwssd.
template <typename Madd>
struct PairsZ : QPairTaps, Madd {
  using V = __m512i;
  using M = Mask16;
  static constexpr std::size_t kLanes = 16;

  static M mask(std::uint32_t b) noexcept {
    std::uint32_t e = b & 0xFFFFu;  // bit j -> bit 2j
    e = (e | e << 8) & 0x00FF00FFu;
    e = (e | e << 4) & 0x0F0F0F0Fu;
    e = (e | e << 2) & 0x33333333u;
    e = (e | e << 1) & 0x55555555u;
    return M{static_cast<__mmask16>(b), static_cast<__mmask32>(e)};
  }
  SX_BW_INLINE __m128i bytes(const std::int8_t* p, M m,
                             bool full) const noexcept {
    if (stride == 1)
      return full ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))
                  : _mm_maskz_loadu_epi8(m.k, p);
    if (stride == 2)
      return _mm256_maskz_cvtepi16_epi8(kAll16,
                                        _mm256_maskz_loadu_epi8(m.k2, p));
    alignas(16) std::int8_t b[kLanes] = {};
    for (std::size_t j = 0; j < kLanes; ++j)
      if ((m.k >> j & 1u) != 0) b[j] = p[j * stride];
    return _mm_load_si128(reinterpret_cast<const __m128i*>(b));
  }
  SX_BW_INLINE V load(const std::int8_t* p, M m, bool full,
                      bool pair) const noexcept {
    const __m128i a = bytes(p, m, full);
    const __m128i b = pair ? bytes(p + plane, m, full) : _mm_setzero_si128();
    return _mm512_maskz_cvtepi8_epi16(
        kAll32, _mm256_set_m128i(_mm_unpackhi_epi8(a, b),
                                 _mm_unpacklo_epi8(a, b)));
  }
  SX_BW_INLINE static V init(std::size_t) noexcept {
    return _mm512_setzero_si512();
  }
  SX_BW_INLINE static V weight(const Pair8* wk, std::size_t c,
                               std::size_t kx) noexcept {
    return _mm512_set1_epi32(wk[kx].w[c]);
  }
  /// requantize() on 16 lanes, operation for operation (see requant8);
  /// the clips of the live lanes are counted.
  SX_BW_INLINE void store(V acc, std::size_t oc, std::size_t pix,
                          std::size_t lanes) noexcept {
    const __m512 f = _mm512_maskz_cvtepi32_ps(kAll16, acc);
    const __m512 v = _mm512_add_ps(
        _mm512_mul_ps(_mm512_mul_ps(f, _mm512_set1_ps(w_scale(oc))),
                      _mm512_set1_ps(rq->in_scale)),
        _mm512_set1_ps(rq->bias[oc]));
    const __m512 q = _mm512_div_ps(v, _mm512_set1_ps(rq->out_scale));
    const __m512 half = _mm512_set1_ps(0.5f);
    const __m512 r = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(q, _mm512_setzero_ps(), _CMP_GE_OQ),
        _mm512_sub_ps(q, half), _mm512_add_ps(q, half));
    const __mmask16 hi =
        _mm512_cmp_ps_mask(r, _mm512_set1_ps(128.0f), _CMP_NLT_UQ);
    const __mmask16 lo =
        _mm512_cmp_ps_mask(r, _mm512_set1_ps(-128.0f), _CMP_LE_OQ);
    __m512i t = _mm512_maskz_cvttps_epi32(kAll16, r);
    t = _mm512_mask_mov_epi32(t, hi, _mm512_set1_epi32(127));
    t = _mm512_mask_mov_epi32(t, lo, _mm512_set1_epi32(-127));
    if (rq->relu) t = _mm512_maskz_max_epi32(kAll16, t, _mm512_setzero_si512());
    const auto valid = static_cast<__mmask16>((1u << lanes) - 1);
    clips += static_cast<std::uint64_t>(
        __builtin_popcount(static_cast<unsigned>((hi | lo) & valid)));
    _mm_mask_storeu_epi8(out + oc * opix + pix, valid,
                         _mm512_maskz_cvtepi32_epi8(kAll16, t));
  }
};

struct MaddBw {
  SX_BW_INLINE static __m512i madd(__m512i acc, Mask16, bool, __m512i w,
                                   __m512i x) noexcept {
    return _mm512_add_epi32(acc, _mm512_madd_epi16(x, w));
  }
};

struct MaddVnni {
  SX_VNNI_INLINE static __m512i madd(__m512i acc, Mask16, bool, __m512i w,
                                     __m512i x) noexcept {
    // GCC 12 copies a loop-carried vpdpwssd accumulator in and out of a
    // scratch register around every use; the asm names it in place.
    __asm__("vpdpwssd %2, %1, %0" : "+v"(acc) : "v"(x), "v"(w));
    return acc;
  }
};

// ------------------------------------------------------------ SIMD arms

namespace avx2_arm {
template <std::size_t L>
struct Group : MaddY<L> {};
#define SX_QARM_TARGET "avx2"
#include "tensor/qkernels_wide_arm.h"
#undef SX_QARM_TARGET
using Lanes = PairsY;
#define SX_ARM_ATTR __attribute__((target("avx2")))
#include "tensor/kernels_wide_conv_arm.h"
#undef SX_ARM_ATTR
}  // namespace avx2_arm

namespace avx512bw_arm {
template <std::size_t L>
struct Group : MaddZ<L> {};
#define SX_QARM_TARGET SX_BW_TARGET
#include "tensor/qkernels_wide_arm.h"
#undef SX_QARM_TARGET
using Lanes = PairsZ<MaddBw>;
#define SX_ARM_ATTR __attribute__((target(SX_BW_TARGET)))
#include "tensor/kernels_wide_conv_arm.h"
#undef SX_ARM_ATTR
}  // namespace avx512bw_arm

namespace avx512vnni_arm {
template <std::size_t L>
struct Group : VnniZ<L> {};
#define SX_QARM_TARGET SX_VNNI_TARGET
#include "tensor/qkernels_wide_arm.h"
#undef SX_QARM_TARGET
using Lanes = PairsZ<MaddVnni>;
#define SX_ARM_ATTR __attribute__((target(SX_VNNI_TARGET)))
#include "tensor/kernels_wide_conv_arm.h"
#undef SX_ARM_ATTR
}  // namespace avx512vnni_arm

}  // namespace

void qmatvec_wide_avx2(const std::int8_t* panel, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) noexcept {
  avx2_arm::dense(panel, rows, cols, x, rq, out, sat);
}

void qmatvec_wide_avx512bw(const std::int8_t* panel, std::size_t rows,
                           std::size_t cols, const std::int8_t* x,
                           const Requant& rq, std::int8_t* out,
                           std::uint64_t* sat) noexcept {
  avx512bw_arm::dense(panel, rows, cols, x, rq, out, sat);
}

void qmatvec_wide_avx512vnni(const std::int8_t* panel, std::size_t rows,
                             std::size_t cols, const std::int8_t* x,
                             const Requant& rq, std::int8_t* out,
                             std::uint64_t* sat) noexcept {
  avx512vnni_arm::dense(panel, rows, cols, x, rq, out, sat);
}

__attribute__((target("avx2"))) void qconv2d_direct_avx2(
    const std::int8_t* wt, const Conv2dGeom& g, const std::int8_t* in,
    const Requant& rq, std::int8_t* out, std::uint64_t* sat) noexcept {
  if (!pairs_fit(g)) return qconv2d_direct_scalar(wt, g, in, rq, out, sat);
  Pair8 stage[kQStageTaps];
  avx2_arm::Lanes ln{{q_taps(wt, g, in, rq, out, stage)}, make_epilogue(rq)};
  avx2_arm::conv(ln, g);
  flush(ln.ep, sat);
}

void qconv2d_direct_avx512bw(const std::int8_t* wt, const Conv2dGeom& g,
                             const std::int8_t* in, const Requant& rq,
                             std::int8_t* out, std::uint64_t* sat) noexcept {
  if (!pairs_fit(g)) return qconv2d_direct_scalar(wt, g, in, rq, out, sat);
  Pair8 stage[kQStageTaps];
  avx512bw_arm::Lanes ln{{q_taps(wt, g, in, rq, out, stage)}, {}};
  avx512bw_arm::conv(ln, g);
  if (sat != nullptr) *sat += ln.clips;
}

void qconv2d_direct_avx512vnni(const std::int8_t* wt, const Conv2dGeom& g,
                               const std::int8_t* in, const Requant& rq,
                               std::int8_t* out,
                               std::uint64_t* sat) noexcept {
  if (!pairs_fit(g)) return qconv2d_direct_scalar(wt, g, in, rq, out, sat);
  Pair8 stage[kQStageTaps];
  avx512vnni_arm::Lanes ln{{q_taps(wt, g, in, rq, out, stage)}, {}};
  avx512vnni_arm::conv(ln, g);
  if (sat != nullptr) *sat += ln.clips;
}

#else  // !SX_QWIDE_X86: the SIMD entry points are the scalar arm itself.

void qmatvec_wide_avx2(const std::int8_t* panel, std::size_t rows,
                       std::size_t cols, const std::int8_t* x,
                       const Requant& rq, std::int8_t* out,
                       std::uint64_t* sat) noexcept {
  qmatvec_wide_scalar(panel, rows, cols, x, rq, out, sat);
}

void qmatvec_wide_avx512bw(const std::int8_t* panel, std::size_t rows,
                           std::size_t cols, const std::int8_t* x,
                           const Requant& rq, std::int8_t* out,
                           std::uint64_t* sat) noexcept {
  qmatvec_wide_scalar(panel, rows, cols, x, rq, out, sat);
}

void qmatvec_wide_avx512vnni(const std::int8_t* panel, std::size_t rows,
                             std::size_t cols, const std::int8_t* x,
                             const Requant& rq, std::int8_t* out,
                             std::uint64_t* sat) noexcept {
  qmatvec_wide_scalar(panel, rows, cols, x, rq, out, sat);
}

void qconv2d_direct_avx2(const std::int8_t* wt, const Conv2dGeom& g,
                         const std::int8_t* in, const Requant& rq,
                         std::int8_t* out, std::uint64_t* sat) noexcept {
  qconv2d_direct_scalar(wt, g, in, rq, out, sat);
}

void qconv2d_direct_avx512bw(const std::int8_t* wt, const Conv2dGeom& g,
                             const std::int8_t* in, const Requant& rq,
                             std::int8_t* out, std::uint64_t* sat) noexcept {
  qconv2d_direct_scalar(wt, g, in, rq, out, sat);
}

void qconv2d_direct_avx512vnni(const std::int8_t* wt, const Conv2dGeom& g,
                               const std::int8_t* in, const Requant& rq,
                               std::int8_t* out,
                               std::uint64_t* sat) noexcept {
  qconv2d_direct_scalar(wt, g, in, rq, out, sat);
}

#endif  // SX_QWIDE_X86

QDenseKernelFn wide_qdense_kernel(QArm arm) noexcept {
  switch (arm) {
    case QArm::kAvx2: return &qmatvec_wide_avx2;
    case QArm::kAvx512Bw: return &qmatvec_wide_avx512bw;
    case QArm::kAvx512Vnni: return &qmatvec_wide_avx512vnni;
    case QArm::kScalar: break;
  }
  return &qmatvec_wide_scalar;
}

QConvKernelFn wide_qconv_kernel(QArm arm) noexcept {
  switch (arm) {
    case QArm::kAvx2: return &qconv2d_direct_avx2;
    case QArm::kAvx512Bw: return &qconv2d_direct_avx512bw;
    case QArm::kAvx512Vnni: return &qconv2d_direct_avx512vnni;
    case QArm::kScalar: break;
  }
  return &qconv2d_direct_scalar;
}

}  // namespace sx::tensor::qkernels
