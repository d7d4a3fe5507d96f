// kWide int8 microkernels: exact int8 x int8 -> int32 dot products with a
// fused requantize epilogue, in four arms over one panel layout (4
// consecutive k per output lane, zero-padded in k and in lanes):
//   - scalar: the canonical per-chain loop;
//   - avx2 / avx512bw: vpmovsxbw + vpmaddwd (two k per int32 lane);
//   - avx512vnni: vpdpbusd (four k per int32 lane) on activations shifted
//     into u8 by x ^ 0x80, minus the panel's per-lane 128 * sum(w).
//
// Determinism contract: exact int32 sums. An int8 x int8 product and
// every partial sum below are integers of magnitude at most
// k_len * 255 * 128, which the plan requires to stay under 2^31
// (qwide_bound_ok; a step that fails it runs on the scalar arm). In that
// range int32 addition is exact and associative, so any grouping of the
// products — pairs, quads, four pixels side by side, the u8 shift and its
// correction — equals the reference's serial chain bit for bit. The
// saturating vpmaddubsw / vpdpbusds are never used. The epilogue is float
// math and must keep the reference's separately rounded mul/mul/add/div,
// so this TU is compiled with -ffp-contract=off; dl_quant_kernels_wide_test
// proves identity to QuantizedModel::apply_layer on every probed arm.
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

/// Lane count of the conv group starting at channel oc0 < out_c.
constexpr std::size_t group_lanes(std::size_t out_c, std::size_t oc0) noexcept {
  return out_c - oc0 > kQWideHalfLanes ? kQWideConvLanes : kQWideHalfLanes;
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

void im2col_gather_i8(const std::int8_t* in, const std::uint32_t* in_idx,
                      std::size_t entries, std::int8_t* col) noexcept {
  for (std::size_t e = 0; e < entries; ++e) col[e] = in[in_idx[e]];
}

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

std::size_t qwide_conv_panel_bytes(std::size_t out_c,
                                   std::size_t patch) noexcept {
  std::size_t bytes = 0;
  for (std::size_t oc0 = 0; oc0 < out_c;) {
    const std::size_t lanes = group_lanes(out_c, oc0);
    bytes += qwide_group_bytes(lanes, patch);
    oc0 += lanes;
  }
  return bytes;
}

void pack_qwide_conv_panel(const std::int8_t* wt, std::size_t out_c,
                           std::size_t patch, std::int8_t* panel) noexcept {
  for (std::size_t oc0 = 0; oc0 < out_c;) {
    const std::size_t lanes = group_lanes(out_c, oc0);
    const std::size_t real = out_c - oc0 < lanes ? out_c - oc0 : lanes;
    pack_group(wt + oc0 * patch, real, lanes, patch, panel);
    panel += qwide_group_bytes(lanes, patch);
    oc0 += lanes;
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

/// One conv group of L lanes: per pixel, one int32 chain per channel over
/// the pixel's taps in table order (== the reference loop's order;
/// clipped taps are absent). Padded lanes accumulate zeros and are never
/// stored.
template <std::size_t L>
void qconv_group_scalar(const std::int8_t* gp, const kernels::ConvTables& t,
                        const std::int8_t* col, const Requant& rq,
                        std::int8_t* out, std::size_t oc0,
                        std::uint64_t* sat) noexcept {
  const std::size_t real = t.out_c - oc0 < L ? t.out_c - oc0 : L;
  for (std::size_t p = 0; p < t.opix; ++p) {
    const std::size_t base = t.pix_off[p];
    const std::size_t taps = t.pix_off[p + 1] - base;
    std::int32_t acc[L];
    if (taps == t.patch) {
      scalar_dot<L>(gp, col + base, taps, acc);
    } else {
      v4si a[L / 4] = {};
      for (std::size_t j = 0; j < taps; ++j)
        scalar_tap<L>(a, gp, t.w_ofs[base + j], col[base + j]);
      std::memcpy(acc, a, sizeof a);
    }
    for (std::size_t i = 0; i < real; ++i)
      out[(oc0 + i) * t.opix + p] = requantize(acc[i], oc0 + i, rq, sat);
  }
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

void qconv2d_im2col_wide_scalar(const std::int8_t* panel,
                                const kernels::ConvTables& t,
                                const std::int8_t* col, const Requant& rq,
                                std::int8_t* out,
                                std::uint64_t* sat) noexcept {
  for (std::size_t oc0 = 0; oc0 < t.out_c;) {
    const std::size_t lanes = group_lanes(t.out_c, oc0);
    if (lanes == kQWideConvLanes)
      qconv_group_scalar<kQWideConvLanes>(panel, t, col, rq, out, oc0, sat);
    else
      qconv_group_scalar<kQWideHalfLanes>(panel, t, col, rq, out, oc0, sat);
    panel += qwide_group_bytes(lanes, t.patch);
    oc0 += lanes;
  }
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

/// Conv store of one pixel: lane i goes to channel plane i.
SX_AVX2_INLINE void store_pixel(__m256i v, std::size_t real,
                                std::int8_t* out, std::size_t opix) noexcept {
  const std::uint64_t b = pack8(v);
  for (std::size_t i = 0; i < real; ++i)
    out[i * opix] = static_cast<std::int8_t>(b >> (8 * i));
}

/// Conv store of four consecutive pixels: the 4 x 8 byte block is
/// transposed so each channel plane takes one 4-byte store.
SX_AVX2_INLINE void store_tile4(__m256i t0, __m256i t1, __m256i t2,
                                __m256i t3, std::size_t real,
                                std::int8_t* out, std::size_t opix) noexcept {
  // Per 128-bit half: bytes [pixel][channel 0..3 | 4..7] ...
  const __m256i b = _mm256_packs_epi16(_mm256_packs_epi32(t0, t1),
                                       _mm256_packs_epi32(t2, t3));
  // ... reordered to [channel][pixel].
  const __m256i perm =
      _mm256_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
                       0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  alignas(32) std::int8_t buf[32];
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf),
                     _mm256_shuffle_epi8(b, perm));
  for (std::size_t i = 0; i < real; ++i)
    std::memcpy(out + i * opix, buf + 4 * i, 4);
}

// --------------------------------------------- exact dot-product policies
//
// Each policy accumulates L lanes: zero() an accumulator, load() one quad
// row of weights (4 k x L lanes), prep() one activation quad, mac() one
// quad into the accumulator, finish() the exact int32 lane sums as 8-lane
// units.

#define SX_BW_INLINE                                                    \
  __attribute__((target("avx2,avx512f,avx512bw,avx512vl"), always_inline)) \
  inline
#define SX_VNNI_INLINE                                               \
  __attribute__((target("avx2,avx512f,avx512bw,avx512vl,avx512vnni"), \
                 always_inline)) inline

// The maskz forms with all-ones masks are the same instructions as the
// unmasked intrinsics, whose _mm512_undefined passthrough trips GCC's
// -Wmaybe-uninitialized.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

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

/// vpdpbusd on 256 bits (AVX512VL): 8 lanes, four k per int32 lane. The
/// activation quad is shifted into u8 (x ^ 0x80 == x + 128), so each lane
/// accumulates sum(x * w) + 128 * sum(w); finish() subtracts the panel's
/// correction.
struct VnniY8 {
  using Acc = __m256i;
  using W = __m256i;
  SX_VNNI_INLINE static Acc zero() noexcept { return _mm256_setzero_si256(); }
  SX_VNNI_INLINE static W load(const std::int8_t* w) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  }
  SX_VNNI_INLINE static __m256i prep(std::uint32_t q) noexcept {
    return _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(q)),
                            _mm256_set1_epi32(static_cast<int>(0x80808080u)));
  }
  SX_VNNI_INLINE static void mac(Acc& a, W w, __m256i x) noexcept {
    a = _mm256_dpbusd_epi32(a, x, w);
  }
  SX_VNNI_INLINE static void finish(Acc a, const std::int32_t* corr,
                                    __m256i* u) noexcept {
    u[0] = _mm256_sub_epi32(
        a, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(corr)));
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

// ------------------------------------------------------------ SIMD arms

namespace avx2_arm {
template <std::size_t L>
struct Group : MaddY<L> {};
#define SX_QARM_TARGET "avx2"
#include "tensor/qkernels_wide_arm.h"
#undef SX_QARM_TARGET
}  // namespace avx2_arm

namespace avx512bw_arm {
template <std::size_t L>
struct Group : MaddZ<L> {};
template <>
struct Group<kQWideHalfLanes> : MaddY<kQWideHalfLanes> {};
#define SX_QARM_TARGET "avx2,avx512f,avx512bw,avx512vl"
#include "tensor/qkernels_wide_arm.h"
#undef SX_QARM_TARGET
}  // namespace avx512bw_arm

namespace avx512vnni_arm {
template <std::size_t L>
struct Group : VnniZ<L> {};
template <>
struct Group<kQWideHalfLanes> : VnniY8 {};
#define SX_QARM_TARGET "avx2,avx512f,avx512bw,avx512vl,avx512vnni"
#include "tensor/qkernels_wide_arm.h"
#undef SX_QARM_TARGET
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

void qconv2d_im2col_wide_avx2(const std::int8_t* panel,
                              const kernels::ConvTables& t,
                              const std::int8_t* col, const Requant& rq,
                              std::int8_t* out, std::uint64_t* sat) noexcept {
  avx2_arm::conv(panel, t, col, rq, out, sat);
}

void qconv2d_im2col_wide_avx512bw(const std::int8_t* panel,
                                  const kernels::ConvTables& t,
                                  const std::int8_t* col, const Requant& rq,
                                  std::int8_t* out,
                                  std::uint64_t* sat) noexcept {
  avx512bw_arm::conv(panel, t, col, rq, out, sat);
}

void qconv2d_im2col_wide_avx512vnni(const std::int8_t* panel,
                                    const kernels::ConvTables& t,
                                    const std::int8_t* col,
                                    const Requant& rq, std::int8_t* out,
                                    std::uint64_t* sat) noexcept {
  avx512vnni_arm::conv(panel, t, col, rq, out, sat);
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

void qconv2d_im2col_wide_avx2(const std::int8_t* panel,
                              const kernels::ConvTables& t,
                              const std::int8_t* col, const Requant& rq,
                              std::int8_t* out, std::uint64_t* sat) noexcept {
  qconv2d_im2col_wide_scalar(panel, t, col, rq, out, sat);
}

void qconv2d_im2col_wide_avx512bw(const std::int8_t* panel,
                                  const kernels::ConvTables& t,
                                  const std::int8_t* col, const Requant& rq,
                                  std::int8_t* out,
                                  std::uint64_t* sat) noexcept {
  qconv2d_im2col_wide_scalar(panel, t, col, rq, out, sat);
}

void qconv2d_im2col_wide_avx512vnni(const std::int8_t* panel,
                                    const kernels::ConvTables& t,
                                    const std::int8_t* col,
                                    const Requant& rq, std::int8_t* out,
                                    std::uint64_t* sat) noexcept {
  qconv2d_im2col_wide_scalar(panel, t, col, rq, out, sat);
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
    case QArm::kAvx2: return &qconv2d_im2col_wide_avx2;
    case QArm::kAvx512Bw: return &qconv2d_im2col_wide_avx512bw;
    case QArm::kAvx512Vnni: return &qconv2d_im2col_wide_avx512vnni;
    case QArm::kScalar: break;
  }
  return &qconv2d_im2col_wide_scalar;
}

}  // namespace sx::tensor::qkernels
