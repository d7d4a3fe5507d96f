// Internal helpers shared by the int8 kernel translation units
// (qkernels.cpp and qkernels_wide.cpp). Everything here preserves the
// reference per-output accumulation order — see the header comment of
// tensor/qkernels.hpp for the contract. Not part of the public API.
#pragma once

#include "tensor/qkernels.hpp"

namespace sx::tensor::qkernels::detail {

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

/// Sweeps output channels oc0..out_c over the live weights: full
/// kOcBlock-channel sweeps first, then the 1..7-channel remainder. Used as
/// the whole unpacked conv kernel (oc0 == 0) and as the tail of every
/// packed lane-panel variant (8-lane packed and wide alike — after the
/// wide 8-lane half group, a wide tail is at most 7 channels).
inline void qconv_tail_sweep(const std::int8_t* wt,
                             const kernels::ConvTables& t,
                             const std::int8_t* col, const Requant& rq,
                             std::int8_t* out, std::size_t oc0,
                             std::uint64_t* sat) noexcept {
  std::size_t oc = oc0;
  for (; oc + kOcBlock <= t.out_c; oc += kOcBlock)
    qconv_oc_sweep<kOcBlock>(wt, t, col, rq, out, oc, sat);
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

}  // namespace sx::tensor::qkernels::detail
