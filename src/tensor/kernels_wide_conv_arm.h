// The direct Conv2d driver shared by the three float lane arms (see
// kernels_wide.cpp). Not a standalone header: the TU includes it once per
// arm, inside that arm's namespace, after defining
//   - SX_FARM_ATTR: the arm's target attribute (empty for the scalar arm),
//   - struct Lanes: the arm's lane policy — kLanes, the vector V and mask
//     M types, mask / load / bcast / madd, and store (screen, ReLU or
//     nothing, store the live lanes),
// so every arm runs the same loops compiled for its own instruction set.
// Hence no include guard.

/// One block of NB output channels: every output row, tiled into
/// Lanes::kLanes output pixels, with the NB chains sharing each input
/// load. NB is a compile-time constant and the chain loops are unrolled,
/// so the accumulators live in registers.
template <std::size_t NB>
SX_FARM_ATTR bool conv_block(const Lanes& ln, const float* wt,
                             const float* bias, const Conv2dGeom& g,
                             const float* in, float* out, std::size_t oc0,
                             Epilogue ep, bool check, bool ok) noexcept {
  constexpr std::size_t kL = Lanes::kLanes;
  constexpr std::uint32_t kFull = (std::uint32_t{1} << kL) - 1;
  const std::size_t oh = g.out_h(), ow = g.out_w(), kk = g.k * g.k;
  const std::size_t wslab = g.in_c * kk, plane = g.in_h * g.in_w;
  for (std::size_t ox0 = 0; ox0 < ow; ox0 += kL) {
    const std::size_t lanes = ow - ox0 < kL ? ow - ox0 : kL;
    std::uint32_t bits[kMaskCache];
    typename Lanes::M masks[kMaskCache];
    for (std::size_t kx = 0; kx < g.k && kx < kMaskCache; ++kx) {
      bits[kx] = tap_mask(g, ox0, lanes, kx);
      masks[kx] = ln.mask(bits[kx]);
    }
    for (std::size_t oy = 0; oy < oh; ++oy) {
      typename Lanes::V acc[NB];
#pragma GCC unroll 8
      for (std::size_t c = 0; c < NB; ++c)
        acc[c] = Lanes::bcast(bias[oc0 + c]);
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        const float* ich = in + ic * plane;
        const float* wic = wt + (oc0 * g.in_c + ic) * kk;
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          // A clipped kernel row is clipped for every lane: skip it.
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          const float* row = ich + static_cast<std::size_t>(iy) * g.in_w;
          const float* wk = wic + ky * g.k;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const bool cached = kx < kMaskCache;
            const std::uint32_t b =
                cached ? bits[kx] : tap_mask(g, ox0, lanes, kx);
            const typename Lanes::M m = cached ? masks[kx] : ln.mask(b);
            const bool full = b == kFull;
            // Lane 0's column may be clipped (a negative offset): no load
            // touches a clipped lane's address.
            const typename Lanes::V x = ln.load(
                row + (static_cast<std::ptrdiff_t>(ox0 * g.stride + kx) -
                       static_cast<std::ptrdiff_t>(g.pad)),
                m, full);
#pragma GCC unroll 8
            for (std::size_t c = 0; c < NB; ++c)
              acc[c] = Lanes::madd(acc[c], m, full,
                                   Lanes::bcast(wk[c * wslab + kx]), x);
          }
        }
      }
#pragma GCC unroll 8
      for (std::size_t c = 0; c < NB; ++c) {
        float* o = out + (oc0 + c) * oh * ow + oy * ow + ox0;
        if (ep == Epilogue::kNone || ep == Epilogue::kRelu) {
          ok = ln.store(acc[c], o, lanes, ep == Epilogue::kRelu, check, ok);
          continue;
        }
        float a[kL];
        __builtin_memcpy(a, &acc[c], sizeof a);
        for (std::size_t j = 0; j < lanes; ++j)
          ok = finish(a[j], o + j, ep, check, ok);
      }
    }
  }
  return ok;
}

/// Every kWideConvLanes-channel block, then the last out_c % 8 channels
/// as one block at their own chain count.
SX_FARM_ATTR bool conv(const float* wt, const float* bias,
                       const Conv2dGeom& g, const float* in, float* out,
                       Epilogue ep, bool check) noexcept {
  const Lanes ln{g.stride};
  bool ok = true;
  std::size_t oc0 = 0;
  for (; oc0 + kWideConvLanes <= g.out_c; oc0 += kWideConvLanes)
    ok = conv_block<kWideConvLanes>(ln, wt, bias, g, in, out, oc0, ep, check,
                                    ok);
  switch (g.out_c - oc0) {
#define SX_FARM_TAIL(n)                                                    \
  case n:                                                                  \
    return conv_block<n>(ln, wt, bias, g, in, out, oc0, ep, check, ok);
    SX_FARM_TAIL(1) SX_FARM_TAIL(2) SX_FARM_TAIL(3) SX_FARM_TAIL(4)
    SX_FARM_TAIL(5) SX_FARM_TAIL(6) SX_FARM_TAIL(7)
#undef SX_FARM_TAIL
    default: return ok;
  }
}
