// The direct Conv2d driver shared by every lane arm of both element types:
// the float arms of kernels_wide.cpp and the int8 arms of
// qkernels_wide.cpp. Not a standalone header: a TU includes it once per
// arm, inside that arm's namespace, after defining
//   - SX_ARM_ATTR: the arm's target attribute (empty for scalar arms),
//   - struct Lanes: the arm's element policy —
//       kLanes      output pixels per vector,
//       kGroup      input channels one tap load covers (1, or 2 where the
//                   int8 arms multiply int16 channel pairs),
//       V, M, T, W  accumulator vector, lane mask, input and weight types,
//       in          the CHW input,
//       mask / load / init / weights / weight / madd / store, and
//       begin_block (the int8 pair arms stage a block's weight pairs),
// so the geometry below — tap masks, row clipping, lane tiling and the
// channel blocks with their tails — exists once for every arm.
// Hence no include guard.

/// Tap columns whose lane masks a tile computes once (every deployed
/// kernel is far smaller); wider kernels recompute the columns past it.
constexpr std::size_t kMaskCache = 16;

/// Lane mask (bit j = lane j) of the tile starting at output column ox0
/// with `lanes` live lanes for tap column kx: lane j reads input column
/// ox0 * stride + kx - pad + j * stride and is live iff that column lies
/// inside the row. Geometry only, so it is shared by every ic, ky and
/// output channel of the tile.
inline std::uint32_t tap_mask(const Conv2dGeom& g, std::size_t ox0,
                              std::size_t lanes, std::size_t kx) noexcept {
  const auto w = static_cast<std::ptrdiff_t>(g.in_w);
  const auto s = static_cast<std::ptrdiff_t>(g.stride);
  std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox0 * g.stride + kx) -
                      static_cast<std::ptrdiff_t>(g.pad);
  std::uint32_t m = 0;
  for (std::size_t j = 0; j < lanes; ++j, ix += s)
    if (ix >= 0 && ix < w) m |= std::uint32_t{1} << j;
  return m;
}

/// One block of NB output channels: every output row, tiled into
/// Lanes::kLanes output pixels, with the NB chains sharing each input
/// load. NB is a compile-time constant and the chain loops are unrolled,
/// so the accumulators live in registers.
template <std::size_t NB>
SX_ARM_ATTR void conv_block(Lanes& state, const Conv2dGeom& g,
                            std::size_t oc0) noexcept {
  // A local copy the compiler can keep in registers; the store's running
  // state (screen flag, clip counts) goes back at the end.
  Lanes ln = state;
  constexpr std::size_t kL = Lanes::kLanes;
  constexpr std::uint32_t kFull = (std::uint32_t{1} << kL) - 1;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plane = g.in_h * g.in_w;
  ln.begin_block(oc0, NB);
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
      for (std::size_t c = 0; c < NB; ++c) acc[c] = ln.init(oc0 + c);
      for (std::size_t ic = 0; ic < g.in_c; ic += Lanes::kGroup) {
        const typename Lanes::T* ich = ln.in + ic * plane;
        const typename Lanes::W* wic = ln.weights(oc0, ic);
        // Group arms: whether channel ic + 1 exists (an odd tail is not).
        const bool pair = Lanes::kGroup > 1 && ic + 1 < g.in_c;
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          // A clipped kernel row is clipped for every lane: skip it.
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          const typename Lanes::T* row =
              ich + static_cast<std::size_t>(iy) * g.in_w;
          const typename Lanes::W* wk = wic + ky * g.k;
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
                m, full, pair);
#pragma GCC unroll 8
            for (std::size_t c = 0; c < NB; ++c)
              acc[c] = Lanes::madd(acc[c], m, full, ln.weight(wk, c, kx), x);
          }
        }
      }
#pragma GCC unroll 8
      for (std::size_t c = 0; c < NB; ++c)
        ln.store(acc[c], oc0 + c, oy * ow + ox0, lanes);
    }
  }
  state = ln;
}

/// Every kWideConvLanes-channel block, then the last out_c % 8 channels
/// as one block at their own chain count.
SX_ARM_ATTR void conv(Lanes& ln, const Conv2dGeom& g) noexcept {
  std::size_t oc0 = 0;
  for (; oc0 + kWideConvLanes <= g.out_c; oc0 += kWideConvLanes)
    conv_block<kWideConvLanes>(ln, g, oc0);
  switch (g.out_c - oc0) {
#define SX_CONV_TAIL(n) \
  case n:               \
    return conv_block<n>(ln, g, oc0);
    SX_CONV_TAIL(1) SX_CONV_TAIL(2) SX_CONV_TAIL(3) SX_CONV_TAIL(4)
    SX_CONV_TAIL(5) SX_CONV_TAIL(6) SX_CONV_TAIL(7)
#undef SX_CONV_TAIL
    default: return;
  }
}
