// The Dense and Conv2d drivers shared by the three SIMD arms of the wide
// int8 kernels (see qkernels_wide.cpp). Not a standalone header: the TU
// includes it once per arm, inside that arm's namespace, after defining
//   - SX_QARM_TARGET: the arm's target-feature string, and
//   - template <std::size_t L> struct Group: the arm's exact dot-product
//     policy for L = 8, 16 and 32 lanes (zero / load / prep / mac /
//     finish, see the policies in qkernels_wide.cpp),
// so every arm runs the same loops compiled for its own instruction set.
// Hence no include guard.

/// Dense: each 32-row block accumulates its quads against the 4-byte
/// quads of x (the last one assembled from the remaining cols % 4 bytes,
/// so x is never read past its end), then the epilogue finishes the
/// block's 8-lane units and stores only the real rows.
__attribute__((target(SX_QARM_TARGET))) void dense(
    const std::int8_t* panel, std::size_t rows, std::size_t cols,
    const std::int8_t* x, const Requant& rq, std::int8_t* out,
    std::uint64_t* sat) noexcept {
  using G = Group<kQWideRowBlock>;
  const std::size_t gbytes = qwide_group_bytes(kQWideRowBlock, cols);
  const std::size_t wbytes = weight_bytes(kQWideRowBlock, cols);
  const std::size_t full_q = cols / kQWideQuad;
  const std::size_t rem = cols % kQWideQuad;
  Epilogue8 ep = make_epilogue(rq);
  for (std::size_t r0 = 0; r0 < rows; r0 += kQWideRowBlock) {
    const std::int8_t* blk = panel + r0 / kQWideRowBlock * gbytes;
    typename G::Acc acc = G::zero();
    const std::int8_t* w = blk;
    for (std::size_t q = 0; q < full_q; ++q, w += kQWideQuad * kQWideRowBlock)
      G::mac(acc, G::load(w), G::prep(load_quad(x + q * kQWideQuad)));
    if (rem != 0)
      G::mac(acc, G::load(w),
             G::prep(load_partial_quad(x + full_q * kQWideQuad, rem)));
    __m256i u[kQWideRowBlock / 8];
    G::finish(acc, corrections(blk, wbytes), u);
    for (std::size_t k = 0; k < kQWideRowBlock / 8 && r0 + 8 * k < rows;
         ++k) {
      const std::size_t ch0 = r0 + 8 * k;
      const Lanes8 ln = lanes8(rq, ch0, rows - ch0 < 8 ? rows - ch0 : 8);
      store_row(out + ch0, requant8(ep, ln, u[k]), ln.real);
    }
  }
  flush(ep, sat);
}

/// One Conv2d lane group of L channels starting at oc0. Runs of four
/// full-patch pixels whose quads lie inside the column share each weight
/// quad across four accumulators and store four pixels per channel at
/// once; every other pixel (clipped border taps, or the last pixels
/// whose final quad would read past the column) runs alone and builds
/// each quad from the taps that fall in it, absent taps as x = 0.
template <std::size_t L>
__attribute__((target(SX_QARM_TARGET))) inline void conv_group(
    const std::int8_t* gp, const kernels::ConvTables& t,
    const std::int8_t* col, const Requant& rq, Epilogue8& ep,
    std::int8_t* out, std::size_t oc0) noexcept {
  using G = Group<L>;
  constexpr std::size_t kUnits = L / 8;
  const std::size_t k4 = quads(t.patch);
  const std::size_t step = kQWideQuad * L;
  const std::int32_t* corr = corrections(gp, weight_bytes(L, t.patch));
  const std::size_t total = t.pix_off[t.opix];
  const std::size_t real = t.out_c - oc0 < L ? t.out_c - oc0 : L;
  const std::size_t units = (real + 7) / 8;
  Lanes8 ln[kUnits];
  for (std::size_t k = 0; k < units; ++k)
    ln[k] = lanes8(rq, oc0 + 8 * k, real - 8 * k < 8 ? real - 8 * k : 8);

  std::size_t p = 0;
  while (p < t.opix) {
    const std::uint32_t* po = t.pix_off + p;
    if (p + 4 <= t.opix && po[1] - po[0] == t.patch &&
        po[2] - po[1] == t.patch && po[3] - po[2] == t.patch &&
        po[4] - po[3] == t.patch && po[3] + kQWideQuad * k4 <= total) {
      const std::int8_t* s0 = col + po[0];
      const std::int8_t* s1 = col + po[1];
      const std::int8_t* s2 = col + po[2];
      const std::int8_t* s3 = col + po[3];
      typename G::Acc a0 = G::zero(), a1 = G::zero(), a2 = G::zero(),
                      a3 = G::zero();
      const std::int8_t* w = gp;
      for (std::size_t o = 0; o < kQWideQuad * k4;
           o += kQWideQuad, w += step) {
        const typename G::W wv = G::load(w);
        G::mac(a0, wv, G::prep(load_quad(s0 + o)));
        G::mac(a1, wv, G::prep(load_quad(s1 + o)));
        G::mac(a2, wv, G::prep(load_quad(s2 + o)));
        G::mac(a3, wv, G::prep(load_quad(s3 + o)));
      }
      __m256i u0[kUnits], u1[kUnits], u2[kUnits], u3[kUnits];
      G::finish(a0, corr, u0);
      G::finish(a1, corr, u1);
      G::finish(a2, corr, u2);
      G::finish(a3, corr, u3);
      for (std::size_t k = 0; k < units; ++k)
        store_tile4(requant8(ep, ln[k], u0[k]), requant8(ep, ln[k], u1[k]),
                    requant8(ep, ln[k], u2[k]), requant8(ep, ln[k], u3[k]),
                    ln[k].real, out + (oc0 + 8 * k) * t.opix + p, t.opix);
      p += 4;
      continue;
    }
    const std::size_t base = po[0];
    const std::size_t taps = po[1] - base;
    const std::int8_t* c = col + base;
    typename G::Acc a = G::zero();
    const std::int8_t* w = gp;
    if (taps == t.patch && base + kQWideQuad * k4 <= total) {
      for (std::size_t o = 0; o < kQWideQuad * k4; o += kQWideQuad, w += step)
        G::mac(a, G::load(w), G::prep(load_quad(c + o)));
    } else {
      const bool full = taps == t.patch;
      const std::uint32_t* wo = t.w_ofs + base;
      std::size_t j = 0;
      for (std::size_t q = 0; q < k4; ++q, w += step) {
        std::uint32_t d = 0;
        for (; j < taps; ++j) {
          const std::size_t kk = full ? j : wo[j];
          if (kk >= kQWideQuad * (q + 1)) break;
          d |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(c[j]))
               << (8 * (kk % kQWideQuad));
        }
        G::mac(a, G::load(w), G::prep(d));
      }
    }
    __m256i u[kUnits];
    G::finish(a, corr, u);
    for (std::size_t k = 0; k < units; ++k)
      store_pixel(requant8(ep, ln[k], u[k]), ln[k].real,
                  out + (oc0 + 8 * k) * t.opix + p, t.opix);
    ++p;
  }
}

/// Conv2d: the 16-channel groups, then the last group at 8 or 16 lanes.
__attribute__((target(SX_QARM_TARGET))) void conv(
    const std::int8_t* panel, const kernels::ConvTables& t,
    const std::int8_t* col, const Requant& rq, std::int8_t* out,
    std::uint64_t* sat) noexcept {
  Epilogue8 ep = make_epilogue(rq);
  const std::int8_t* gp = panel;
  for (std::size_t oc0 = 0; oc0 < t.out_c;) {
    const std::size_t lanes = group_lanes(t.out_c, oc0);
    if (lanes == kQWideConvLanes)
      conv_group<kQWideConvLanes>(gp, t, col, rq, ep, out, oc0);
    else
      conv_group<kQWideHalfLanes>(gp, t, col, rq, ep, out, oc0);
    gp += qwide_group_bytes(lanes, t.patch);
    oc0 += lanes;
  }
  flush(ep, sat);
}
