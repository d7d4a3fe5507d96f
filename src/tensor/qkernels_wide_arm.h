// The Dense driver shared by the three SIMD arms of the wide int8 kernels
// (see qkernels_wide.cpp; their Conv2d is the direct driver of
// kernels_wide_conv_arm.h). Not a standalone header: the TU includes it
// once per arm, inside that arm's namespace, after defining
//   - SX_QARM_TARGET: the arm's target-feature string, and
//   - template <std::size_t L> struct Group: the arm's exact dot-product
//     policy for the 32-lane block (zero / load / prep / mac / finish, see
//     the policies in qkernels_wide.cpp),
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
