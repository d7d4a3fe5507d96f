#include "tensor/kernels.hpp"

namespace sx::tensor::kernels {

std::size_t im2col_entries(const Conv2dGeom& g) noexcept {
  std::size_t entries = 0;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      std::size_t taps = 0;
      for (std::size_t ky = 0; ky < g.k; ++ky) {
        const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * g.stride) +
                                  static_cast<std::ptrdiff_t>(ky) -
                                  static_cast<std::ptrdiff_t>(g.pad);
        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
        for (std::size_t kx = 0; kx < g.k; ++kx) {
          const std::ptrdiff_t ix =
              static_cast<std::ptrdiff_t>(ox * g.stride) +
              static_cast<std::ptrdiff_t>(kx) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
          ++taps;
        }
      }
      entries += g.in_c * taps;
    }
  }
  return entries;
}

void build_im2col_tables(const Conv2dGeom& g, std::uint32_t* pix_off,
                         std::uint32_t* in_idx,
                         std::uint32_t* w_ofs) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t e = 0, p = 0;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      pix_off[p++] = static_cast<std::uint32_t>(e);
      // Entry order per pixel mirrors Conv2d::forward exactly:
      // ic ascending, then valid ky ascending, then valid kx ascending.
      for (std::size_t ic = 0; ic < g.in_c; ++ic) {
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride) +
              static_cast<std::ptrdiff_t>(ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride) +
                static_cast<std::ptrdiff_t>(kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            in_idx[e] = static_cast<std::uint32_t>(
                (ic * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
                static_cast<std::size_t>(ix));
            w_ofs[e] =
                static_cast<std::uint32_t>((ic * g.k + ky) * g.k + kx);
            ++e;
          }
        }
      }
    }
  }
  pix_off[p] = static_cast<std::uint32_t>(e);
}

void im2col_gather(const float* in, const std::uint32_t* in_idx,
                   std::size_t entries, float* col) noexcept {
  for (std::size_t e = 0; e < entries; ++e) col[e] = in[in_idx[e]];
}

}  // namespace sx::tensor::kernels
