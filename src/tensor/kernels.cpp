#include "tensor/kernels.hpp"

namespace sx::tensor::kernels {

namespace {

typedef float v4sf __attribute__((vector_size(16)));
typedef std::int32_t v4si __attribute__((vector_size(16)));
typedef std::int16_t v8hi __attribute__((vector_size(16)));
typedef std::int8_t v8qi __attribute__((vector_size(8)));

/// Window 2, four float outputs per vector: lane j's (dy, dx = 0) and
/// (dy, dx = 1) operands are the even and odd elements of 8 inputs, folded
/// in the reference order. Returns the first output left to the tail.
std::size_t pool2_vector(const float* rows, std::size_t in_w, std::size_t ow,
                         float* o) noexcept {
  const v4si even = {0, 2, 4, 6}, odd = {1, 3, 5, 7};
  std::size_t ox = 0;
  for (; ox + 4 <= ow; ox += 4) {
    v4sf m = v4sf{} - __builtin_inff(), a, b;
    for (std::size_t dy = 0; dy < 2; ++dy) {
      __builtin_memcpy(&a, rows + dy * in_w + 2 * ox, sizeof a);
      __builtin_memcpy(&b, rows + dy * in_w + 2 * ox + 4, sizeof b);
      const v4sf e = __builtin_shuffle(a, b, even);
      const v4sf d = __builtin_shuffle(a, b, odd);
      m = e > m ? e : m;
      m = d > m ? d : m;
    }
    __builtin_memcpy(o + ox, &m, sizeof m);
  }
  return ox;
}

/// Window 2, eight int8 outputs per vector: each 16-bit lane holds one
/// horizontal input pair, split by shifts. Int8 max is exact and
/// order-free, so which byte of the pair is which does not matter.
std::size_t pool2_vector(const std::int8_t* rows, std::size_t in_w,
                         std::size_t ow, std::int8_t* o) noexcept {
  std::size_t ox = 0;
  for (; ox + 8 <= ow; ox += 8) {
    v8hi m = v8hi{} - 128, x;
    for (std::size_t dy = 0; dy < 2; ++dy) {
      __builtin_memcpy(&x, rows + dy * in_w + 2 * ox, sizeof x);
      const v8hi lo = static_cast<v8hi>(x << 8) >> 8, hi = x >> 8;
      m = lo > m ? lo : m;
      m = hi > m ? hi : m;
    }
    const v8qi b = __builtin_convertvector(m, v8qi);
    __builtin_memcpy(o + ox, &b, sizeof b);
  }
  return ox;
}

/// One body for both element types: window 2 runs the vector rows above,
/// every other output the reference fold from `lowest`.
template <typename T>
void maxpool_impl(const T* in, std::size_t c, std::size_t in_h,
                  std::size_t in_w, std::size_t window, T* out,
                  T lowest) noexcept {
  const std::size_t oh = in_h / window, ow = in_w / window;
  for (std::size_t r = 0; r < c * oh; ++r) {  // output rows of all channels
    const T* rows = in + r * window * in_w;
    T* o = out + r * ow;
    for (std::size_t ox = window == 2 ? pool2_vector(rows, in_w, ow, o) : 0;
         ox < ow; ++ox) {
      T m = lowest;
      for (std::size_t dy = 0; dy < window; ++dy)
        for (std::size_t dx = 0; dx < window; ++dx) {
          const T v = rows[dy * in_w + ox * window + dx];
          m = v > m ? v : m;
        }
      o[ox] = m;
    }
  }
}

}  // namespace

void maxpool2d(const float* in, std::size_t c, std::size_t in_h,
               std::size_t in_w, std::size_t window, float* out) noexcept {
  maxpool_impl(in, c, in_h, in_w, window, out, -__builtin_inff());
}

void maxpool2d(const std::int8_t* in, std::size_t c, std::size_t in_h,
               std::size_t in_w, std::size_t window,
               std::int8_t* out) noexcept {
  maxpool_impl(in, c, in_h, in_w, window, out, std::int8_t{-128});
}

}  // namespace sx::tensor::kernels
