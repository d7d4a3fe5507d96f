// Differential sweeps for the wide-SIMD (kWide) float microkernels.
//
// The load-bearing property is *bitwise* identity with the audited
// reference loops (tensor::matvec, Conv2d::forward, MaxPool2d::forward and
// the activation layers), for every lane family the CPU probe can select.
// The wide kernels vectorize ACROSS independent outputs (Dense rows; conv
// output pixels, 8 channels per block) while preserving each output's
// serial reference accumulation chain, so the scalar arm, AVX2 and AVX-512
// variants must all reproduce the reference bit for bit — across
// randomized shapes, ragged tails off the 16-row groups, conv geometries
// whose border taps clip some lanes of a vector (strides, paddings, kernel
// sizes, widths below / at / above every lane count), the channel blocks
// and their tail, misaligned operand bases, inputs ending at an unmapped
// page, and every fused epilogue. SIMD variants are exercised only when
// the probe reports the ISA (the suite stays green on any host); the
// scalar arm always runs.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "dl/layers.hpp"
#include "platform/cpu_probe.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace sx::tensor::kernels {
namespace {

::testing::AssertionResult BitEqual(const std::vector<float>& a,
                                    const std::vector<float>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " != " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i]
             << " (bits 0x" << std::hex << std::bit_cast<std::uint32_t>(a[i])
             << " vs 0x" << std::bit_cast<std::uint32_t>(b[i]) << ")";
  }
  return ::testing::AssertionSuccess();
}

std::vector<float> random_vec(std::size_t n, util::Xoshiro256& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.5, 1.5));
  return v;
}

/// The epilogue through the actual activation Layer::forward (not
/// apply_epilogue, so the test is independent of the kernel header).
std::vector<float> activate(std::vector<float> pre, Epilogue ep) {
  if (ep == Epilogue::kNone) return pre;
  std::vector<float> post(pre.size());
  const Shape sh = Shape::vec(pre.size());
  const TensorView out{post, sh};
  const ConstTensorView in{pre, sh};
  switch (ep) {
    case Epilogue::kRelu: EXPECT_EQ(dl::Relu{}.forward(in, out), Status::kOk); break;
    case Epilogue::kSigmoid: EXPECT_EQ(dl::Sigmoid{}.forward(in, out), Status::kOk); break;
    case Epilogue::kTanh: EXPECT_EQ(dl::Tanh{}.forward(in, out), Status::kOk); break;
    case Epilogue::kNone: break;
  }
  return post;
}

/// Reference y = act(W x + b) via tensor::matvec and the activation layer.
std::vector<float> dense_reference(const float* w, const float* b,
                                   std::size_t rows, std::size_t cols,
                                   const float* x, Epilogue ep) {
  std::vector<float> pre(rows);
  EXPECT_EQ(matvec({{w, rows * cols}, Shape::mat(rows, cols)},
                   {{x, cols}, Shape::vec(cols)}, {{b, rows}, Shape::vec(rows)},
                   TensorView{pre, Shape::vec(rows)}),
            Status::kOk);
  return activate(std::move(pre), ep);
}

/// Every dense wide variant the host can execute, scalar arm first.
std::vector<std::pair<const char*, DenseKernelFn>> dense_variants() {
  const platform::CpuProbe p = platform::probe_cpu();
  std::vector<std::pair<const char*, DenseKernelFn>> v;
  v.emplace_back("scalar", &matvec_wide_scalar);
  if (p.avx2) v.emplace_back("avx2", &matvec_wide_avx2);
  if (p.avx512f) v.emplace_back("avx512", &matvec_wide_avx512);
  return v;
}

std::vector<std::pair<const char*, ConvKernelFn>> conv_variants() {
  const platform::CpuProbe p = platform::probe_cpu();
  std::vector<std::pair<const char*, ConvKernelFn>> v;
  v.emplace_back("scalar", &conv2d_direct_scalar);
  if (p.avx2) v.emplace_back("avx2", &conv2d_direct_avx2);
  if (p.avx512f) v.emplace_back("avx512", &conv2d_direct_avx512);
  return v;
}

Conv2dGeom geom_of(const dl::Conv2d& layer, std::size_t in_h,
                   std::size_t in_w) {
  return Conv2dGeom{.in_c = layer.in_channels(), .in_h = in_h, .in_w = in_w,
                    .out_c = layer.out_channels(), .k = layer.kernel(),
                    .stride = layer.stride(), .pad = layer.padding()};
}

/// The reference Conv2d::forward output for `in`.
std::vector<float> conv_reference(const dl::Conv2d& layer, const Tensor& in) {
  const Shape out_shape = layer.output_shape(in.shape());
  std::vector<float> ref(out_shape.size());
  EXPECT_EQ(layer.forward(in.view(), TensorView{ref, out_shape}),
            Status::kOk);
  return ref;
}

/// A float buffer whose last element sits right before a PROT_NONE page,
/// so a kernel that reads one element past the input faults.
class GuardedFloats {
 public:
  explicit GuardedFloats(std::span<const float> v) {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = v.size() * sizeof(float);
    pages_ = (bytes + page_ - 1) / page_ + 1;
    void* m = mmap(nullptr, pages_ * page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(m, MAP_FAILED);
    base_ = static_cast<char*>(m);
    EXPECT_EQ(mprotect(base_ + (pages_ - 1) * page_, page_, PROT_NONE), 0);
    data_ = reinterpret_cast<float*>(base_ + (pages_ - 1) * page_ - bytes);
    std::memcpy(data_, v.data(), bytes);
  }
  ~GuardedFloats() { munmap(base_, pages_ * page_); }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;
  const float* data() const { return data_; }

 private:
  std::size_t page_ = 0, pages_ = 0;
  char* base_ = nullptr;
  float* data_ = nullptr;
};

/// Runs every conv arm on one geometry (input ending at a guard page) and
/// checks each bitwise against Conv2d::forward.
void expect_conv_matches(std::size_t in_c, std::size_t out_c, std::size_t k,
                         std::size_t stride, std::size_t pad,
                         std::size_t in_h, std::size_t in_w,
                         util::Xoshiro256& rng) {
  dl::Conv2d layer{in_c, out_c, k, stride, pad};
  layer.init(rng);
  const std::span<float> params = layer.params();  // weights, then bias
  for (std::size_t i = layer.weights().size(); i < params.size(); ++i)
    params[i] = static_cast<float>(rng.uniform(-1, 1));
  Tensor in{Shape::chw(in_c, in_h, in_w)};
  in.init_uniform(rng, -1.0f, 1.0f);
  const auto ref = conv_reference(layer, in);
  const GuardedFloats guarded{in.data()};
  const Conv2dGeom g = geom_of(layer, in_h, in_w);
  for (const auto& [name, fn] : conv_variants()) {
    std::vector<float> out(ref.size(), -7.0f);
    EXPECT_TRUE(fn(layer.weights().data(), layer.bias().data(), g,
                   guarded.data(), out.data(), Epilogue::kNone, true));
    EXPECT_TRUE(BitEqual(out, ref))
        << "wide/" << name << " in_c=" << in_c << " out_c=" << out_c
        << " k=" << k << " stride=" << stride << " pad=" << pad << " "
        << in_h << "x" << in_w;
  }
}

TEST(WideMatvec, BitwiseEqualsReferenceAcrossShapesAndIsas) {
  util::Xoshiro256 rng{2025};
  // Below / at / above the 16-row group, primes for ragged tails, the
  // benchmark sizes, and an exact two-group control. rows % 16 covers
  // 1..15 tail rows: scalar-only (1..3), whole 4-row vector groups
  // (4, 8, 12) and groups plus scalar rows (7, 15).
  const std::size_t sizes[] = {1,  2,  3,  4,  7,  8,  12, 15, 16, 17, 20,
                               23, 24, 28, 31, 32, 33, 44, 48, 64, 100, 128};
  for (std::size_t rows : sizes) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{3}, std::size_t{17},
                             std::size_t{32}, std::size_t{53}}) {
      const auto w = random_vec(rows * cols, rng);
      const auto b = random_vec(rows, rng);
      const auto x = random_vec(cols, rng);
      const auto ref = dense_reference(w.data(), b.data(), rows, cols,
                                       x.data(), Epilogue::kNone);

      std::vector<float> panel(wide_dense_panel_floats(rows, cols), -1.0f);
      pack_wide_dense_panel(w.data(), rows, cols, panel.data());
      for (const auto& [name, fn] : dense_variants()) {
        std::vector<float> out(rows, -7.0f);
        EXPECT_TRUE(fn(panel.data(), b.data(), rows, cols, x.data(),
                       out.data(), Epilogue::kNone, true));
        EXPECT_TRUE(BitEqual(out, ref))
            << rows << "x" << cols << " wide/" << name;
      }
    }
  }
}

TEST(WideMatvec, FusedEpiloguesMatchReferenceAcrossIsas) {
  util::Xoshiro256 rng{7};
  for (std::size_t rows : {std::size_t{5}, std::size_t{12}, std::size_t{16},
                           std::size_t{19}, std::size_t{40}}) {
    const std::size_t cols = 23;
    const auto w = random_vec(rows * cols, rng);
    const auto b = random_vec(rows, rng);
    const auto x = random_vec(cols, rng);
    std::vector<float> panel(wide_dense_panel_floats(rows, cols));
    pack_wide_dense_panel(w.data(), rows, cols, panel.data());
    for (Epilogue ep : {Epilogue::kRelu, Epilogue::kSigmoid,
                        Epilogue::kTanh}) {
      const auto ref =
          dense_reference(w.data(), b.data(), rows, cols, x.data(), ep);
      for (const auto& [name, fn] : dense_variants()) {
        std::vector<float> out(rows);
        EXPECT_TRUE(fn(panel.data(), b.data(), rows, cols, x.data(),
                       out.data(), ep, true));
        EXPECT_TRUE(BitEqual(out, ref))
            << "rows=" << rows << " ep=" << static_cast<int>(ep) << " wide/"
            << name;
      }
    }
  }
}

TEST(WideMatvec, MisalignedOperandBasesStayBitwiseIdentical) {
  // The wide loads go through memcpy, so nothing may depend on 32/64-byte
  // operand alignment. Shift x, bias and out off the allocator's natural
  // alignment by one float and re-check identity.
  util::Xoshiro256 rng{31};
  const std::size_t rows = 37, cols = 29;
  const auto w = random_vec(rows * cols, rng);
  const auto raw_b = random_vec(rows + 1, rng);
  const auto raw_x = random_vec(cols + 1, rng);
  const float* b = raw_b.data() + 1;
  const float* x = raw_x.data() + 1;
  const auto ref = dense_reference(w.data(), b, rows, cols, x,
                                   Epilogue::kRelu);
  std::vector<float> panel(wide_dense_panel_floats(rows, cols));
  pack_wide_dense_panel(w.data(), rows, cols, panel.data());
  for (const auto& [name, fn] : dense_variants()) {
    std::vector<float> raw_out(rows + 1, -7.0f);
    EXPECT_TRUE(fn(panel.data(), b, rows, cols, x, raw_out.data() + 1,
                   Epilogue::kRelu, true));
    EXPECT_TRUE(BitEqual(
        std::vector<float>(raw_out.begin() + 1, raw_out.end()), ref))
        << "wide/" << name;
  }
}

TEST(WideMatvec, CheckFlagsNonFinitePreActivation) {
  // relu(NaN) == 0 would silently mask a corrupted accumulation; every
  // stage of every arm must report the fault the reference engine's
  // per-layer scan would have caught before the activation.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Xoshiro256 rng{3};
  // Dense: one full group + 7-row tail (one 4-row vector group + 3 scalar
  // rows), one NaN per stage, each in its own run.
  const std::size_t rows = 23, cols = 4;
  for (const std::size_t bad : {5u, 18u, 21u}) {  // group, vector, scalar
    auto w = random_vec(rows * cols, rng);
    const auto b = random_vec(rows, rng);
    const auto x = random_vec(cols, rng);
    w[bad * cols + 2] = nan;
    std::vector<float> panel(wide_dense_panel_floats(rows, cols));
    pack_wide_dense_panel(w.data(), rows, cols, panel.data());
    for (const auto& [name, fn] : dense_variants()) {
      std::vector<float> out(rows);
      EXPECT_FALSE(fn(panel.data(), b.data(), rows, cols, x.data(),
                      out.data(), Epilogue::kRelu, true))
          << "wide/" << name << " row " << bad;
      // Unchecked mode still computes (campaigns compare raw propagation).
      EXPECT_TRUE(fn(panel.data(), b.data(), rows, cols, x.data(),
                     out.data(), Epilogue::kNone, false));
      for (std::size_t r = 0; r < rows; ++r)
        EXPECT_EQ(std::isnan(out[r]), r == bad) << "wide/" << name;
    }
  }
  // Conv: one full 8-channel block + a 5-channel tail block; the NaN sits
  // in one tail channel's centre tap, which every pixel reads.
  const Conv2dGeom g{.in_c = 2, .in_h = 5, .in_w = 5, .out_c = 13, .k = 3,
                     .stride = 1, .pad = 1};
  dl::Conv2d layer{g.in_c, g.out_c, g.k, g.stride, g.pad};
  layer.init(rng);
  const std::size_t bad_ch = 10;
  layer.params()[bad_ch * g.patch() + 4] = nan;  // weights lead params
  Tensor in{Shape::chw(g.in_c, g.in_h, g.in_w)};
  in.init_uniform(rng, -1.0f, 1.0f);
  for (const auto& [name, fn] : conv_variants()) {
    std::vector<float> out(g.out_c * g.opix());
    EXPECT_FALSE(fn(layer.weights().data(), layer.bias().data(), g,
                    in.data().data(), out.data(), Epilogue::kRelu, true))
        << "wide/" << name;
    EXPECT_TRUE(fn(layer.weights().data(), layer.bias().data(), g,
                   in.data().data(), out.data(), Epilogue::kNone, false));
    for (std::size_t oc = 0; oc < g.out_c; ++oc)
      EXPECT_EQ(std::isnan(out[oc * g.opix() + g.opix() / 2]), oc == bad_ch)
          << "wide/" << name << " channel " << oc;
  }
}

TEST(WideKernels, SignedZeroOperandsStayBitwiseIdentical) {
  // -0.0 bias plus -0.0 inputs: the reference keeps the sign of
  // -0.0 + w * -0.0. A broadcast built as `vector{} + x` would turn x into
  // +0.0 and flip such outputs to +0.0, so every arm must multiply by the
  // input itself. 84 dense rows reach the avx512 four-block sweep, the AVX2
  // pair and a 4-row vector tail; 20 conv channels reach two full blocks
  // and a 4-channel tail block, and the padded border clips lanes.
  const std::size_t rows = 84, cols = 3;
  std::vector<float> w(rows * cols), b(rows, -0.0f), x(cols, -0.0f);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = (i / cols) % 2 == 0 ? 1.0f : -1.0f;
  const auto ref = dense_reference(w.data(), b.data(), rows, cols, x.data(),
                                   Epilogue::kNone);
  ASSERT_TRUE(std::signbit(ref[0]) && !std::signbit(ref[1]));
  std::vector<float> panel(wide_dense_panel_floats(rows, cols));
  pack_wide_dense_panel(w.data(), rows, cols, panel.data());
  for (const auto& [name, fn] : dense_variants()) {
    std::vector<float> out(rows, 1.0f);
    EXPECT_TRUE(fn(panel.data(), b.data(), rows, cols, x.data(), out.data(),
                   Epilogue::kNone, true));
    EXPECT_TRUE(BitEqual(out, ref)) << "dense wide/" << name;
  }

  const Conv2dGeom g{.in_c = 1, .in_h = 4, .in_w = 4, .out_c = 20, .k = 3,
                     .stride = 1, .pad = 1};
  dl::Conv2d layer{g.in_c, g.out_c, g.k, g.stride, g.pad};
  const std::span<float> params = layer.params();  // weights, then bias
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i] = i < g.out_c * g.patch() ? 1.0f : -0.0f;
  Tensor in{Shape::chw(g.in_c, g.in_h, g.in_w)};
  for (float& v : in.data()) v = -0.0f;
  std::vector<float> cref(g.out_c * g.opix());
  ASSERT_EQ(layer.forward(in.view(), TensorView{cref, Shape::chw(
                                                          g.out_c, g.out_h(),
                                                          g.out_w())}),
            Status::kOk);
  ASSERT_TRUE(std::signbit(cref[0]));
  for (const auto& [name, fn] : conv_variants()) {
    std::vector<float> out(cref.size(), 1.0f);
    EXPECT_TRUE(fn(layer.weights().data(), layer.bias().data(), g,
                   in.data().data(), out.data(), Epilogue::kNone, true));
    EXPECT_TRUE(BitEqual(out, cref)) << "conv wide/" << name;
  }
}

TEST(WidePanel, DenseLayoutIsAlignedAndExhaustive) {
  EXPECT_EQ(wide_dense_panel_floats(16, 32) % kAlignFloats, 0u);
  EXPECT_EQ(wide_dense_panel_floats(1, 1), kAlignFloats);

  const std::size_t rows = 19, cols = 3;  // one full group + 3-row tail
  util::Xoshiro256 rng{41};
  const auto w = random_vec(rows * cols, rng);
  std::vector<float> panel(wide_dense_panel_floats(rows, cols), 99.0f);
  pack_wide_dense_panel(w.data(), rows, cols, panel.data());
  // Full group: panel[c * kWideRowBlock + r] == w[r * cols + c].
  for (std::size_t r = 0; r < kWideRowBlock; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      EXPECT_EQ(panel[c * kWideRowBlock + r], w[r * cols + c]);
  // Tail of 3 rows, interleaved at its own row count.
  const std::size_t tail_base = align_up(kWideRowBlock * cols);
  for (std::size_t r = 0; r < rows - kWideRowBlock; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      EXPECT_EQ(panel[tail_base + c * (rows - kWideRowBlock) + r],
                w[(kWideRowBlock + r) * cols + c]);
}

TEST(WideConv2d, BitwiseEqualsReferenceAcrossGeometriesAndIsas) {
  util::Xoshiro256 rng{11};
  // Every stride 1-3 x pad 0-2 x k 1-5, on widths below, at and above
  // each arm's lane count (4 scalar, 8 avx2, 16 avx512) and on W < k,
  // with a channel pair that runs a full 8-channel block plus a tail.
  for (std::size_t k = 1; k <= 5; ++k)
    for (std::size_t stride = 1; stride <= 3; ++stride)
      for (std::size_t pad = 0; pad <= 2; ++pad)
        for (std::size_t in_w : {2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u, 33u}) {
          const std::size_t in_h = 5;
          if (in_w + 2 * pad < k || in_h + 2 * pad < k) continue;
          expect_conv_matches(2, 9, k, stride, pad, in_h, in_w, rng);
        }
  // in_c and out_c over 1-17: every chain count of the tail block, one
  // and two full blocks, on a padded geometry with ragged tiles.
  for (std::size_t in_c = 1; in_c <= 17; ++in_c)
    for (std::size_t out_c = 1; out_c <= 17; ++out_c)
      expect_conv_matches(in_c, out_c, 3, 1 + (in_c + out_c) % 2, 1, 7, 19,
                          rng);
}

TEST(WideConv2d, FusedEpiloguesMatchUnpackedAcrossIsas) {
  // The unpacked twin is the reference Conv2d::forward followed by the
  // activation layer; out_c = 23 runs two full blocks and a 7-channel
  // tail block.
  util::Xoshiro256 rng{13};
  dl::Conv2d layer{2, 23, 3, 1, 1};
  layer.init(rng);
  Tensor in{Shape::chw(2, 6, 6)};
  in.init_uniform(rng, -1.0f, 1.0f);
  const Conv2dGeom g = geom_of(layer, 6, 6);
  const auto pre = conv_reference(layer, in);
  for (Epilogue ep : {Epilogue::kRelu, Epilogue::kSigmoid, Epilogue::kTanh}) {
    const auto ref = activate(pre, ep);
    for (const auto& [name, fn] : conv_variants()) {
      std::vector<float> out(pre.size(), -7.0f);
      EXPECT_TRUE(fn(layer.weights().data(), layer.bias().data(), g,
                     in.data().data(), out.data(), ep, true));
      EXPECT_TRUE(BitEqual(out, ref))
          << "wide/" << name << " ep=" << static_cast<int>(ep);
    }
  }
}

TEST(WideConv2d, NonFiniteBorderTapsAreSkippedLikeTheReference) {
  // inf, NaN and -0.0 weights sit on taps that the padding clips for the
  // border pixels, and the bias is -0.0. The reference skips a clipped
  // tap, so its product never happens: a zero-padded form (0 * inf = NaN,
  // -0.0 + 0 * w = +0.0) would fork from it. Every lane a mask clips must
  // keep its accumulator bit for bit.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t stride : {1u, 2u}) {
    for (std::size_t in_w : {3u, 7u, 16u, 21u}) {
      dl::Conv2d layer{1, 3, 3, stride, 1};
      const std::span<float> w = layer.params();  // weights, then bias
      for (float& v : w) v = 0.5f;
      // Channel 0: +inf on the left column, -inf on the right one.
      for (std::size_t ky = 0; ky < 3; ++ky) {
        w[ky * 3 + 0] = inf;
        w[ky * 3 + 2] = -inf;
      }
      // Channel 1: NaN on the top row. Channel 2: -0.0 everywhere.
      for (std::size_t kx = 0; kx < 3; ++kx) w[9 + kx] = nan;
      for (std::size_t t = 0; t < 9; ++t) w[18 + t] = -0.0f;
      for (std::size_t oc = 0; oc < 3; ++oc) w[27 + oc] = -0.0f;  // bias
      Tensor in{Shape::chw(1, 4, in_w)};
      for (float& v : in.data()) v = -0.0f;
      const auto ref = conv_reference(layer, in);
      const Conv2dGeom g = geom_of(layer, 4, in_w);
      const GuardedFloats guarded{in.data()};
      for (const auto& [name, fn] : conv_variants()) {
        std::vector<float> out(ref.size(), 1.0f);
        (void)fn(layer.weights().data(), layer.bias().data(), g,
                 guarded.data(), out.data(), Epilogue::kNone, false);
        EXPECT_TRUE(BitEqual(out, ref))
            << "wide/" << name << " stride=" << stride << " W=" << in_w;
      }
    }
  }
}

TEST(WideMaxPool, FloatBitwiseEqualsReference) {
  // NaN (skipped by `v > m`), -inf, signed zeros (the first zero of a
  // window wins) and ordinary values; window 2 on rows whose output width
  // is below, at and above the vector width, and window 3 on odd dims.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, -inf, inf, -0.0f, 0.0f, 1.0f, -2.5f};
  util::Xoshiro256 rng{17};
  struct Case { std::size_t c, h, w, window; };
  for (const Case cs : {Case{3, 2, 2, 2}, Case{2, 4, 6, 2}, Case{5, 6, 16, 2},
                        Case{8, 16, 16, 2}, Case{3, 8, 34, 2},
                        Case{2, 9, 9, 3}, Case{3, 3, 21, 3},
                        Case{1, 5, 5, 1}}) {
    Tensor in{Shape::chw(cs.c, cs.h, cs.w)};
    for (float& v : in.data())
      v = rng.uniform(0, 1) < 0.4
              ? specials[rng() % std::size(specials)]
              : static_cast<float>(rng.uniform(-2, 2));
    const dl::MaxPool2d pool{cs.window};
    const Shape os = pool.output_shape(in.shape());
    std::vector<float> ref(os.size()), out(os.size(), 7.0f);
    ASSERT_EQ(pool.forward(in.view(), TensorView{ref, os}), Status::kOk);
    const GuardedFloats guarded{in.data()};
    maxpool2d(guarded.data(), cs.c, cs.h, cs.w, cs.window, out.data());
    EXPECT_TRUE(BitEqual(out, ref))
        << cs.c << "x" << cs.h << "x" << cs.w << " window " << cs.window;
  }
}

TEST(WideMaxPool, Int8EqualsReference) {
  // -128 (the fold's start value) and 127 extremes, window 2 with row
  // tails off the 16-byte vector and window 3 on odd dims, against the
  // int8 reference fold (QuantizedModel::apply_layer's loop).
  util::Xoshiro256 rng{19};
  struct Case { std::size_t c, h, w, window; };
  for (const Case cs : {Case{3, 2, 2, 2}, Case{2, 4, 30, 2},
                        Case{4, 6, 32, 2}, Case{8, 16, 66, 2},
                        Case{2, 9, 9, 3}, Case{3, 3, 51, 3}}) {
    std::vector<std::int8_t> in(cs.c * cs.h * cs.w);
    for (auto& v : in) {
      const std::uint64_t r = rng() % 8;
      v = r == 0   ? std::int8_t{-128}
          : r == 1 ? std::int8_t{127}
                   : static_cast<std::int8_t>(static_cast<int>(rng() % 256) -
                                              128);
    }
    const std::size_t oh = cs.h / cs.window, ow = cs.w / cs.window;
    std::vector<std::int8_t> ref(cs.c * oh * ow), out(ref.size(), 5);
    for (std::size_t ch = 0; ch < cs.c; ++ch)
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          std::int8_t m = -128;
          for (std::size_t dy = 0; dy < cs.window; ++dy)
            for (std::size_t dx = 0; dx < cs.window; ++dx) {
              const std::int8_t v =
                  in[(ch * cs.h + oy * cs.window + dy) * cs.w +
                     ox * cs.window + dx];
              m = v > m ? v : m;
            }
          ref[(ch * oh + oy) * ow + ox] = m;
        }
    maxpool2d(in.data(), cs.c, cs.h, cs.w, cs.window, out.data());
    EXPECT_EQ(out, ref) << cs.c << "x" << cs.h << "x" << cs.w << " window "
                        << cs.window;
  }
}

TEST(WideDispatch, SelectorsReturnIsaSpecificEntryPoints) {
  EXPECT_EQ(wide_dense_kernel(WideIsa::kScalar), &matvec_wide_scalar);
  EXPECT_EQ(wide_dense_kernel(WideIsa::kAvx2), &matvec_wide_avx2);
  EXPECT_EQ(wide_dense_kernel(WideIsa::kAvx512), &matvec_wide_avx512);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kScalar), &conv2d_direct_scalar);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kAvx2), &conv2d_direct_avx2);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kAvx512), &conv2d_direct_avx512);
  EXPECT_STREQ(wide_isa_name(WideIsa::kScalar), "scalar");
  EXPECT_STREQ(wide_isa_name(WideIsa::kAvx2), "avx2");
  EXPECT_STREQ(wide_isa_name(WideIsa::kAvx512), "avx512");
}

}  // namespace
}  // namespace sx::tensor::kernels
