// Differential sweeps for the wide-SIMD (kWide) float microkernels.
//
// The load-bearing property is *bitwise* identity with the audited
// reference loops (tensor::matvec, Conv2d::forward and the activation
// layers), for every lane family the CPU probe can select. The wide
// kernels vectorize ACROSS independent output rows/channels while
// preserving each output's serial ascending-column accumulation chain, so
// the scalar arm, AVX2 and AVX-512 variants must all reproduce the
// reference bit for bit — across randomized shapes, ragged tails off the
// 16-row groups (vector and scalar tail rows), the 8-lane conv groups,
// the 4-lane half group and the live-weight tail channels, misaligned
// operand bases, and every fused epilogue. SIMD variants are exercised
// only when the probe reports the ISA (the suite stays green on any host);
// the scalar arm always runs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
  v.emplace_back("scalar", &conv2d_im2col_wide_scalar);
  if (p.avx2) v.emplace_back("avx2", &conv2d_im2col_wide_avx2);
  if (p.avx512f) v.emplace_back("avx512", &conv2d_im2col_wide_avx512);
  return v;
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
  // Conv: one 8-lane group + the 4-lane half group + 1 live tail channel;
  // the NaN sits in one half-group lane.
  const Conv2dGeom g{.in_c = 2, .in_h = 5, .in_w = 5, .out_c = 13, .k = 3,
                     .stride = 1, .pad = 1};
  dl::Conv2d layer{g.in_c, g.out_c, g.k, g.stride, g.pad};
  layer.init(rng);
  const std::size_t bad_ch = 10;
  layer.params()[bad_ch * g.patch() + 4] = nan;  // weights lead params
  Tensor in{Shape::chw(g.in_c, g.in_h, g.in_w)};
  in.init_uniform(rng, -1.0f, 1.0f);
  const std::size_t entries = im2col_entries(g);
  std::vector<std::uint32_t> pix_off(g.opix() + 1), in_idx(entries),
      w_ofs(entries);
  build_im2col_tables(g, pix_off.data(), in_idx.data(), w_ofs.data());
  std::vector<float> col(entries);
  im2col_gather(in.data().data(), in_idx.data(), entries, col.data());
  const ConvTables t{.out_c = g.out_c, .patch = g.patch(), .opix = g.opix(),
                     .pix_off = pix_off.data(), .in_idx = in_idx.data(),
                     .w_ofs = w_ofs.data()};
  std::vector<float> panel(wide_conv_panel_floats(g.out_c, g.patch()));
  pack_wide_conv_panel(layer.weights().data(), g.out_c, g.patch(),
                       panel.data());
  for (const auto& [name, fn] : conv_variants()) {
    std::vector<float> out(g.out_c * g.opix());
    EXPECT_FALSE(fn(panel.data(), layer.weights().data(),
                    layer.bias().data(), t, col.data(), out.data(),
                    Epilogue::kRelu, true))
        << "wide/" << name;
    EXPECT_TRUE(fn(panel.data(), layer.weights().data(), layer.bias().data(),
                   t, col.data(), out.data(), Epilogue::kNone, false));
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
  // pair and a 4-row vector tail; 20 conv channels reach the paired and
  // single 8-lane groups and the half group.
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
  const std::size_t entries = im2col_entries(g);
  std::vector<std::uint32_t> pix_off(g.opix() + 1), in_idx(entries),
      w_ofs(entries);
  build_im2col_tables(g, pix_off.data(), in_idx.data(), w_ofs.data());
  std::vector<float> col(entries);
  im2col_gather(in.data().data(), in_idx.data(), entries, col.data());
  const ConvTables t{.out_c = g.out_c, .patch = g.patch(), .opix = g.opix(),
                     .pix_off = pix_off.data(), .in_idx = in_idx.data(),
                     .w_ofs = w_ofs.data()};
  std::vector<float> cpanel(wide_conv_panel_floats(g.out_c, g.patch()));
  pack_wide_conv_panel(layer.weights().data(), g.out_c, g.patch(),
                       cpanel.data());
  for (const auto& [name, fn] : conv_variants()) {
    std::vector<float> out(cref.size(), 1.0f);
    EXPECT_TRUE(fn(cpanel.data(), layer.weights().data(), layer.bias().data(),
                   t, col.data(), out.data(), Epilogue::kNone, true));
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
  for (std::size_t in_c : {1u, 3u}) {
    for (std::size_t k : {1u, 3u}) {
      for (std::size_t stride : {1u, 2u}) {
        for (std::size_t pad : {0u, 1u}) {
          // 1, 3 = live tail only (no panel at all); 4 = the half group
          // alone; 5, 7 = half group + live tail; 8 = one full lane
          // group; 12, 13 = a group + the half group (+ tail); 16 = two
          // groups (the AVX-512 paired path); 19 = two groups + 3 live
          // channels (no half group); 20 = two groups + the half group.
          for (std::size_t out_c :
               {1u, 3u, 4u, 5u, 7u, 8u, 12u, 13u, 16u, 19u, 20u}) {
            const std::size_t in_h = 7, in_w = 5;
            if (in_h + 2 * pad < k) continue;

            dl::Conv2d layer{in_c, out_c, k, stride, pad};
            layer.init(rng);
            Tensor in{Shape::chw(in_c, in_h, in_w)};
            in.init_uniform(rng, -1.0f, 1.0f);
            const Shape out_shape =
                layer.output_shape(Shape::chw(in_c, in_h, in_w));
            std::vector<float> ref(out_shape.size());
            ASSERT_EQ(layer.forward(in.view(), TensorView{ref, out_shape}),
                      Status::kOk);

            Conv2dGeom g{.in_c = in_c, .in_h = in_h, .in_w = in_w,
                         .out_c = out_c, .k = k, .stride = stride,
                         .pad = pad};
            const std::size_t entries = im2col_entries(g);
            std::vector<std::uint32_t> pix_off(g.opix() + 1),
                in_idx(entries), w_ofs(entries);
            build_im2col_tables(g, pix_off.data(), in_idx.data(),
                                w_ofs.data());
            std::vector<float> col(entries);
            im2col_gather(in.data().data(), in_idx.data(), entries,
                          col.data());
            const ConvTables t{.out_c = out_c, .patch = g.patch(),
                               .opix = g.opix(), .pix_off = pix_off.data(),
                               .in_idx = in_idx.data(),
                               .w_ofs = w_ofs.data()};

            std::vector<float> panel(
                wide_conv_panel_floats(out_c, g.patch()), -1.0f);
            pack_wide_conv_panel(layer.weights().data(), out_c, g.patch(),
                                 panel.data());
            for (const auto& [name, fn] : conv_variants()) {
              std::vector<float> out(out_shape.size(), -7.0f);
              EXPECT_TRUE(fn(panel.empty() ? nullptr : panel.data(),
                             layer.weights().data(), layer.bias().data(), t,
                             col.data(), out.data(), Epilogue::kNone, true));
              EXPECT_TRUE(BitEqual(out, ref))
                  << "wide/" << name << " in_c=" << in_c << " k=" << k
                  << " stride=" << stride << " pad=" << pad
                  << " out_c=" << out_c;
            }
          }
        }
      }
    }
  }
}

TEST(WideConv2d, FusedEpiloguesMatchUnpackedAcrossIsas) {
  // The unpacked twin is the reference Conv2d::forward followed by the
  // activation layer; out_c = 23 runs two full groups, the half group and
  // three live tail channels.
  util::Xoshiro256 rng{13};
  const Conv2dGeom g{.in_c = 2, .in_h = 6, .in_w = 6, .out_c = 23, .k = 3,
                     .stride = 1, .pad = 1};
  dl::Conv2d layer{g.in_c, g.out_c, g.k, g.stride, g.pad};
  layer.init(rng);
  Tensor in{Shape::chw(g.in_c, g.in_h, g.in_w)};
  in.init_uniform(rng, -1.0f, 1.0f);
  const std::size_t entries = im2col_entries(g);
  std::vector<std::uint32_t> pix_off(g.opix() + 1), in_idx(entries),
      w_ofs(entries);
  build_im2col_tables(g, pix_off.data(), in_idx.data(), w_ofs.data());
  std::vector<float> col(entries);
  im2col_gather(in.data().data(), in_idx.data(), entries, col.data());
  const ConvTables t{.out_c = g.out_c, .patch = g.patch(), .opix = g.opix(),
                     .pix_off = pix_off.data(), .in_idx = in_idx.data(),
                     .w_ofs = w_ofs.data()};
  std::vector<float> panel(wide_conv_panel_floats(g.out_c, g.patch()));
  pack_wide_conv_panel(layer.weights().data(), g.out_c, g.patch(),
                       panel.data());
  const std::size_t n = g.out_c * g.opix();
  std::vector<float> pre(n);
  ASSERT_EQ(layer.forward(in.view(), TensorView{pre, Shape::chw(
                                                        g.out_c, g.out_h(),
                                                        g.out_w())}),
            Status::kOk);
  for (Epilogue ep : {Epilogue::kRelu, Epilogue::kSigmoid, Epilogue::kTanh}) {
    const auto ref = activate(pre, ep);
    for (const auto& [name, fn] : conv_variants()) {
      std::vector<float> out(n, -7.0f);
      EXPECT_TRUE(fn(panel.data(), layer.weights().data(),
                     layer.bias().data(), t, col.data(), out.data(), ep,
                     true));
      EXPECT_TRUE(BitEqual(out, ref))
          << "wide/" << name << " ep=" << static_cast<int>(ep);
    }
  }
}

TEST(WideDispatch, SelectorsReturnIsaSpecificEntryPoints) {
  EXPECT_EQ(wide_dense_kernel(WideIsa::kScalar), &matvec_wide_scalar);
  EXPECT_EQ(wide_dense_kernel(WideIsa::kAvx2), &matvec_wide_avx2);
  EXPECT_EQ(wide_dense_kernel(WideIsa::kAvx512), &matvec_wide_avx512);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kScalar), &conv2d_im2col_wide_scalar);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kAvx2), &conv2d_im2col_wide_avx2);
  EXPECT_EQ(wide_conv_kernel(WideIsa::kAvx512), &conv2d_im2col_wide_avx512);
  EXPECT_STREQ(wide_isa_name(WideIsa::kScalar), "scalar");
  EXPECT_STREQ(wide_isa_name(WideIsa::kAvx2), "avx2");
  EXPECT_STREQ(wide_isa_name(WideIsa::kAvx512), "avx512");
}

}  // namespace
}  // namespace sx::tensor::kernels
