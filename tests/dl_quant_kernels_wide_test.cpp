// Differential sweeps for the widened int8 (kWide) dot-product
// microkernels and the planned int8 engine running on top of them.
//
// Contract under test: the 32-row Dense and 16/8-channel Conv2d wide
// microkernels preserve the per-output int32 accumulation chain of the
// audited reference loops in dl/quant.cpp — so the scalar arm, AVX2 and
// AVX-512 variants must be bitwise identical to QuantizedModel::apply_layer
// in outputs AND saturation counts, across ragged tails off the 32/16-lane
// groups and the 8-lane half group, and the kWide QuantEngine must match the
// reference QuantizedModel::run bit for bit (logits and per-layer
// counters), including under the SX_KERNEL_ISA override. SIMD variants
// run only where the CPU probe reports the ISA.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "platform/cpu_probe.hpp"
#include "tensor/qkernels.hpp"
#include "util/rng.hpp"

namespace sx::dl {
namespace {

namespace qk = tensor::qkernels;
using tensor::Shape;
using tensor::Tensor;

std::vector<std::int8_t> random_i8(std::size_t n, util::Xoshiro256& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform(-127.0, 128.0)));
  return v;
}

Dataset toy_dataset(const Shape& input_shape, std::size_t n,
                    std::uint64_t seed) {
  Dataset ds;
  ds.num_classes = 3;
  ds.input_shape = input_shape;
  util::Xoshiro256 rng{seed};
  for (std::size_t i = 0; i < n; ++i) {
    Sample s;
    s.input = Tensor{input_shape};
    s.input.init_uniform(rng, -2.0f, 2.0f);
    s.label = i % 3;
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

/// Quantizes `m` (a Dense or Conv2d layer, then a ReLU) and overwrites
/// layer 0's int8 weights with full-range random values, so the
/// calibrated scales make requantize clip. QuantizedModel::apply_layer is
/// then the audited reference loop for exactly these weights.
QuantizedModel random_weight_qmodel(const Model& m, const Dataset& cal,
                                    WeightGranularity granularity,
                                    util::Xoshiro256& rng) {
  QuantizedModel qm = QuantizedModel::quantize(m, cal, {granularity});
  const std::span<std::int8_t> w = qm.mutable_weights(0);
  const auto r = random_i8(w.size(), rng);
  std::copy(r.begin(), r.end(), w.begin());
  return qm;
}

/// The fused requantize parameters of layer 0, as QuantKernelPlan sets
/// them.
qk::Requant requant_of(const QuantizedModel& qm, bool relu) {
  const QuantizedModel::QLayerView v = qm.layer_view(0);
  return qk::Requant{.w_scales = v.w_scales.data(),
                     .per_channel = v.w_scales.size() > 1,
                     .bias = v.bias.data(),
                     .in_scale = qm.input_scale(),
                     .out_scale = v.out_scale,
                     .relu = relu};
}

std::vector<std::pair<const char*, qk::QDenseKernelFn>> qdense_variants() {
  const platform::CpuProbe p = platform::probe_cpu();
  std::vector<std::pair<const char*, qk::QDenseKernelFn>> v;
  v.emplace_back("scalar", &qk::qmatvec_wide_scalar);
  if (p.avx2) v.emplace_back("avx2", &qk::qmatvec_wide_avx2);
  if (p.avx512f) v.emplace_back("avx512", &qk::qmatvec_wide_avx512);
  return v;
}

std::vector<std::pair<const char*, qk::QConvKernelFn>> qconv_variants() {
  const platform::CpuProbe p = platform::probe_cpu();
  std::vector<std::pair<const char*, qk::QConvKernelFn>> v;
  v.emplace_back("scalar", &qk::qconv2d_im2col_wide_scalar);
  if (p.avx2) v.emplace_back("avx2", &qk::qconv2d_im2col_wide_avx2);
  if (p.avx512f) v.emplace_back("avx512", &qk::qconv2d_im2col_wide_avx512);
  return v;
}

TEST(WideQMatvec, BitwiseEqualsReferenceWithSaturationParity) {
  util::Xoshiro256 rng{404};
  // Below / at / above the 32-row group, primes for ragged tails, and an
  // exact multi-group control.
  const std::size_t sizes[] = {1, 3, 7, 8, 16, 31, 32, 33, 47, 64, 96, 101};
  std::uint64_t clips = 0;
  for (std::size_t rows : sizes) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{5}, std::size_t{32},
                             std::size_t{53}}) {
      ModelBuilder b{Shape::vec(cols)};
      b.dense(rows).relu();
      const Model m = b.build(1000 * rows + cols);
      const Dataset cal = toy_dataset(Shape::vec(cols), 4, rows + cols);
      for (const WeightGranularity gran :
           {WeightGranularity::kPerChannel, WeightGranularity::kPerTensor}) {
        const QuantizedModel qm = random_weight_qmodel(m, cal, gran, rng);
        const auto x = random_i8(cols, rng);
        std::vector<std::int8_t> pre(rows, -7), post(rows, -7);
        std::uint64_t ref_sat = 0;
        ASSERT_EQ(qm.apply_layer(0, x, pre, &ref_sat), Status::kOk);
        ASSERT_EQ(qm.apply_layer(1, pre, post, nullptr), Status::kOk);
        clips += ref_sat;

        const auto w = qm.layer_view(0).weights;
        std::vector<std::int8_t> panel(
            qk::qwide_dense_panel_bytes(rows, cols), -1);
        qk::pack_qwide_dense_panel(w.data(), rows, cols, panel.data());
        for (const bool relu : {false, true}) {
          const qk::Requant rq = requant_of(qm, relu);
          const std::vector<std::int8_t>& ref = relu ? post : pre;
          for (const auto& [name, fn] : qdense_variants()) {
            std::vector<std::int8_t> out(rows, -7);
            std::uint64_t sat = 0;
            fn(panel.data(), rows, cols, x.data(), rq, out.data(), &sat);
            EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), rows))
                << rows << "x" << cols << " qwide/" << name;
            EXPECT_EQ(sat, ref_sat) << rows << "x" << cols << " qwide/"
                                    << name;
          }
        }
      }
    }
  }
  EXPECT_GT(clips, 0u) << "saturation-count parity must be non-vacuous";
}

TEST(WideQConv, BitwiseEqualsUnpackedAcrossGeometriesAndIsas) {
  namespace k = tensor::kernels;
  util::Xoshiro256 rng{405};
  std::uint64_t clips = 0;
  for (std::size_t in_c : {1u, 3u}) {
    for (std::size_t kk : {1u, 3u}) {
      for (std::size_t pad : {0u, 1u}) {
        // 16 = one full wide lane group; 32 = two; 8 = the half group
        // alone; 24 = group + half group; 21 = group + 5 tail channels;
        // 11 = half group + 3 tail channels.
        for (std::size_t out_c : {8u, 11u, 16u, 21u, 24u, 32u}) {
          const std::size_t in_h = 6, in_w = 5, stride = 1;
          if (in_h + 2 * pad < kk) continue;
          const k::Conv2dGeom g{.in_c = in_c, .in_h = in_h, .in_w = in_w,
                                .out_c = out_c, .k = kk, .stride = stride,
                                .pad = pad};
          const Shape in_shape = Shape::chw(in_c, in_h, in_w);
          ModelBuilder b{in_shape};
          b.conv2d(out_c, kk, stride, pad).relu();
          const Model m = b.build(100 * out_c + 10 * kk + pad);
          const QuantizedModel qm = random_weight_qmodel(
              m, toy_dataset(in_shape, 4, out_c + in_c),
              WeightGranularity::kPerChannel, rng);
          const auto wt = qm.layer_view(0).weights;
          const auto img = random_i8(in_shape.size(), rng);
          const std::size_t n = out_c * g.opix();
          std::vector<std::int8_t> pre(n, -7), ref(n, -7);
          std::uint64_t ref_sat = 0;
          ASSERT_EQ(qm.apply_layer(0, img, pre, &ref_sat), Status::kOk);
          ASSERT_EQ(qm.apply_layer(1, pre, ref, nullptr), Status::kOk);
          clips += ref_sat;

          const std::size_t entries = k::im2col_entries(g);
          std::vector<std::uint32_t> pix_off(g.opix() + 1), in_idx(entries),
              w_ofs(entries);
          k::build_im2col_tables(g, pix_off.data(), in_idx.data(),
                                 w_ofs.data());
          std::vector<std::int8_t> col(entries);
          qk::im2col_gather_i8(img.data(), in_idx.data(), entries,
                               col.data());
          const qk::Requant rq = requant_of(qm, /*relu=*/true);
          const k::ConvTables t{.out_c = out_c, .patch = g.patch(),
                                .opix = g.opix(), .pix_off = pix_off.data(),
                                .in_idx = in_idx.data(),
                                .w_ofs = w_ofs.data()};

          std::vector<std::int8_t> panel(
              qk::qwide_conv_panel_bytes(out_c, g.patch()), -1);
          qk::pack_qwide_conv_panel(wt.data(), out_c, g.patch(),
                                    panel.data());
          for (const auto& [name, fn] : qconv_variants()) {
            std::vector<std::int8_t> out(n, -7);
            std::uint64_t sat = 0;
            fn(panel.empty() ? nullptr : panel.data(), wt.data(), t,
               col.data(), rq, out.data(), &sat);
            EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), n))
                << "qwide/" << name << " in_c=" << in_c << " k=" << kk
                << " pad=" << pad << " out_c=" << out_c;
            EXPECT_EQ(sat, ref_sat) << "qwide/" << name;
          }
        }
      }
    }
  }
  EXPECT_GT(clips, 0u) << "saturation-count parity must be non-vacuous";
}

TEST(WideQConvHalfGroup, PanelHoldsHalfGroupWheneverEightChannelsRemain) {
  const std::size_t patch = 27;  // 3 input channels, 3x3 kernel
  const std::size_t full = qk::align_up_bytes(patch * 16);
  const std::size_t half = qk::align_up_bytes(patch * 8);
  EXPECT_EQ(qk::qwide_conv_panel_bytes(7, patch), 0u);
  EXPECT_EQ(qk::qwide_conv_panel_bytes(8, patch), half);
  EXPECT_EQ(qk::qwide_conv_panel_bytes(15, patch), half);
  EXPECT_EQ(qk::qwide_conv_panel_bytes(16, patch), full);
  EXPECT_EQ(qk::qwide_conv_panel_bytes(23, patch), full);
  EXPECT_EQ(qk::qwide_conv_panel_bytes(24, patch), full + half);
  EXPECT_EQ(qk::qwide_conv_panel_bytes(40, patch), 2 * full + half);

  // The half group is tap-major at lane stride 8, right after the full
  // groups: channel 16 + i, tap j sits at full + j * 8 + i.
  std::vector<std::int8_t> wt(24 * patch);
  for (std::size_t i = 0; i < wt.size(); ++i)
    wt[i] = static_cast<std::int8_t>(i % 251 - 125);
  std::vector<std::int8_t> panel(qk::qwide_conv_panel_bytes(24, patch), -1);
  qk::pack_qwide_conv_panel(wt.data(), 24, patch, panel.data());
  for (std::size_t j = 0; j < patch; ++j)
    for (std::size_t i = 0; i < 8; ++i)
      ASSERT_EQ(panel[full + j * 8 + i], wt[(16 + i) * patch + j])
          << "tap " << j << " lane " << i;
}

TEST(WideQDispatch, SelectorsReturnIsaSpecificEntryPoints) {
  using tensor::kernels::WideIsa;
  EXPECT_EQ(qk::wide_qdense_kernel(WideIsa::kScalar),
            &qk::qmatvec_wide_scalar);
  EXPECT_EQ(qk::wide_qdense_kernel(WideIsa::kAvx2), &qk::qmatvec_wide_avx2);
  EXPECT_EQ(qk::wide_qdense_kernel(WideIsa::kAvx512),
            &qk::qmatvec_wide_avx512);
  EXPECT_EQ(qk::wide_qconv_kernel(WideIsa::kScalar),
            &qk::qconv2d_im2col_wide_scalar);
  EXPECT_EQ(qk::wide_qconv_kernel(WideIsa::kAvx2),
            &qk::qconv2d_im2col_wide_avx2);
  EXPECT_EQ(qk::wide_qconv_kernel(WideIsa::kAvx512),
            &qk::qconv2d_im2col_wide_avx512);
}

// ------------------------------------------------- engine-level identity

bool bits_equal(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

/// kWide QuantEngine vs reference QuantizedModel::run, for every ISA the
/// SX_KERNEL_ISA override can legitimately request on this host.
TEST(WideQuantEngine, BitwiseIdenticalToReferenceUnderIsaOverrides) {
  ModelBuilder b{Shape::chw(2, 9, 9)};
  b.conv2d(16, 3, /*stride=*/1, /*padding=*/1)
      .relu()
      .maxpool(3)
      .flatten()
      .dense(37)
      .relu()
      .dense(5);
  const Model m = b.build(321);
  const Dataset cal = toy_dataset(Shape::chw(2, 9, 9), 12, 99);
  const QuantizedModel qm = QuantizedModel::quantize(m, cal);

  const platform::CpuProbe probe = platform::probe_cpu();
  std::vector<const char*> isas = {"scalar"};
  if (probe.avx2) isas.push_back("avx2");
  if (probe.avx512f) isas.push_back("avx512");

  const std::size_t n_out = qm.output_shape().size();
  for (const char* isa : isas) {
    ASSERT_EQ(setenv("SX_KERNEL_ISA", isa, 1), 0);
    QuantizedModel ref = qm;  // counters accumulate in the copy
    QuantEngine eng{qm, QuantEngineConfig{.kernels = KernelMode::kWide}};
    ASSERT_NE(eng.plan(), nullptr);
    EXPECT_FALSE(eng.plan()->isa_selection().refused) << isa;
    EXPECT_STREQ(
        tensor::kernels::wide_isa_name(eng.plan()->isa_selection().isa),
        isa);

    std::vector<float> r(n_out), p(n_out);
    util::Xoshiro256 rng{77};
    for (int it = 0; it < 8; ++it) {
      Tensor in{Shape::chw(2, 9, 9)};
      in.init_uniform(rng, -2.5f, 2.5f);
      ASSERT_EQ(ref.run(in.view(), r), Status::kOk);
      ASSERT_EQ(eng.run(in.view(), p), Status::kOk);
      for (std::size_t i = 0; i < n_out; ++i)
        ASSERT_TRUE(bits_equal(r[i], p[i]))
            << "isa=" << isa << " logit " << i;
    }
    const auto rc = ref.saturation_counts();
    const auto pc = eng.saturation_counts();
    ASSERT_EQ(rc.size(), pc.size());
    for (std::size_t i = 0; i < rc.size(); ++i)
      EXPECT_EQ(rc[i], pc[i]) << "isa=" << isa << " layer " << i;
  }
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

/// Engine-level sweep over conv widths that hit every group schedule:
/// tail only, half group alone, half group + tail, full groups with and
/// without a half group. The kWide engine must match the reference
/// QuantizedModel::run bit for bit — logits and per-layer clip counters —
/// under every ISA the probe confirms.
TEST(WideQConvHalfGroup, EngineSweepBitwiseIdenticalToReference) {
  const platform::CpuProbe probe = platform::probe_cpu();
  std::vector<const char*> isas = {"scalar"};
  if (probe.avx2) isas.push_back("avx2");
  if (probe.avx512f) isas.push_back("avx512");

  std::uint64_t conv_clips = 0;
  for (std::size_t out_c : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 31u, 32u}) {
    ModelBuilder b{Shape::chw(3, 8, 8)};
    b.conv2d(out_c, 3, /*stride=*/1, /*padding=*/1)
        .relu()
        .maxpool(2)
        .flatten()
        .dense(4);
    const Model m = b.build(700 + out_c);
    const Dataset cal = toy_dataset(Shape::chw(3, 8, 8), 10, 31 + out_c);
    const QuantizedModel qm = QuantizedModel::quantize(m, cal);
    const std::size_t n_out = qm.output_shape().size();
    for (const char* isa : isas) {
      ASSERT_EQ(setenv("SX_KERNEL_ISA", isa, 1), 0);
      QuantizedModel ref = qm;  // counters accumulate in the copy
      QuantEngine eng{qm, QuantEngineConfig{.kernels = KernelMode::kWide}};
      ASSERT_NE(eng.plan(), nullptr);
      std::vector<float> r(n_out), p(n_out);
      util::Xoshiro256 rng{out_c};
      for (int it = 0; it < 6; ++it) {
        // Wider than the calibration range, so requantize clips.
        Tensor in{Shape::chw(3, 8, 8)};
        in.init_uniform(rng, -3.0f, 3.0f);
        ASSERT_EQ(ref.run(in.view(), r), Status::kOk);
        ASSERT_EQ(eng.run(in.view(), p), Status::kOk);
        for (std::size_t i = 0; i < n_out; ++i)
          ASSERT_TRUE(bits_equal(r[i], p[i]))
              << "out_c=" << out_c << " isa=" << isa << " logit " << i;
      }
      const auto rc = ref.saturation_counts();
      const auto pc = eng.saturation_counts();
      ASSERT_EQ(rc.size(), pc.size());
      for (std::size_t i = 0; i < rc.size(); ++i)
        EXPECT_EQ(rc[i], pc[i])
            << "out_c=" << out_c << " isa=" << isa << " layer " << i;
      conv_clips += pc[0];
    }
  }
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
  EXPECT_GT(conv_clips, 0u) << "clip-counter parity must be non-vacuous";
}

TEST(WideQuantPlan, RepackResyncsAfterWeightMutation) {
  ModelBuilder b{Shape::vec(24)};
  b.dense(40).relu().dense(3);
  const Model m = b.build(55);
  const Dataset cal = toy_dataset(Shape::vec(24), 10, 7);
  QuantizedModel qm = QuantizedModel::quantize(m, cal);
  QuantizedModel ref = qm;

  QuantKernelPlan plan{qm};
  QuantEngine eng{qm, plan};
  Tensor in{Shape::vec(24)};
  util::Xoshiro256 rng{8};
  in.init_uniform(rng, -2.0f, 2.0f);
  const std::size_t n_out = qm.output_shape().size();
  std::vector<float> r(n_out), p(n_out);
  ASSERT_EQ(ref.run(in.view(), r), Status::kOk);
  ASSERT_EQ(eng.run(in.view(), p), Status::kOk);
  for (std::size_t i = 0; i < n_out; ++i) ASSERT_TRUE(bits_equal(r[i], p[i]));

  // SEU-campaign shape: mutate a quantized weight behind the wide panel
  // snapshot. The panel is stale until repack() resynchronizes it.
  qm.mutable_weights(0)[3] ^= 0x40;
  ref = qm;
  ASSERT_EQ(ref.run(in.view(), r), Status::kOk);
  plan.repack();
  ASSERT_EQ(eng.run(in.view(), p), Status::kOk);
  for (std::size_t i = 0; i < n_out; ++i)
    EXPECT_TRUE(bits_equal(r[i], p[i])) << "post-repack logit " << i;
}

}  // namespace
}  // namespace sx::dl
