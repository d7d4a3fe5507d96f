// Differential sweeps for the wide int8 (kWide) dot-product microkernels
// and the planned int8 engine running on top of them.
//
// Contract under test: exact int32 sums. The scalar arm keeps the
// reference's serial chain; the vpmaddwd (avx2, avx512bw), vpdpbusd and
// vpdpwssd (avx512vnni) arms regroup the products, which is exact under
// the plan's no-overflow bound. Every arm must therefore be bitwise
// identical to QuantizedModel::apply_layer in outputs AND saturation
// counts — across Dense reduction lengths of every residue mod 4, Dense
// row tails off the 32-row block, conv channel counts 1..17 (every chain
// tail), odd and even input channels, input widths 1..9/12/16/20 at
// strides 1 and 2 and paddings 0..2, -128 weights, per-tensor and
// per-channel scales, ReLU on and off — and the kWide QuantEngine must
// match QuantizedModel::run bit for bit under every SX_KERNEL_ISA
// spelling the probe honors, VNNI refused as well as allowed, including
// after a conv weight fault that nothing repacks. SIMD arms run only
// where the CPU probe confirms them.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "platform/cpu_probe.hpp"
#include "safety/channel.hpp"
#include "safety/fault.hpp"
#include "tensor/qkernels.hpp"
#include "util/rng.hpp"
#include "verify/range.hpp"

namespace sx::dl {
namespace {

namespace qk = tensor::qkernels;
namespace k = tensor::kernels;
using qk::QArm;
using tensor::Shape;
using tensor::Tensor;

/// Full int8 range, -128 (the value an SEU can flip a weight to) included.
std::vector<std::int8_t> random_i8(std::size_t n, util::Xoshiro256& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int8_t>(
        std::floor(rng.uniform(-128.0, 128.0)));
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

/// The SX_KERNEL_ISA spellings this host honors, each with the int8 arm
/// it selects: VNNI refused (avx512-novnni) as well as allowed.
std::vector<std::pair<const char*, QArm>> honored_isas() {
  const platform::CpuProbe p = platform::probe_cpu();
  std::vector<std::pair<const char*, QArm>> v;
  for (const char* env : {"scalar", "avx2", "avx512-novnni", "avx512"}) {
    const platform::WideIsaSelection s = platform::select_wide_isa(p, env);
    if (!s.refused) v.emplace_back(env, s.int8);
  }
  return v;
}

/// Every distinct int8 arm this host can run.
std::vector<QArm> probed_arms() {
  std::vector<QArm> arms;
  for (const auto& [env, arm] : honored_isas())
    if (std::find(arms.begin(), arms.end(), arm) == arms.end())
      arms.push_back(arm);
  return arms;
}

/// A byte buffer whose last byte sits right before a PROT_NONE page, so
/// a kernel that reads past the end faults in every build, not only
/// under ASan.
class GuardedBytes {
 public:
  explicit GuardedBytes(std::span<const std::int8_t> bytes) {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    pages_ = (bytes.size() + page_ - 1) / page_ + 1;
    void* m = mmap(nullptr, pages_ * page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(m, MAP_FAILED);
    base_ = static_cast<std::int8_t*>(m);
    EXPECT_EQ(mprotect(base_ + (pages_ - 1) * page_, page_, PROT_NONE), 0);
    data_ = base_ + (pages_ - 1) * page_ - bytes.size();
    std::memcpy(data_, bytes.data(), bytes.size());
  }
  ~GuardedBytes() { munmap(base_, pages_ * page_); }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;
  const std::int8_t* data() const { return data_; }

 private:
  std::size_t page_ = 0, pages_ = 0;
  std::int8_t* base_ = nullptr;
  std::int8_t* data_ = nullptr;
};

TEST(WideQMatvec, BitwiseEqualsReferenceWithSaturationParity) {
  util::Xoshiro256 rng{404};
  // Row tails on both sides of the 32-row block; cols of every residue
  // mod 4 (the partial last quad).
  const std::size_t row_sizes[] = {1, 3, 7, 8, 9, 16, 31, 32, 33, 47, 63,
                                   64, 65, 96, 101};
  const std::size_t col_sizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 32, 53, 66, 67};
  std::uint64_t clips = 0;
  for (std::size_t rows : row_sizes) {
    for (std::size_t cols : col_sizes) {
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
        // x ends exactly where readable memory ends.
        const GuardedBytes gx{x};
        for (const bool relu : {false, true}) {
          const qk::Requant rq = requant_of(qm, relu);
          const std::vector<std::int8_t>& ref = relu ? post : pre;
          for (const QArm arm : probed_arms()) {
            std::vector<std::int8_t> out(rows, -7);
            std::uint64_t sat = 0;
            qk::wide_qdense_kernel(arm)(panel.data(), rows, cols, gx.data(),
                                        rq, out.data(), &sat);
            EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), rows))
                << rows << "x" << cols << " " << qk::qarm_name(arm);
            EXPECT_EQ(sat, ref_sat)
                << rows << "x" << cols << " " << qk::qarm_name(arm);
          }
        }
      }
    }
  }
  EXPECT_GT(clips, 0u) << "saturation-count parity must be non-vacuous";
}

/// One conv configuration against apply_layer (+ the ReLU layer), on
/// every probed arm, with the input ending exactly at a guard page.
void expect_conv_matches_reference(const k::Conv2dGeom& g,
                                   WeightGranularity gran,
                                   util::Xoshiro256& rng,
                                   std::uint64_t* clips) {
  const Shape in_shape = Shape::chw(g.in_c, g.in_h, g.in_w);
  ModelBuilder b{in_shape};
  b.conv2d(g.out_c, g.k, g.stride, g.pad).relu();
  const Model m = b.build(100 * g.out_c + 10 * g.k + g.pad);
  const QuantizedModel qm = random_weight_qmodel(
      m, toy_dataset(in_shape, 4, g.out_c + g.in_c), gran, rng);
  const auto img = random_i8(in_shape.size(), rng);
  const std::size_t n = g.out_c * g.opix();
  std::vector<std::int8_t> pre(n, -7), post(n, -7);
  std::uint64_t ref_sat = 0;
  ASSERT_EQ(qm.apply_layer(0, img, pre, &ref_sat), Status::kOk);
  ASSERT_EQ(qm.apply_layer(1, pre, post, nullptr), Status::kOk);
  *clips += ref_sat;

  const GuardedBytes gimg{img};
  for (const bool relu : {false, true}) {
    const qk::Requant rq = requant_of(qm, relu);
    const std::vector<std::int8_t>& ref = relu ? post : pre;
    for (const QArm arm : probed_arms()) {
      std::vector<std::int8_t> out(n, -7);
      std::uint64_t sat = 0;
      qk::wide_qconv_kernel(arm)(qm.layer_view(0).weights.data(), g,
                                 gimg.data(), rq, out.data(), &sat);
      EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), n))
          << qk::qarm_name(arm) << " in_c=" << g.in_c << " k=" << g.k
          << " stride=" << g.stride << " pad=" << g.pad
          << " out_c=" << g.out_c << " " << g.in_h << "x" << g.in_w
          << " relu=" << relu;
      EXPECT_EQ(sat, ref_sat) << qk::qarm_name(arm) << " out_c=" << g.out_c;
    }
  }
}

TEST(WideQConv, BitwiseEqualsReferenceAcrossGeometriesAndIsas) {
  util::Xoshiro256 rng{405};
  std::uint64_t clips = 0;
  // out_c 1..17: every chain tail of the 8-channel blocks, alone and after
  // one or two full blocks. in_c 1, 3 and 8: the pair arms' odd tail
  // channel and whole pairs. Strides 1 and 2, paddings 0..2, kernels 1..3.
  for (std::size_t in_c : {1u, 3u, 8u}) {
    for (std::size_t kk : {1u, 2u, 3u}) {
      for (std::size_t stride : {1u, 2u}) {
        for (std::size_t pad : {0u, 1u, 2u}) {
          for (std::size_t out_c = 1; out_c <= 17; ++out_c) {
            const k::Conv2dGeom g{.in_c = in_c, .in_h = 6, .in_w = 5,
                                  .out_c = out_c, .k = kk, .stride = stride,
                                  .pad = pad};
            expect_conv_matches_reference(
                g,
                out_c % 2 == 0 ? WeightGranularity::kPerChannel
                               : WeightGranularity::kPerTensor,
                rng, &clips);
          }
        }
      }
    }
  }
  EXPECT_GT(clips, 0u) << "saturation-count parity must be non-vacuous";
}

TEST(WideQConv, StridedAndLargePatchColumnsEndAtTheirBuffer) {
  // Every output width a lane tile can leave: maps 1..9, 12, 16 and 20
  // wide (one partial tile, one full 8- or 16-lane tile, a full tile plus
  // a tail), strided and padded, against an input whose last byte sits
  // before a guard page — a lane that read a clipped column past the end
  // would fault.
  util::Xoshiro256 rng{406};
  std::uint64_t clips = 0;
  for (std::size_t in_w :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 12u, 16u, 20u}) {
    for (std::size_t stride : {1u, 2u}) {
      for (std::size_t pad : {0u, 1u, 2u}) {
        if (in_w + 2 * pad < 3) continue;
        for (std::size_t in_c : {1u, 3u, 8u}) {
          for (std::size_t out_c : {8u, 9u}) {
            const k::Conv2dGeom g{.in_c = in_c, .in_h = 5, .in_w = in_w,
                                  .out_c = out_c, .k = 3, .stride = stride,
                                  .pad = pad};
            expect_conv_matches_reference(g, WeightGranularity::kPerChannel,
                                          rng, &clips);
          }
        }
      }
    }
  }
  EXPECT_GT(clips, 0u);
}

TEST(WideQKernels, MinusOneTwentyEightOperandsStayExact) {
  // All weights -128 and activations at both extremes: the largest
  // products (16384) in every lane, with the u8 shift meeting w = -128.
  for (const std::size_t cols : {5u, 64u, 1023u}) {
    const std::size_t rows = 40;
    std::vector<std::int8_t> w(rows * cols, -128);
    for (std::size_t r = 0; r < rows; r += 3) w[r * cols] = 127;
    std::vector<std::int8_t> x(cols);
    for (std::size_t c = 0; c < cols; ++c)
      x[c] = c % 2 == 0 ? std::int8_t{-128} : std::int8_t{127};
    std::vector<float> scales(rows, 1.0f / 4096.0f), bias(rows, 0.25f);
    const qk::Requant rq{.w_scales = scales.data(), .per_channel = true,
                         .bias = bias.data(), .in_scale = 1.0f,
                         .out_scale = 1.0f, .relu = false};
    std::vector<std::int8_t> ref(rows);
    std::uint64_t ref_sat = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      std::int32_t acc = 0;
      for (std::size_t c = 0; c < cols; ++c)
        acc += static_cast<std::int32_t>(w[r * cols + c]) * x[c];
      ref[r] = qk::requantize(acc, r, rq, &ref_sat);
    }
    std::vector<std::int8_t> panel(qk::qwide_dense_panel_bytes(rows, cols));
    qk::pack_qwide_dense_panel(w.data(), rows, cols, panel.data());
    for (const QArm arm : probed_arms()) {
      std::vector<std::int8_t> out(rows);
      std::uint64_t sat = 0;
      qk::wide_qdense_kernel(arm)(panel.data(), rows, cols, x.data(), rq,
                                  out.data(), &sat);
      EXPECT_EQ(out, ref) << qk::qarm_name(arm) << " cols=" << cols;
      EXPECT_EQ(sat, ref_sat) << qk::qarm_name(arm) << " cols=" << cols;
    }
  }
}

TEST(WideQKernels, ZeroOutScaleClipsNaNToPlus127AndCounts) {
  // out_scale = 0: v / 0 is +/-inf, or NaN where v == 0 — which
  // quantize_sat sends to +127 and counts. Zero weight rows and zero bias
  // make v exactly 0 for some lanes.
  const std::size_t rows = 37, cols = 11;
  util::Xoshiro256 rng{77};
  std::vector<std::int8_t> w = random_i8(rows * cols, rng);
  for (std::size_t r = 0; r < rows; r += 4)
    std::fill_n(w.begin() + static_cast<std::ptrdiff_t>(r * cols), cols, 0);
  const std::vector<std::int8_t> x = random_i8(cols, rng);
  std::vector<float> bias(rows, 0.0f);
  for (std::size_t r = 1; r < rows; r += 4) bias[r] = -0.5f;
  const float scale = 0.01f;
  for (const bool relu : {false, true}) {
    const qk::Requant rq{.w_scales = &scale, .per_channel = false,
                         .bias = bias.data(), .in_scale = 0.5f,
                         .out_scale = 0.0f, .relu = relu};
    std::vector<std::int8_t> ref(rows);
    std::uint64_t ref_sat = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      std::int32_t acc = 0;
      for (std::size_t c = 0; c < cols; ++c)
        acc += static_cast<std::int32_t>(w[r * cols + c]) * x[c];
      ref[r] = qk::requantize(acc, r, rq, &ref_sat);
    }
    ASSERT_EQ(ref_sat, rows) << "every lane clips at out_scale 0";
    ASSERT_EQ(ref[0], 127) << "0 / 0 is NaN, which clips to +127";
    std::vector<std::int8_t> panel(qk::qwide_dense_panel_bytes(rows, cols));
    qk::pack_qwide_dense_panel(w.data(), rows, cols, panel.data());
    for (const QArm arm : probed_arms()) {
      std::vector<std::int8_t> out(rows);
      std::uint64_t sat = 0;
      qk::wide_qdense_kernel(arm)(panel.data(), rows, cols, x.data(), rq,
                                  out.data(), &sat);
      EXPECT_EQ(out, ref) << qk::qarm_name(arm) << " relu=" << relu;
      EXPECT_EQ(sat, ref_sat) << qk::qarm_name(arm) << " relu=" << relu;
    }
  }
}

TEST(WideQDispatch, SelectorsReturnIsaSpecificEntryPoints) {
  EXPECT_EQ(qk::wide_qdense_kernel(QArm::kScalar), &qk::qmatvec_wide_scalar);
  EXPECT_EQ(qk::wide_qdense_kernel(QArm::kAvx2), &qk::qmatvec_wide_avx2);
  EXPECT_EQ(qk::wide_qdense_kernel(QArm::kAvx512Bw),
            &qk::qmatvec_wide_avx512bw);
  EXPECT_EQ(qk::wide_qdense_kernel(QArm::kAvx512Vnni),
            &qk::qmatvec_wide_avx512vnni);
  EXPECT_EQ(qk::wide_qconv_kernel(QArm::kScalar), &qk::qconv2d_direct_scalar);
  EXPECT_EQ(qk::wide_qconv_kernel(QArm::kAvx2), &qk::qconv2d_direct_avx2);
  EXPECT_EQ(qk::wide_qconv_kernel(QArm::kAvx512Bw),
            &qk::qconv2d_direct_avx512bw);
  EXPECT_EQ(qk::wide_qconv_kernel(QArm::kAvx512Vnni),
            &qk::qconv2d_direct_avx512vnni);
  EXPECT_STREQ(qk::qarm_name(QArm::kAvx512Vnni), "avx512vnni");
  EXPECT_STREQ(qk::qarm_name(QArm::kAvx512Bw), "avx512bw");
}

// ------------------------------------------------- engine-level identity

bool bits_equal(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

/// kWide QuantEngine vs reference QuantizedModel::run, for every
/// SX_KERNEL_ISA spelling the probe honors on this host.
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

  const std::size_t n_out = qm.output_shape().size();
  for (const auto& [isa, arm] : honored_isas()) {
    ASSERT_EQ(setenv("SX_KERNEL_ISA", isa, 1), 0);
    QuantizedModel ref = qm;  // counters accumulate in the copy
    QuantEngine eng{qm, QuantEngineConfig{.kernels = KernelMode::kWide}};
    ASSERT_NE(eng.plan(), nullptr);
    EXPECT_FALSE(eng.plan()->isa_selection().refused) << isa;
    EXPECT_EQ(eng.plan()->isa_selection().int8, arm) << isa;
    for (const QuantKernelStep& s : eng.plan()->steps()) {
      if (s.kind == QuantKernelStep::Kind::kDense) {
        EXPECT_EQ(s.dense_fn, qk::wide_qdense_kernel(arm)) << isa;
      } else if (s.kind == QuantKernelStep::Kind::kConv2d) {
        EXPECT_EQ(s.conv_fn, qk::wide_qconv_kernel(arm)) << isa;
      }
    }

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

/// Engine-level sweep over conv widths that hit every channel schedule:
/// a tail block alone (1..7), full 8-channel blocks with and without a
/// tail. The kWide engine must match the reference QuantizedModel::run
/// bit for bit — logits and per-layer clip counters — under every
/// spelling the probe honors.
TEST(WideQConvHalfGroup, EngineSweepBitwiseIdenticalToReference) {
  std::uint64_t conv_clips = 0;
  for (std::size_t out_c :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 15u, 16u, 17u, 23u, 24u, 31u,
        32u, 40u}) {
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
    for (const auto& [isa, arm] : honored_isas()) {
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
  const QuantizedModel base = QuantizedModel::quantize(m, cal);
  Tensor in{Shape::vec(24)};
  util::Xoshiro256 rng{8};
  in.init_uniform(rng, -2.0f, 2.0f);
  const std::size_t n_out = base.output_shape().size();

  for (const auto& [isa, arm] : honored_isas()) {
    ASSERT_EQ(setenv("SX_KERNEL_ISA", isa, 1), 0);
    QuantizedModel qm = base;
    QuantizedModel ref = qm;
    QuantEngine eng{qm, QuantEngineConfig{.kernels = KernelMode::kWide}};
    std::vector<float> r(n_out), p(n_out);
    ASSERT_EQ(ref.run(in.view(), r), Status::kOk);
    ASSERT_EQ(eng.run(in.view(), p), Status::kOk);
    for (std::size_t i = 0; i < n_out; ++i)
      ASSERT_TRUE(bits_equal(r[i], p[i])) << isa;

    // SEU-campaign shape: flip a high bit of a quantized weight behind
    // the panel snapshot. The flip changes the row's sum(w), so the
    // vpdpbusd arm's 128 * sum(w) correction must be recomputed too; the
    // panel is stale until repack() resynchronizes both.
    const auto sum_row0 = [&] {
      std::int32_t s = 0;
      for (std::size_t c = 0; c < 24; ++c) s += qm.mutable_weights(0)[c];
      return s;
    };
    const std::int32_t before = sum_row0();
    qm.mutable_weights(0)[3] ^= static_cast<std::int8_t>(0x80);
    ASSERT_NE(sum_row0(), before);
    ref = qm;
    ASSERT_EQ(ref.run(in.view(), r), Status::kOk);
    eng.repack();
    ASSERT_EQ(eng.run(in.view(), p), Status::kOk);
    for (std::size_t i = 0; i < n_out; ++i)
      EXPECT_TRUE(bits_equal(r[i], p[i]))
          << isa << " post-repack logit " << i;
  }
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

/// The logits of `run` over `inputs` and the per-layer clips they add to
/// `eng`'s counters.
struct RunRecord {
  std::vector<float> logits;
  std::vector<std::uint64_t> clips;
};

template <typename RunFn>
RunRecord run_all(RunFn&& run, const Engine& eng,
            const std::vector<Tensor>& inputs, std::size_t n_out) {
  const auto c0 = eng.saturation_counts();
  const std::vector<std::uint64_t> before(c0.begin(), c0.end());
  RunRecord r;
  std::vector<float> o(n_out);
  for (const Tensor& in : inputs) {
    EXPECT_EQ(run(in.view(), std::span<float>(o)), Status::kOk);
    r.logits.insert(r.logits.end(), o.begin(), o.end());
  }
  const auto c1 = eng.saturation_counts();
  for (std::size_t i = 0; i < c1.size(); ++i)
    r.clips.push_back(c1[i] - before[i]);
  return r;
}

bool same_run(const RunRecord& a, const RunRecord& b) {
  if (a.logits.size() != b.logits.size() || a.clips != b.clips) return false;
  for (std::size_t i = 0; i < a.logits.size(); ++i)
    if (!bits_equal(a.logits[i], b.logits[i])) return false;
  return true;
}

TEST(WideQuantPlan, ConvWeightFaultReachesPlanWithoutRepack) {
  // The direct int8 conv reads the model's live weights, so an SEU in a
  // conv weight reaches the next planned run by itself — bit for bit what
  // the reference engine computes on the faulted model, clip counters
  // included — and undoing it restores the fault-free run.
  ModelBuilder b{Shape::chw(3, 10, 10)};
  b.conv2d(8, 3, 1, 1).relu().conv2d(9, 3, 2, 1).relu().flatten().dense(4);
  const Model m = b.build(31);
  const QuantizedModel base =
      QuantizedModel::quantize(m, toy_dataset(Shape::chw(3, 10, 10), 8, 5));
  const std::size_t n_out = base.output_shape().size();
  std::vector<Tensor> inputs;
  util::Xoshiro256 rng{12};
  for (int i = 0; i < 4; ++i) {
    inputs.emplace_back(Shape::chw(3, 10, 10));
    inputs.back().init_uniform(rng, -3.0f, 3.0f);
  }
  const auto engine_run = [&](QuantEngine& e) {
    return run_all([&](auto in, auto out) { return e.run(in, out); }, e,
                   inputs, n_out);
  };
  const auto reference_run = [&](const QuantizedModel& qm) {
    QuantEngine ref{qm, QuantEngineConfig{.kernels = KernelMode::kReference}};
    return engine_run(ref);
  };
  const RunRecord clean = reference_run(base);

  for (const auto& [isa, arm] : honored_isas()) {
    ASSERT_EQ(setenv("SX_KERNEL_ISA", isa, 1), 0);
    // An in-place flip with no repack at all: a high bit of a conv2 weight.
    QuantizedModel qm = base;
    QuantEngine eng{qm, QuantEngineConfig{.kernels = KernelMode::kWide}};
    ASSERT_TRUE(same_run(engine_run(eng), clean)) << isa;
    qm.mutable_weights(2)[40] ^= static_cast<std::int8_t>(0x40);
    const RunRecord faulted = reference_run(qm);
    ASSERT_FALSE(same_run(faulted, clean)) << "the flip must show";
    EXPECT_TRUE(same_run(engine_run(eng), faulted)) << isa;

    // Through the safety replica: the first seeded bit flip that lands in
    // a conv layer and changes the run.
    safety::Replica rep{base, KernelMode::kWide};
    const auto replica_run = [&] {
      return run_all([&](auto in, auto out) { return rep.run(in, out); },
                     rep.engine(), inputs, n_out);
    };
    bool reached = false;
    for (std::uint64_t seed = 1; seed <= 64 && !reached; ++seed) {
      safety::FaultInjector inj{seed};
      const safety::FaultRecord rec =
          rep.inject_fault(inj, safety::FaultType::kBitFlip);
      QuantizedModel twin = base;
      (void)inj.inject_at(twin, safety::FaultType::kBitFlip, rec.layer,
                          rec.param_index, rec.bit);
      const RunRecord want = reference_run(twin);
      EXPECT_TRUE(same_run(replica_run(), want))
          << isa << " layer " << rec.layer << " param " << rec.param_index;
      reached = base.layer_view(rec.layer).kind == LayerKind::kConv2d &&
                !same_run(want, clean);
      rep.undo_fault(rec);
      EXPECT_TRUE(same_run(replica_run(), clean)) << isa << " undo";
    }
    EXPECT_TRUE(reached) << isa << ": no seeded fault changed a conv output";
  }
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

TEST(WideQuantPlan, StepPastOverflowBoundRunsScalarAndVerifies) {
  // cols = 70000: 70000 * 255 * 128 >= 2^31, so the regrouped SIMD sums
  // are not provably exact and the step must run the scalar arm's serial
  // chain — on every arm the host would otherwise pick.
  const std::size_t cols = 70000;
  ASSERT_FALSE(qk::qwide_bound_ok(cols));
  ModelBuilder b{Shape::vec(cols)};
  b.dense(3).relu().dense(2);
  const Model m = b.build(91);
  const QuantizedModel qm =
      QuantizedModel::quantize(m, toy_dataset(Shape::vec(cols), 3, 5));
  Tensor in{Shape::vec(cols)};
  util::Xoshiro256 rng{6};
  in.init_uniform(rng, -2.0f, 2.0f);

  for (const auto& [isa, arm] : honored_isas()) {
    ASSERT_EQ(setenv("SX_KERNEL_ISA", isa, 1), 0);
    QuantKernelPlan plan{qm};
    ASSERT_EQ(plan.steps().size(), 2u);
    const QuantKernelStep& big = plan.steps()[0];
    EXPECT_EQ(big.mac_bound, std::uint64_t{cols} * 255 * 128);
    EXPECT_EQ(big.dense_fn, &qk::qmatvec_wide_scalar) << isa;
    // cols = 3: within the bound, on the host's arm.
    EXPECT_EQ(plan.steps()[1].dense_fn, qk::wide_qdense_kernel(arm)) << isa;
    EXPECT_EQ(plan.bound_scalar_steps(), 1u);
    EXPECT_NE(plan.summary().find("bound-scalar=1"), std::string::npos);

    const verify::IrCheck ok = verify::check_ir(qm, plan);
    EXPECT_TRUE(ok.bound_sound) << isa;
    EXPECT_TRUE(ok.passed()) << isa;

    // The engine plans the same way under the same SX_KERNEL_ISA.
    QuantizedModel ref = qm;
    QuantEngine eng{qm, QuantEngineConfig{.kernels = KernelMode::kWide}};
    std::vector<float> r(2), p(2);
    ASSERT_EQ(ref.run(in.view(), r), Status::kOk);
    ASSERT_EQ(eng.run(in.view(), p), Status::kOk);
    for (std::size_t i = 0; i < 2; ++i) EXPECT_TRUE(bits_equal(r[i], p[i]));

    // The checker re-derives the bound from the layer, so a plan that
    // mis-records it, or runs a SIMD arm past it, is refused.
    auto& forged = const_cast<QuantKernelStep&>(plan.steps()[0]);
    forged.mac_bound = 0;
    EXPECT_FALSE(verify::check_ir(qm, plan).bound_sound) << isa;
    EXPECT_FALSE(verify::check_ir(qm, plan).passed()) << isa;
    forged.mac_bound = std::uint64_t{cols} * 255 * 128;
    forged.dense_fn = &qk::qmatvec_wide_avx2;
    EXPECT_FALSE(verify::check_ir(qm, plan).bound_sound) << isa;
    forged.dense_fn = &qk::qmatvec_wide_scalar;
    EXPECT_TRUE(verify::check_ir(qm, plan).passed()) << isa;
  }
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

}  // namespace
}  // namespace sx::dl
