// Differential tests for the deploy-time kernel plans (direct Conv2d,
// fused epilogues, plan-driven engines and batches).
//
// The load-bearing property is *bitwise* identity with the reference
// loops in tensor/ops.cpp and dl/layers.cpp — not approximate closeness:
// the golden vectors, the audit-trail hashes and the cross-worker
// determinism evidence all assume every engine produces the same bits.
// Every comparison here is on the float bit patterns.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "engine_pool.hpp"
#include "dl/engine.hpp"
#include "dl/layers.hpp"
#include "dl/model.hpp"
#include "dl/plan.hpp"
#include "platform/cpu_probe.hpp"
#include "tensor/kernels.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "verify/range.hpp"

namespace sx::tensor::kernels {
namespace {

using dl::KernelMode;
using dl::KernelPlan;
using dl::Model;
using dl::StaticEngine;
using dl::StaticEngineConfig;
using sx::Status;

/// Bitwise float equality (distinguishes -0.0f from 0.0f and compares NaN
/// payloads — exactly the identity the determinism evidence claims).
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

// ------------------------------------------------------------- Conv2d

TEST(Conv2dDirect, BitwiseEqualsReferenceAcrossGeometries) {
  util::Xoshiro256 rng{11};
  for (std::size_t in_c : {1u, 2u, 3u}) {
    for (std::size_t k : {1u, 2u, 3u}) {
      for (std::size_t stride : {1u, 2u}) {
        for (std::size_t pad : {0u, 1u, 2u}) {
         // 4 and 6 channels: one tail block of that many chains.
         for (std::size_t out_c : {4u, 6u}) {
          const std::size_t in_h = 7, in_w = 5;  // odd, non-square
          if (in_h + 2 * pad < k) continue;

          dl::Conv2d layer{in_c, out_c, k, stride, pad};
          layer.init(rng);
          Tensor in{Shape::chw(in_c, in_h, in_w)};
          in.init_uniform(rng, -1.0f, 1.0f);
          const Shape out_shape =
              layer.output_shape(Shape::chw(in_c, in_h, in_w));
          std::vector<float> ref(out_shape.size());
          ASSERT_EQ(layer.forward(in.view(),
                                  TensorView{ref, out_shape}),
                    Status::kOk);

          Conv2dGeom g{.in_c = in_c, .in_h = in_h, .in_w = in_w,
                       .out_c = out_c, .k = k, .stride = stride, .pad = pad};
          ASSERT_EQ(g.opix(), out_shape.dim(1) * out_shape.dim(2));

          std::vector<float> out(out_shape.size(), -7.0f);
          EXPECT_TRUE(conv2d_direct_scalar(
              layer.weights().data(), layer.bias().data(), g,
              in.data().data(), out.data(), Epilogue::kNone, true));
          EXPECT_TRUE(BitEqual(out, ref))
              << "in_c=" << in_c << " k=" << k << " stride=" << stride
              << " pad=" << pad << " out_c=" << out_c;
         }
        }
      }
    }
  }
}

// --------------------------------------------------- engine-level parity

std::vector<float> run_engine(StaticEngine& e, ConstTensorView in,
                              Status expect = Status::kOk) {
  std::vector<float> out(e.output_shape().size(),
                         std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(e.run(in, out), expect);
  return out;
}

TEST(KernelPlanEngine, AllModesBitwiseIdenticalOnTrainedModels) {
  const auto& ds = sx::testing::road_data();
  for (const Model* m : {&sx::testing::trained_mlp(),
                         &sx::testing::trained_cnn()}) {
    StaticEngine ref{*m, {.kernels = KernelMode::kReference}};
    StaticEngine wide{*m, {.kernels = KernelMode::kWide}};
    ASSERT_EQ(ref.plan(), nullptr);
    ASSERT_NE(wide.plan(), nullptr);
    for (std::size_t i = 0; i < 32; ++i) {
      const auto in = ds.samples[i].input.view();
      const auto a = run_engine(ref, in);
      EXPECT_TRUE(BitEqual(run_engine(wide, in), a)) << "sample " << i;
    }
  }
}

TEST(KernelPlanEngine, FusedSigmoidTanhPipelineBitwiseIdentical) {
  // Covers the epilogues the trained fixtures don't exercise, plus an
  // unfusable trailing softmax (reference step inside a planned engine).
  dl::ModelBuilder b{Shape::chw(2, 9, 7)};
  b.conv2d(3, 3, /*stride=*/1, /*padding=*/1)
      .tanh_()
      .flatten()
      .dense(21)
      .sigmoid()
      .dense(6)
      .softmax();
  const Model m = b.build(/*seed=*/99);

  const KernelPlan plan{m};
  EXPECT_EQ(plan.planned_conv(), 1u);
  EXPECT_EQ(plan.planned_dense(), 2u);
  EXPECT_EQ(plan.fused_activations(), 2u);  // tanh + sigmoid
  EXPECT_EQ(plan.removed_layers(), 1u);     // flatten dce'd outright
  EXPECT_EQ(plan.reference_steps(), 1u);    // softmax

  StaticEngine ref{m, {.kernels = KernelMode::kReference}};
  StaticEngine planned{m, {.kernels = KernelMode::kWide}};
  util::Xoshiro256 rng{5};
  Tensor in{m.input_shape()};
  for (int rep = 0; rep < 16; ++rep) {
    in.init_uniform(rng, -2.0f, 2.0f);
    EXPECT_TRUE(BitEqual(run_engine(planned, in.view()),
                         run_engine(ref, in.view())));
  }
}

TEST(KernelPlanEngine, NumericFaultParityWithFusedActivations) {
  // A NaN weight upstream of a fused ReLU: relu would squash the NaN to 0,
  // so the planned engine must fault on the pre-activation value exactly
  // like the reference engine faults on the dense output scan.
  Model m = sx::testing::trained_mlp();  // deep copy, safe to corrupt
  auto& dense = static_cast<dl::Dense&>(m.layer(1));  // flatten, dense, relu…
  ASSERT_EQ(dense.kind(), dl::LayerKind::kDense);
  dense.weights()[3] = std::numeric_limits<float>::quiet_NaN();

  const auto in = sx::testing::road_data().samples[0].input.view();
  StaticEngine ref{m, {.kernels = KernelMode::kReference}};
  StaticEngine wide{m, {.kernels = KernelMode::kWide}};
  run_engine(ref, in, Status::kNumericFault);
  run_engine(wide, in, Status::kNumericFault);
  EXPECT_EQ(ref.numeric_fault_count(), 1u);
  EXPECT_EQ(wide.numeric_fault_count(), 1u);

  // With checks off, all engines agree bit for bit on the corrupted output
  // (the campaign path compares raw propagation).
  StaticEngine ref_nc{m, {.check_numeric_faults = false,
                          .kernels = KernelMode::kReference}};
  StaticEngine wide_nc{m, {.check_numeric_faults = false,
                           .kernels = KernelMode::kWide}};
  EXPECT_TRUE(BitEqual(run_engine(wide_nc, in), run_engine(ref_nc, in)));
}

TEST(KernelPlanEngine, ArenaDemandMatchesIndependentDerivation) {
  // verify/range re-derives the arena demand from shapes alone; the engine
  // capacity (and its by-construction high-water mark) must match in every
  // kernel mode, keeping the static verifier's engine checks sound.
  for (const Model* m : {&sx::testing::trained_mlp(),
                         &sx::testing::trained_cnn()}) {
    for (KernelMode mode : dl::all_kernel_modes()) {
      const StaticEngineConfig cfg{.kernels = mode};
      StaticEngine e{*m, cfg};
      EXPECT_EQ(verify::check_engine(*m, e).required, e.arena_capacity())
          << dl::kernel_mode_name(mode);
      EXPECT_EQ(e.arena_high_water_mark(), e.arena_capacity())
          << "buffers are carved once at construction";
    }
  }
  // The direct conv needs no scratch: the CNN's liveness-colored demand
  // stays below the reference ping-pong demand.
  const Model& cnn = sx::testing::trained_cnn();
  const StaticEngine wide{cnn, {.kernels = KernelMode::kWide}};
  const StaticEngine reference{cnn, {.kernels = KernelMode::kReference}};
  EXPECT_LT(verify::check_engine(cnn, wide).required,
            verify::check_engine(cnn, reference).required);
}

TEST(KernelPlanEngine, AutoResolutionMatrix) {
  // The pure core over every probe x SX_KERNEL_ISA x SX_KERNEL_REFERENCE
  // cell. kAuto picks the reference loops when forced and the wide family
  // otherwise; the audited selection only picks the arm, and names a SIMD
  // family iff the override (if any) names one the probe confirms —
  // "scalar" and unknown tokens never do.
  const platform::CpuProbe probes[] = {
      {.avx2 = false, .avx512f = false},
      {.avx2 = true, .avx512f = false},
      {.avx2 = true, .avx512f = true}};
  const char* envs[] = {nullptr, "", "scalar", "avx2", "avx512", "sse9"};
  std::size_t cells = 0, wide = 0, simd = 0;
  for (const platform::CpuProbe& probe : probes) {
    for (const char* env : envs) {
      const std::string e = env != nullptr ? env : "";
      WideIsa arm = WideIsa::kScalar;
      if (e.empty())
        arm = probe.avx512f ? WideIsa::kAvx512
              : probe.avx2  ? WideIsa::kAvx2
                            : WideIsa::kScalar;
      else if (e == "avx2" && probe.avx2)
        arm = WideIsa::kAvx2;
      else if (e == "avx512" && probe.avx512f)
        arm = WideIsa::kAvx512;
      EXPECT_EQ(platform::select_wide_isa(probe, env).isa, arm)
          << "avx2=" << probe.avx2 << " avx512f=" << probe.avx512f
          << " env=" << (env != nullptr ? env : "(unset)");
      for (const bool forced : {false, true}) {
        const KernelMode want =
            forced ? KernelMode::kReference : KernelMode::kWide;
        EXPECT_EQ(dl::resolve_kernel_mode(KernelMode::kAuto, forced), want);
        // Explicit modes are never overridden, in any cell.
        for (const KernelMode m : dl::all_kernel_modes())
          EXPECT_EQ(dl::resolve_kernel_mode(m, forced), m);
        ++cells;
        wide += want == KernelMode::kWide;
        simd += want == KernelMode::kWide && arm != WideIsa::kScalar;
      }
    }
  }
  EXPECT_EQ(cells, 36u);
  EXPECT_EQ(wide, 18u);
  EXPECT_EQ(simd, 7u);
}

TEST(KernelPlanEngine, ReferenceEscapeHatchEnvVar) {
  ASSERT_EQ(unsetenv("SX_KERNEL_REFERENCE"), 0);
  EXPECT_EQ(dl::resolve_kernel_mode(KernelMode::kAuto), KernelMode::kWide);
  ASSERT_EQ(setenv("SX_KERNEL_REFERENCE", "1", 1), 0);
  EXPECT_EQ(dl::resolve_kernel_mode(KernelMode::kAuto),
            KernelMode::kReference);
  // Explicit modes are never overridden; "0" and empty do not force.
  EXPECT_EQ(dl::resolve_kernel_mode(KernelMode::kWide), KernelMode::kWide);
  ASSERT_EQ(setenv("SX_KERNEL_REFERENCE", "0", 1), 0);
  EXPECT_EQ(dl::resolve_kernel_mode(KernelMode::kAuto), KernelMode::kWide);
  ASSERT_EQ(setenv("SX_KERNEL_REFERENCE", "", 1), 0);
  EXPECT_EQ(dl::resolve_kernel_mode(KernelMode::kAuto), KernelMode::kWide);

  ASSERT_EQ(setenv("SX_KERNEL_REFERENCE", "1", 1), 0);
  const Model& m = sx::testing::trained_mlp();
  StaticEngine forced{m};  // kAuto resolves at construction
  EXPECT_EQ(forced.kernel_mode(), KernelMode::kReference);
  EXPECT_EQ(forced.plan(), nullptr);
  ASSERT_EQ(unsetenv("SX_KERNEL_REFERENCE"), 0);
  StaticEngine normal{m};
  EXPECT_EQ(normal.kernel_mode(), KernelMode::kWide);
  // A scalar override keeps kAuto on the wide family, on its scalar arm.
  ASSERT_EQ(setenv("SX_KERNEL_ISA", "scalar", 1), 0);
  EXPECT_EQ(dl::resolve_kernel_mode(KernelMode::kAuto), KernelMode::kWide);
  StaticEngine scalar{m};
  EXPECT_EQ(scalar.kernel_mode(), KernelMode::kWide);
  ASSERT_NE(scalar.plan(), nullptr);
  EXPECT_EQ(scalar.plan()->isa_selection().isa, WideIsa::kScalar);
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

TEST(KernelPlanBatch, WorkerCountsBitwiseIdenticalToReference) {
  const Model& m = sx::testing::trained_cnn();
  const auto& ds = sx::testing::road_data();
  const std::size_t n = 16;
  const std::size_t out_size = m.output_shape().size();

  StaticEngine ref{m, {.kernels = KernelMode::kReference}};
  std::vector<float> expected(n * out_size);
  std::vector<float> flat(n * m.input_shape().size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = ds.samples[i].input.data();
    std::copy(src.begin(), src.end(),
              flat.begin() + i * m.input_shape().size());
    ASSERT_EQ(ref.run(ds.samples[i].input.view(),
                      std::span<float>(expected).subspan(i * out_size,
                                                         out_size)),
              Status::kOk);
  }

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    sx::testing::EnginePool pool{m, workers, {.kernels = KernelMode::kWide}};
    ASSERT_NE(pool.engine(0).plan(), nullptr);
    std::vector<float> out(n * out_size, -1.0f);
    std::vector<Status> st(n, Status::kInvalidArgument);
    pool.run(flat, out, st);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(st[i], Status::kOk);
    EXPECT_TRUE(BitEqual(out, expected)) << workers << " workers";
  }
}

TEST(KernelPlanEngine, CanTapReflectsStepBoundaries) {
  // trained_cnn: conv(0) relu(1) maxpool(2) flatten(3) dense(4) relu(5)
  // dense(6). Planned mode fuses 0+1 and 4+5, so the fused activations'
  // inputs (layers 1 and 5) are never materialized.
  const Model& m = sx::testing::trained_cnn();
  StaticEngine ref{m, {.kernels = KernelMode::kReference}};
  StaticEngine wide{m, {.kernels = KernelMode::kWide}};
  for (std::size_t l = 0; l < m.layer_count(); ++l)
    EXPECT_TRUE(ref.can_tap(l)) << l;
  EXPECT_FALSE(ref.can_tap(m.layer_count()));
  for (std::size_t l : {0u, 2u, 3u, 4u, 6u}) EXPECT_TRUE(wide.can_tap(l)) << l;
  for (std::size_t l : {1u, 5u}) EXPECT_FALSE(wide.can_tap(l)) << l;
  EXPECT_FALSE(wide.can_tap(m.layer_count()));
}

TEST(KernelPlanEngine, TappedRunMatchesForwardTraceBitwise) {
  // run_tapped must reproduce forward_trace's activations exactly — this
  // is what lets the pipeline's supervisor read its feature layer from
  // the planned engine instead of a second allocation-heavy forward.
  const auto& ds = sx::testing::road_data();
  for (const Model* m : {&sx::testing::trained_mlp(),
                         &sx::testing::trained_cnn()}) {
    for (const KernelMode mode : dl::all_kernel_modes()) {
      StaticEngine e{*m, {.kernels = mode}};
      for (std::size_t s = 0; s < 4; ++s) {
        const Tensor& in = ds.samples[s].input;
        const auto acts = m->forward_trace(in);
        const auto expect = run_engine(e, in.view());
        for (std::size_t l = 0; l < m->layer_count(); ++l) {
          if (!e.can_tap(l)) continue;
          std::vector<float> tap(acts[l].size(), -7.0f);
          std::vector<float> out(m->output_shape().size());
          ASSERT_EQ(e.run_tapped(in.view(), out, l, tap), Status::kOk);
          EXPECT_TRUE(BitEqual(out, expect)) << "layer " << l;
          const auto ref = acts[l].data();
          EXPECT_TRUE(
              BitEqual(tap, std::vector<float>(ref.begin(), ref.end())))
              << dl::kernel_mode_name(mode) << " layer " << l;
        }
        // Wrong tap width and untappable layers are shape errors.
        std::vector<float> out(m->output_shape().size());
        std::vector<float> bad(acts[0].size() + 1);
        EXPECT_EQ(e.run_tapped(in.view(), out, 0, bad),
                  Status::kShapeMismatch);
        EXPECT_EQ(e.run_tapped(in.view(), out, m->layer_count(),
                               std::span<float>{}),
                  Status::kShapeMismatch);
      }
    }
  }
}

TEST(KernelPlanEvidence, SummaryAndReportLines) {
  const KernelPlan plan{sx::testing::trained_cnn()};
  const std::string s = plan.summary();
  EXPECT_NE(s.find("mode=wide"), std::string::npos) << s;
  EXPECT_NE(s.find("dense=2"), std::string::npos) << s;
  EXPECT_NE(s.find("conv=1"), std::string::npos) << s;
  EXPECT_NE(s.find("pool=1"), std::string::npos) << s;
  EXPECT_GT(plan.panel_floats(), 0u);

  const core::EvidenceItem item = core::make_kernel_plan_evidence(plan);
  EXPECT_EQ(item.title, "Deploy-time kernel plan");
  EXPECT_NE(item.body.find(s), std::string::npos) << item.body;
  EXPECT_NE(item.body.find("SX_KERNEL_REFERENCE"), std::string::npos);
}

}  // namespace
}  // namespace sx::tensor::kernels
