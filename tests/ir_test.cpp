// Differential and negative tests for the deploy-time program IR
// (src/ir), its static-analysis passes, and the verify-gate re-derivation
// that polices them.
//
// Positive direction: pass results on hand-built programs and on the
// digit-workload CNN are exactly the ones the dataflow facts admit, the
// liveness-colored arena cuts demand >= 25% below the ping-pong worst
// case, and optimized plans stay bitwise identical to the reference
// engines. Negative direction: every SX_IR_PASS_FAULT corruption mode is
// caught by verify::check_ir on the matching soundness axis, and a SIL3
// deployment over a corrupted pass pipeline is refused pre-flight.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <ostream>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dl/engine.hpp"
#include "dl/lower.hpp"
#include "dl/qplan.hpp"
#include "ir/passes.hpp"
#include "ir/program.hpp"
#include "test_helpers.hpp"
#include "verify/range.hpp"

namespace sx {
namespace {

using tensor::Shape;
using tensor::Tensor;

bool bits_equal(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// The digit-workload CNN geometry (scenario/workload.cpp); weights are
/// seeded but untrained — every layout/pass decision depends on geometry
/// alone, and bitwise parity holds for any weights.
dl::Model digit_cnn() {
  dl::ModelBuilder b{Shape::chw(1, dl::kDigitSide, dl::kDigitSide)};
  b.conv2d(6, 3, /*stride=*/1, /*padding=*/1)
      .relu()
      .maxpool(2)
      .flatten()
      .dense(32)
      .relu()
      .dense(dl::kDigitClasses);
  return b.build(9);
}

dl::QuantizedModel digit_cnn_int8(const dl::Model& m) {
  return dl::QuantizedModel::quantize(dl::fold_batchnorm(m),
                                      dl::make_digits(32, 5));
}

/// input -> dense -> relu -> flatten -> dense; the flatten is a bit
/// identity and the relu a fusable epilogue.
ir::Program small_program() {
  ir::Program p;
  p.layer_count = 4;
  const std::size_t in = p.set_input(16);
  const std::size_t d0 = p.add_op(ir::OpKind::kDense, 0, in, 8);
  const std::size_t r1 =
      p.add_op(ir::OpKind::kRelu, 1, p.ops[d0].output, 8);
  const std::size_t f2 =
      p.add_op(ir::OpKind::kFlatten, 2, p.ops[r1].output, 8);
  const std::size_t d3 = p.add_op(ir::OpKind::kDense, 3, p.ops[f2].output, 4);
  p.output_value = p.ops[d3].output;
  return p;
}

// ---------------------------------------------------------------- program

TEST(IrProgram, BuilderProducesWellFormedGraph) {
  const ir::Program p = small_program();
  EXPECT_TRUE(p.well_formed());
  EXPECT_EQ(p.ops.size(), 4u);
  EXPECT_EQ(p.values.size(), 5u);  // input + one per op
  EXPECT_EQ(p.live_op_count(), 4u);
  // Def/use chains: each intermediate value has exactly one consumer.
  for (std::size_t v = 0; v + 1 < p.values.size(); ++v)
    EXPECT_EQ(p.values[v].uses.size(), 1u) << "value " << v;
  EXPECT_TRUE(p.values[p.output_value].uses.empty());
  EXPECT_FALSE(p.to_text().empty());
}

TEST(IrProgram, LoweringMirrorsFloatModelGeometry) {
  const dl::Model m = digit_cnn();
  const ir::Program p = dl::lower(m);
  EXPECT_TRUE(p.well_formed());
  EXPECT_EQ(p.elem_bytes, 4u);
  EXPECT_FALSE(p.input_in_arena);
  EXPECT_EQ(p.ops.size(), m.layer_count());
  EXPECT_EQ(p.values[p.input_value].elems, m.input_shape().size());
  EXPECT_EQ(p.values[p.output_value].elems, m.output_shape().size());
  std::size_t convs = 0;
  for (const auto& op : p.ops) convs += op.kind == ir::OpKind::kConv2d;
  EXPECT_GT(convs, 0u);
}

TEST(IrProgram, LoweringMirrorsQuantModelGeometry) {
  const dl::Model m = digit_cnn();
  const dl::QuantizedModel qm = digit_cnn_int8(m);
  const ir::Program p = dl::lower(qm);
  EXPECT_TRUE(p.well_formed());
  EXPECT_EQ(p.elem_bytes, 1u);
  EXPECT_TRUE(p.input_in_arena);  // quant engines stage the input in-arena
  EXPECT_EQ(p.ops.size(), qm.layer_count());
}

// ----------------------------------------------------------------- passes

TEST(IrPasses, DceEliminatesBitIdentitiesAndEmitsEvidence) {
  ir::Program p = small_program();
  const ir::PassEvidence ev = ir::run_dce(p);
  EXPECT_EQ(ev.pass, "dce");
  EXPECT_EQ(ev.layers_removed, 1u);  // the flatten
  EXPECT_EQ(p.live_op_count(), 3u);
  EXPECT_FALSE(p.ops[2].live);
  EXPECT_TRUE(p.well_formed());
  // The surviving consumer reads the relu output directly.
  EXPECT_EQ(p.ops[3].input, p.ops[1].output);
  EXPECT_NE(ev.summary().find("pass=dce"), std::string::npos);
  EXPECT_NE(ev.summary().find("layers_removed=1"), std::string::npos);
}

TEST(IrPasses, DceCollapsesIdempotentReluChains) {
  ir::Program p;
  p.layer_count = 3;
  const std::size_t in = p.set_input(8);
  const std::size_t d0 = p.add_op(ir::OpKind::kDense, 0, in, 8);
  const std::size_t r1 =
      p.add_op(ir::OpKind::kRelu, 1, p.ops[d0].output, 8);
  const std::size_t r2 =
      p.add_op(ir::OpKind::kRelu, 2, p.ops[r1].output, 8);
  p.output_value = p.ops[r2].output;
  const ir::PassEvidence ev = ir::run_dce(p);
  EXPECT_EQ(ev.layers_removed, 1u);  // relu-after-relu is idempotent
  EXPECT_EQ(p.live_op_count(), 2u);
  EXPECT_TRUE(p.well_formed());
}

TEST(IrPasses, FusionAbsorbsSingleUseActivations) {
  ir::Program p = small_program();
  (void)ir::run_dce(p);
  const ir::PassEvidence ev = ir::run_fusion(p, {});
  EXPECT_EQ(ev.pass, "fusion");
  EXPECT_EQ(ev.layers_fused, 1u);  // dense0 absorbs relu1
  EXPECT_EQ(p.ops[0].fused_layer, 1u);
  EXPECT_EQ(p.ops[0].fused_kind, ir::OpKind::kRelu);
  EXPECT_FALSE(p.ops[1].live);
  EXPECT_TRUE(p.well_formed());
  // The producer now defines what used to be the relu's output value.
  EXPECT_EQ(p.values[p.ops[0].output].def_op, p.ops[0].id);
}

TEST(IrPasses, PinBlocksFusionAcrossTappedLayer) {
  const dl::Model m = digit_cnn();
  // Layers: conv0 relu1 pool2 flat3 dense4 relu5 dense6. Unpinned, both
  // epilogues fold; pinning the relu5 activation keeps dense4 unfused so
  // a supervisor can tap the pre-activation feature vector.
  ir::Program free_p = dl::lower(m);
  const ir::OptimizeResult free_r = ir::optimize(free_p);
  ir::Program pinned_p = dl::lower(m);
  ir::PassOptions opts;
  opts.pin_layer = 5;
  const ir::OptimizeResult pinned_r = ir::optimize(pinned_p, opts);
  std::size_t free_fused = 0, pinned_fused = 0;
  for (const auto& pe : free_r.passes) free_fused += pe.layers_fused;
  for (const auto& pe : pinned_r.passes) pinned_fused += pe.layers_fused;
  EXPECT_EQ(free_fused, 2u);
  EXPECT_EQ(pinned_fused, 1u);
}

TEST(IrPasses, LivenessColorsNonInterferingLifetimes) {
  const dl::Model m = digit_cnn();
  ir::Program p = dl::lower(m);
  const ir::OptimizeResult r = ir::optimize(p);
  const ir::ArenaLayout& lay = r.layout;
  EXPECT_GT(lay.total_elems, 0u);
  EXPECT_LT(lay.total_elems, lay.naive_elems);
  // Every live op's slots sit inside the claimed total.
  for (const auto& op : p.ops) {
    if (!op.live) continue;
    const ir::ArenaAssignment& a = lay.per_op[op.id];
    ASSERT_NE(a.out_offset, ir::kNone);
    EXPECT_LE(a.out_offset + p.values[op.output].elems, lay.total_elems);
  }
  // Three passes ran in the fixed order, each with evidence.
  ASSERT_EQ(r.passes.size(), 3u);
  EXPECT_EQ(r.passes[0].pass, "dce");
  EXPECT_EQ(r.passes[1].pass, "fusion");
  EXPECT_EQ(r.passes[2].pass, "liveness");
  EXPECT_GT(r.passes[2].bytes_saved, 0u);
}

// --------------------------------------------------- arena-reuse headline

TEST(IrArena, DigitCnnFloatDemandDropsAtLeastQuarter) {
  const dl::Model m = digit_cnn();
  const dl::KernelPlan plan{m};
  const ir::ArenaLayout& lay = plan.layout();
  ASSERT_GT(lay.naive_elems, 0u);
  const double reduction =
      1.0 - static_cast<double>(lay.total_elems) /
                static_cast<double>(lay.naive_elems);
  EXPECT_GE(reduction, 0.25)
      << "arena " << lay.total_elems << "/" << lay.naive_elems << " floats";
  EXPECT_EQ(plan.arena_elems(), lay.total_elems);
}

TEST(IrArena, DigitCnnInt8DemandDropsAtLeastQuarter) {
  const dl::Model m = digit_cnn();
  const dl::QuantizedModel qm = digit_cnn_int8(m);
  const dl::QuantKernelPlan plan{qm};
  const ir::ArenaLayout& lay = plan.layout();
  ASSERT_GT(lay.naive_elems, 0u);
  const double reduction =
      1.0 - static_cast<double>(lay.total_elems) /
                static_cast<double>(lay.naive_elems);
  EXPECT_GE(reduction, 0.25)
      << "arena " << lay.total_elems << "/" << lay.naive_elems << " bytes";
}

// The perception CNN (conv8-relu-conv8-relu-maxpool-dense32-relu-dense4
// over 1x16x16): its two 2048-byte conv outputs are alive together, so the
// liveness arena can only match the ping-pong pair if the 256-byte
// in-arena input slot fills the gap beside the first conv's output.
TEST(IrArena, PerceptionCnnInt8FitsPingPongBaseline) {
  const auto& ds = sx::testing::road_data();
  dl::ModelBuilder b{ds.input_shape};
  b.conv2d(8, 3, 1, 1).relu().conv2d(8, 3, 1, 1).relu().maxpool(2).flatten()
      .dense(32).relu().dense(dl::kRoadSceneClasses);
  const dl::QuantizedModel qm =
      dl::QuantizedModel::quantize(b.build(/*seed=*/21), ds);
  const dl::QuantKernelPlan plan{qm};
  const ir::ArenaLayout& lay = plan.layout();
  EXPECT_EQ(lay.naive_elems, 4096u);
  EXPECT_LE(lay.total_elems, 4096u)
      << "arena " << lay.total_elems << "/" << lay.naive_elems << " bytes";
  EXPECT_TRUE(verify::check_ir(qm, plan).passed());
}

// --------------------------------------------------- bitwise differential

TEST(IrDifferential, OptimizedFloatPlanMatchesReferenceBitwise) {
  const dl::Model m = digit_cnn();
  dl::StaticEngine planned{m};
  dl::StaticEngine reference{
      m, dl::StaticEngineConfig{.kernels = dl::KernelMode::kReference}};
  ASSERT_NE(planned.plan(), nullptr);
  ASSERT_EQ(reference.plan(), nullptr);
  const dl::Dataset ds = dl::make_digits(24, 11);
  std::vector<float> a(m.output_shape().size()), b(a.size());
  for (const auto& s : ds.samples) {
    ASSERT_EQ(planned.run(s.input.view(), a), Status::kOk);
    ASSERT_EQ(reference.run(s.input.view(), b), Status::kOk);
    for (std::size_t k = 0; k < a.size(); ++k)
      ASSERT_TRUE(bits_equal(a[k], b[k])) << "logit " << k;
  }
}

TEST(IrDifferential, OptimizedGoldenCnnMatchesOfflineForwardBitwise) {
  const dl::Model& m = sx::testing::trained_cnn();
  dl::StaticEngine planned{m};
  ASSERT_NE(planned.plan(), nullptr);
  std::vector<float> out(m.output_shape().size());
  for (std::size_t i = 0; i < 16; ++i) {
    const Tensor& in = sx::testing::road_data().samples[i].input;
    ASSERT_EQ(planned.run(in.view(), out), Status::kOk);
    const Tensor ref = m.forward(in);
    for (std::size_t k = 0; k < out.size(); ++k)
      ASSERT_TRUE(bits_equal(out[k], ref.at(k)))
          << "sample " << i << " logit " << k;
  }
}

TEST(IrDifferential, OptimizedInt8PlanMatchesReferenceBitwise) {
  const dl::Model m = digit_cnn();
  const dl::QuantizedModel qm = digit_cnn_int8(m);
  dl::QuantEngine planned{
      qm, dl::QuantEngineConfig{.kernels = dl::KernelMode::kWide}};
  dl::QuantEngine reference{
      qm, dl::QuantEngineConfig{.kernels = dl::KernelMode::kReference}};
  const dl::Dataset ds = dl::make_digits(24, 13);
  std::vector<float> a(qm.output_shape().size()), b(a.size());
  for (const auto& s : ds.samples) {
    ASSERT_EQ(planned.run(s.input.view(), a), Status::kOk);
    ASSERT_EQ(reference.run(s.input.view(), b), Status::kOk);
    for (std::size_t k = 0; k < a.size(); ++k)
      ASSERT_TRUE(bits_equal(a[k], b[k])) << "logit " << k;
  }
  // Requantization-clip counters must agree too, fused relus included.
  const auto pc = planned.saturation_counts();
  const auto rc = reference.saturation_counts();
  ASSERT_EQ(pc.size(), rc.size());
  for (std::size_t i = 0; i < pc.size(); ++i) EXPECT_EQ(pc[i], rc[i]);
}

// ------------------------------------------------- verify-gate re-derivation

TEST(IrVerify, HealthyFloatPlanIsSoundOnEveryAxis) {
  const dl::Model m = digit_cnn();
  const dl::KernelPlan plan{m};
  const verify::IrCheck c = verify::check_ir(m, plan);
  EXPECT_TRUE(c.checked);
  EXPECT_TRUE(c.structure_sound);
  EXPECT_TRUE(c.elimination_sound);
  EXPECT_TRUE(c.fusion_sound);
  EXPECT_TRUE(c.layout_sound);
  EXPECT_TRUE(c.passed());
  EXPECT_EQ(c.rederived_elems, c.planned_elems);
  EXPECT_EQ(c.layers_removed, 1u);  // flatten
  EXPECT_EQ(c.layers_fused, 2u);    // conv+relu, dense+relu
}

TEST(IrVerify, HealthyQuantPlanIsSoundOnEveryAxis) {
  const dl::Model m = digit_cnn();
  const dl::QuantizedModel qm = digit_cnn_int8(m);
  const dl::QuantKernelPlan plan{qm};
  const verify::IrCheck c = verify::check_ir(qm, plan);
  EXPECT_TRUE(c.checked);
  EXPECT_TRUE(c.passed());
  EXPECT_EQ(c.rederived_elems, c.planned_elems);
}

TEST(IrVerify, PinnedPlanRederivesWithSamePin) {
  const dl::Model m = digit_cnn();
  const dl::KernelPlan plan{m, /*pin_tap_layer=*/5};
  const verify::IrCheck c = verify::check_ir(m, plan);
  EXPECT_TRUE(c.passed());
  EXPECT_EQ(c.layers_fused, 1u);  // dense4+relu5 stays materialized
}

TEST(IrVerify, VerifyModelAttachesIrEvidence) {
  const dl::Model m = digit_cnn();
  const dl::StaticEngine engine{m, {.kernels = dl::KernelMode::kWide}};
  const verify::VerificationEvidence ev = verify::verify_model(
      m, trace::OddSpec{}, {verify::check_engine(m, engine)});
  ASSERT_EQ(ev.engines.size(), 1u);
  EXPECT_TRUE(ev.engines[0].ir.checked);
  EXPECT_TRUE(ev.verdict.ir_sound);
  EXPECT_TRUE(ev.verdict.passed());
  EXPECT_NE(ev.verdict_line().find("ir=1"), std::string::npos);
  EXPECT_NE(ev.to_text().find("ir passes:"), std::string::npos);
}

struct FaultCase {
  const char* fault;
  bool elimination;  ///< axis expected to stay sound
  bool fusion;
  bool layout;
};

// gtest otherwise prints a FaultCase as its raw bytes — a pointer and
// struct padding — which would make the ctest names differ per build.
void PrintTo(const FaultCase& fc, std::ostream* os) { *os << fc.fault; }

class IrFaultRefusal : public ::testing::TestWithParam<FaultCase> {
 protected:
  void TearDown() override { unsetenv("SX_IR_PASS_FAULT"); }
};

/// One fault table for both element types: plans `m` under the fault and
/// expects the checker to sink exactly the axes the table names.
template <typename Plan, typename M>
void expect_caught_on_the_right_axis(const M& m, const FaultCase& fc) {
  ASSERT_EQ(setenv("SX_IR_PASS_FAULT", fc.fault, 1), 0);
  const Plan plan{m};
  unsetenv("SX_IR_PASS_FAULT");
  // The corrupted plan advertises its injected fault in the evidence...
  bool saw_fault_evidence = false;
  for (const auto& pe : plan.pass_evidence())
    if (pe.pass.rfind("fault:", 0) == 0) saw_fault_evidence = true;
  EXPECT_TRUE(saw_fault_evidence);
  // ...but the checker does not need it: the re-derivation disagrees.
  const verify::IrCheck c = verify::check_ir(m, plan);
  EXPECT_TRUE(c.checked);
  EXPECT_FALSE(c.passed()) << fc.fault;
  EXPECT_EQ(c.elimination_sound, fc.elimination) << fc.fault;
  EXPECT_EQ(c.fusion_sound, fc.fusion) << fc.fault;
  EXPECT_EQ(c.layout_sound, fc.layout) << fc.fault;
}

TEST_P(IrFaultRefusal, CorruptedFloatPassIsCaughtOnTheRightAxis) {
  expect_caught_on_the_right_axis<dl::KernelPlan>(digit_cnn(), GetParam());
}

// The int8 plan runs the same table: with no scratch slot left, overlap
// aliases an output onto its live input there too.
TEST_P(IrFaultRefusal, CorruptedQuantPassFailsTheCheck) {
  expect_caught_on_the_right_axis<dl::QuantKernelPlan>(
      digit_cnn_int8(digit_cnn()), GetParam());
}

TEST_P(IrFaultRefusal, VerifyModelFailsOverCorruptedPasses) {
  const FaultCase fc = GetParam();
  const dl::Model m = digit_cnn();
  ASSERT_EQ(setenv("SX_IR_PASS_FAULT", fc.fault, 1), 0);
  const dl::StaticEngine engine{m, {.kernels = dl::KernelMode::kWide}};
  unsetenv("SX_IR_PASS_FAULT");
  const verify::VerificationEvidence ev = verify::verify_model(
      m, trace::OddSpec{}, {verify::check_engine(m, engine)});
  ASSERT_EQ(ev.engines.size(), 1u);
  EXPECT_TRUE(ev.engines[0].ir.checked);
  EXPECT_FALSE(ev.verdict.ir_sound) << fc.fault;
  EXPECT_FALSE(ev.verdict.passed()) << fc.fault;
  EXPECT_NE(ev.verdict_line().find("ir=0"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, IrFaultRefusal,
    // Program faults sink the elimination axis and, with it, layout: the
    // checker refuses to validate arena offsets against a live-op set it
    // already disagrees with. Fusion is judged per layer, so drop-op (which
    // forges no fused marker) keeps that axis sound while bogus-fuse loses
    // it. Layout-only faults leave both program axes untouched.
    ::testing::Values(FaultCase{"drop-op", false, true, false},
                      FaultCase{"bogus-fuse", false, false, false},
                      FaultCase{"shrink-arena", true, true, false},
                      FaultCase{"overlap", true, true, false}),
    [](const ::testing::TestParamInfo<FaultCase>& pinfo) {
      std::string n = pinfo.param.fault;
      for (char& ch : n)
        if (ch == '-') ch = '_';
      return n;
    });

// ------------------------------------------------------ SIL3 pre-flight gate

TEST(IrSilGate, Sil3PipelineRefusesCorruptedPassResults) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil3;
  cfg.timing_budget = 1000;
  ASSERT_EQ(setenv("SX_IR_PASS_FAULT", "overlap", 1), 0);
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  unsetenv("SX_IR_PASS_FAULT");
  ASSERT_NE(p.static_verification(), nullptr);
  EXPECT_FALSE(p.static_verification()->verdict.passed());
  EXPECT_FALSE(p.static_verification()->verdict.ir_sound);
  // Refuse-only mode: the corrupted plan never serves a decision.
  const auto d = p.infer(sx::testing::road_data().samples[0].input, 0);
  EXPECT_EQ(d.status, Status::kVerificationFailed);
  EXPECT_TRUE(d.degraded);
  // The refusal verdict is on the tamper-evident audit chain.
  bool saw_refusal = false;
  for (const auto& e : p.audit().entries())
    if (e.actor == "static-verify" && e.action == "refuse-model" &&
        e.payload.find("ir=0") != std::string::npos)
      saw_refusal = true;
  EXPECT_TRUE(saw_refusal);
  EXPECT_EQ(p.audit().verify(), Status::kOk);
}

TEST(IrSilGate, Sil3PipelineDeploysWithSoundPassesAndAuditsThem) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil3;
  cfg.timing_budget = 1000;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  ASSERT_NE(p.static_verification(), nullptr);
  EXPECT_TRUE(p.static_verification()->verdict.passed());
  ASSERT_FALSE(p.static_verification()->engines.empty());
  EXPECT_TRUE(p.static_verification()->engines.front().ir.checked);
  const auto d = p.infer(sx::testing::road_data().samples[0].input, 0);
  EXPECT_EQ(d.status, Status::kOk);
}

TEST(IrSilGate, Int8StaticVerificationRederivesQuantPlan) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  cfg.backend = core::BackendKind::kInt8;
  core::PipelineSpec spec = core::recommended_spec(trace::Criticality::kSil2);
  spec.has_static_verification = true;
  cfg.spec = spec;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  ASSERT_NE(p.static_verification(), nullptr);
  ASSERT_EQ(p.static_verification()->engines.size(), 1u);
  const verify::EngineCheck& e = p.static_verification()->engines.front();
  EXPECT_EQ(e.elem, dl::ElemType::kInt8);
  EXPECT_TRUE(e.ir.checked);
  EXPECT_TRUE(e.passed());
  EXPECT_TRUE(p.static_verification()->verdict.passed());
  EXPECT_NE(p.static_verification()->to_text().find("int8 ir passes:"),
            std::string::npos);
}

TEST(IrSilGate, Int8GateRefusesCorruptedQuantPasses) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  cfg.backend = core::BackendKind::kInt8;
  core::PipelineSpec spec = core::recommended_spec(trace::Criticality::kSil2);
  spec.has_static_verification = true;
  cfg.spec = spec;
  ASSERT_EQ(setenv("SX_IR_PASS_FAULT", "shrink-arena", 1), 0);
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  unsetenv("SX_IR_PASS_FAULT");
  ASSERT_NE(p.static_verification(), nullptr);
  EXPECT_FALSE(p.static_verification()->verdict.passed());
  const auto d = p.infer(sx::testing::road_data().samples[0].input, 0);
  EXPECT_EQ(d.status, Status::kVerificationFailed);
}

// -------------------------------------------------------- report evidence

TEST(IrReport, PipelineAuditsPlanAndPerPassEvidence) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  std::size_t ir_pass_entries = 0;
  bool saw_plan = false;
  for (const auto& e : p.audit().entries()) {
    if (e.actor == "kernel-plan" && e.action == "deploy") saw_plan = true;
    if (e.actor == "ir-pass") ++ir_pass_entries;
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_EQ(ir_pass_entries, 3u);  // dce, fusion, liveness
}

TEST(IrReport, MakeIrEvidenceEmitsMachineReadableMarkers) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  const core::EvidenceItem item = core::make_ir_evidence(p);
  EXPECT_NE(item.body.find("# BEGIN SX_IR_PASSES"), std::string::npos);
  EXPECT_NE(item.body.find("# END SX_IR_PASSES"), std::string::npos);
  EXPECT_NE(item.body.find("plan=float pass=dce"), std::string::npos);
  EXPECT_NE(item.body.find("plan=float pass=liveness"), std::string::npos);
  EXPECT_NE(item.body.find("arena_total="), std::string::npos);
}

TEST(IrReport, MakeIrEvidenceCoversInt8Plan) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  cfg.backend = core::BackendKind::kInt8;
  core::CertifiablePipeline p{sx::testing::trained_mlp(),
                              sx::testing::road_data(), cfg};
  const core::EvidenceItem item = core::make_ir_evidence(p);
  EXPECT_NE(item.body.find("plan=int8 pass=dce"), std::string::npos);
}

}  // namespace
}  // namespace sx
