// Static verification subsystem: golden interval values per layer kind,
// differential soundness against the concrete engine over a population of
// random models, arena-plan re-verification, quantization saturation
// margins, and the CertifiablePipeline pre-flight gate (an ill-posed model
// must be refused before any inference runs, with the verdict in the audit
// chain).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dl/engine.hpp"
#include "dl/layers.hpp"
#include "dl/model.hpp"
#include "dl/quant.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "verify/range.hpp"

namespace sx::verify {
namespace {

using tensor::Shape;
using tensor::Tensor;

const dl::Model& mlp() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }

trace::OddSpec box(float lo, float hi) {
  trace::OddSpec odd;
  odd.value_min = lo;
  odd.value_max = hi;
  return odd;
}

/// First layer with trainable parameters (skips Flatten/ReLU/...).
dl::Layer& first_param_layer(dl::Model& m) {
  for (std::size_t i = 0; i < m.layer_count(); ++i)
    if (!m.layer(i).params().empty()) return m.layer(i);
  throw std::logic_error("model has no parametric layer");
}

// ------------------------------------------------------- golden intervals

TEST(Range, DenseNegativeWeightsGolden) {
  dl::ModelBuilder b{Shape::vec(2)};
  b.dense(2);
  dl::Model m = b.build(0);
  auto& dense = dynamic_cast<dl::Dense&>(m.layer(0));
  // Row-major W (out x in), then bias.
  const float w[] = {1.0f, -2.0f, -1.0f, 3.0f};
  const float bias[] = {0.5f, -1.0f};
  std::copy(std::begin(w), std::end(w), dense.weights().begin());
  std::copy(std::begin(bias), std::end(bias), dense.bias().begin());

  const auto ranges =
      analyze_ranges(m, odd_input_interval(m.input_shape(), box(0.0f, 1.0f)));
  ASSERT_EQ(ranges.size(), 2u);
  // Hand-derived: lo picks hi for negative weights, lo for positive.
  EXPECT_NEAR(ranges[1].lo.at(0), -1.5f, 1e-6f);  // 1*0 + (-2)*1 + 0.5
  EXPECT_NEAR(ranges[1].hi.at(0), 1.5f, 1e-6f);   // 1*1 + (-2)*0 + 0.5
  EXPECT_NEAR(ranges[1].lo.at(1), -2.0f, 1e-6f);  // -1*1 + 3*0 - 1
  EXPECT_NEAR(ranges[1].hi.at(1), 2.0f, 1e-6f);   // -1*0 + 3*1 - 1

  // An affine map attains its interval bounds at box corners: the golden
  // numbers above must equal the min/max of the four concrete corners.
  float lo0 = std::numeric_limits<float>::max(), hi0 = -lo0;
  float lo1 = lo0, hi1 = -lo0;
  for (const float x0 : {0.0f, 1.0f})
    for (const float x1 : {0.0f, 1.0f}) {
      const Tensor out = m.forward(Tensor{Shape::vec(2), {x0, x1}});
      lo0 = std::min(lo0, out.at(0));
      hi0 = std::max(hi0, out.at(0));
      lo1 = std::min(lo1, out.at(1));
      hi1 = std::max(hi1, out.at(1));
    }
  EXPECT_NEAR(ranges[1].lo.at(0), lo0, 1e-6f);
  EXPECT_NEAR(ranges[1].hi.at(0), hi0, 1e-6f);
  EXPECT_NEAR(ranges[1].lo.at(1), lo1, 1e-6f);
  EXPECT_NEAR(ranges[1].hi.at(1), hi1, 1e-6f);
}

TEST(Range, MonotoneActivationGoldens) {
  const auto single = [](auto&& add_layer) {
    dl::ModelBuilder b{Shape::vec(3)};
    add_layer(b);
    return b.build(0);
  };
  const IntervalTensor in =
      odd_input_interval(Shape::vec(3), box(-2.0f, 2.0f));

  dl::Model relu = single([](dl::ModelBuilder& b) { b.relu(); });
  auto r = analyze_ranges(relu, in);
  EXPECT_NEAR(r[1].lo.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(r[1].hi.at(0), 2.0f, 1e-6f);

  dl::Model sigmoid = single([](dl::ModelBuilder& b) { b.sigmoid(); });
  r = analyze_ranges(sigmoid, in);
  EXPECT_NEAR(r[1].lo.at(0), 1.0f / (1.0f + std::exp(2.0f)), 1e-5f);
  EXPECT_NEAR(r[1].hi.at(0), 1.0f / (1.0f + std::exp(-2.0f)), 1e-5f);

  dl::Model tanh = single([](dl::ModelBuilder& b) { b.tanh_(); });
  r = analyze_ranges(tanh, in);
  EXPECT_NEAR(r[1].lo.at(0), std::tanh(-2.0f), 1e-5f);
  EXPECT_NEAR(r[1].hi.at(0), std::tanh(2.0f), 1e-5f);
}

TEST(Range, PoolingAndFlattenPreserveEnvelope) {
  dl::ModelBuilder b{Shape::chw(1, 4, 4)};
  b.maxpool(2).avgpool(2).flatten();
  dl::Model m = b.build(0);
  const auto ranges = analyze_ranges(
      m, odd_input_interval(m.input_shape(), box(-1.5f, 0.5f)));
  for (std::size_t step = 1; step < ranges.size(); ++step)
    for (std::size_t i = 0; i < ranges[step].lo.size(); ++i) {
      EXPECT_NEAR(ranges[step].lo.at(i), -1.5f, 1e-6f) << "step " << step;
      EXPECT_NEAR(ranges[step].hi.at(i), 0.5f, 1e-6f) << "step " << step;
    }
}

TEST(Range, SoftmaxBoundsLieInUnitIntervalAndAreSound) {
  dl::ModelBuilder b{Shape::vec(3)};
  b.softmax();
  dl::Model m = b.build(0);
  const auto ranges = analyze_ranges(
      m, odd_input_interval(m.input_shape(), box(-1.0f, 2.0f)));
  const IntervalTensor& out = ranges.back();
  ASSERT_TRUE(out.well_formed());
  for (std::size_t i = 0; i < out.lo.size(); ++i) {
    EXPECT_GT(out.lo.at(i), 0.0f);
    EXPECT_LT(out.hi.at(i), 1.0f);
    EXPECT_LE(out.lo.at(i), out.hi.at(i));
  }
  // Soundness against concrete probability vectors from the box.
  util::Xoshiro256 rng{7};
  for (int t = 0; t < 100; ++t) {
    Tensor in{Shape::vec(3)};
    for (std::size_t i = 0; i < 3; ++i)
      in.at(i) = static_cast<float>(rng.uniform(-1.0, 2.0));
    const Tensor p = m.forward(in);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GE(p.at(i), out.lo.at(i) - 1e-5f) << "trial " << t;
      EXPECT_LE(p.at(i), out.hi.at(i) + 1e-5f) << "trial " << t;
    }
  }
}

TEST(Range, BatchNormZeroVarianceStaysFiniteThroughEpsilon) {
  dl::ModelBuilder b{Shape::vec(4)};
  b.batchnorm();
  dl::Model m = b.build(0);
  auto& bn = dynamic_cast<dl::BatchNorm&>(m.layer(0));
  // A vector input normalizes as one channel.
  const std::vector<float> zeros(bn.channels(), 0.0f);
  bn.set_statistics(zeros, zeros);  // degenerate: variance exactly 0

  const auto ranges =
      analyze_ranges(m, odd_input_interval(m.input_shape(), box(0.0f, 1.0f)));
  const float g = 1.0f / std::sqrt(bn.epsilon());  // gamma=1, beta=0
  EXPECT_NEAR(ranges[1].lo.at(0), 0.0f, 1e-3f);
  EXPECT_NEAR(ranges[1].hi.at(0), g, g * 1e-4f);

  const dl::StaticEngine engine{m};
  const VerificationEvidence ev =
      verify_model(m, box(0.0f, 1.0f), {check_engine(m, engine)});
  EXPECT_TRUE(ev.verdict.nan_free) << "epsilon must keep the divisor > 0";
  EXPECT_TRUE(ev.verdict.output_bounded);
  EXPECT_TRUE(ev.verdict.passed()) << ev.verdict_line();
}

// ------------------------------------------------- differential soundness

// Same architecture population as the engine differential harness.
dl::Model random_model(util::Xoshiro256& rng) {
  const bool image_input = rng.below(2) == 0;
  Shape input = image_input
                    ? Shape::chw(1, 4 + rng.below(5), 4 + rng.below(5))
                    : Shape::vec(4 + rng.below(21));
  dl::ModelBuilder b{input};
  if (image_input) {
    if (rng.below(2) == 0) {
      b.conv2d(1 + rng.below(3), 3, /*stride=*/1, /*padding=*/1);
      b.relu();
    }
    b.flatten();
  }
  const std::size_t blocks = 1 + rng.below(3);
  for (std::size_t l = 0; l < blocks; ++l) {
    b.dense(3 + rng.below(18));
    switch (rng.below(4)) {
      case 0: b.relu(); break;
      case 1: b.sigmoid(); break;
      case 2: b.tanh_(); break;
      default: break;  // linear
    }
  }
  b.dense(2 + rng.below(5));
  if (rng.below(2) == 0) b.softmax();
  return b.build(/*seed=*/rng());
}

TEST(RangeDifferential, ConcreteOutputsLieInsideStaticIntervals) {
  constexpr std::size_t kModels = 24;
  constexpr std::size_t kInputsPerModel = 6;
  const trace::OddSpec odd = box(-2.0f, 2.0f);
  util::Xoshiro256 rng{0xD1FFu};
  for (std::size_t mi = 0; mi < kModels; ++mi) {
    SCOPED_TRACE("model " + std::to_string(mi));
    const dl::Model model = random_model(rng);
    dl::StaticEngine engine{model};

    const VerificationEvidence ev =
        verify_model(model, odd, {check_engine(model, engine)});
    EXPECT_TRUE(ev.verdict.passed()) << ev.verdict_line();

    const auto ranges = analyze_ranges(
        model, odd_input_interval(model.input_shape(), odd));
    const IntervalTensor& out_iv = ranges.back();

    std::vector<float> out(model.output_shape().size());
    for (std::size_t t = 0; t < kInputsPerModel; ++t) {
      Tensor in{model.input_shape()};
      for (std::size_t i = 0; i < in.size(); ++i)
        in.at(i) = static_cast<float>(rng.uniform(-2.0, 2.0));
      ASSERT_EQ(engine.run(in.view(), out), Status::kOk);
      for (std::size_t k = 0; k < out.size(); ++k) {
        const float tol =
            1e-4f + 1e-5f * std::max(std::fabs(out_iv.lo.at(k)),
                                     std::fabs(out_iv.hi.at(k)));
        EXPECT_GE(out[k], out_iv.lo.at(k) - tol)
            << "input " << t << " element " << k;
        EXPECT_LE(out[k], out_iv.hi.at(k) + tol)
            << "input " << t << " element " << k;
      }
    }
  }
}

// --------------------------------------------------- arena re-verification

TEST(Arena, ShapeDerivedDemandMatchesEnginePlan) {
  for (const dl::Model* m : {&mlp(), &sx::testing::trained_cnn()}) {
    const dl::StaticEngine engine{*m};
    const EngineCheck c = check_engine(*m, engine);
    EXPECT_EQ(c.required, engine.arena_capacity());
    EXPECT_TRUE(c.passed());
  }
  // The check re-derives with the engine's own pin, on either element
  // type, and under the reference loops too.
  const dl::StaticEngine pinned{
      mlp(), {.pin_tap_layer = dl::feature_layer(mlp())}};
  EXPECT_TRUE(check_engine(mlp(), pinned).passed());
  const dl::StaticEngine reference{mlp(),
                                   {.kernels = dl::KernelMode::kReference}};
  const EngineCheck rc = check_engine(mlp(), reference);
  EXPECT_FALSE(rc.ir.checked);
  EXPECT_TRUE(rc.passed());
  const dl::QuantizedModel qm = dl::QuantizedModel::quantize(mlp(), data());
  const dl::QuantEngine qe{qm};
  const EngineCheck qc = check_engine(qm, qe);
  EXPECT_EQ(qc.elem, dl::ElemType::kInt8);
  EXPECT_EQ(qc.required, qe.arena_capacity());
  EXPECT_TRUE(qc.passed());
  // An engine checked against the wrong element type is a usage error.
  EXPECT_THROW(check_engine(qm, pinned), std::invalid_argument);
}

TEST(Arena, UndersizedPlanFailsVerification) {
  const dl::StaticEngine engine{mlp()};
  const trace::OddSpec odd = box(0.0f, 1.0f);
  EngineCheck c = check_engine(mlp(), engine);
  EXPECT_TRUE(verify_model(mlp(), odd, {c}).verdict.arena_consistent);
  const std::size_t demand = c.required;
  c.planned = demand - 1;
  const VerificationEvidence bad = verify_model(mlp(), odd, {c});
  EXPECT_FALSE(bad.verdict.arena_consistent);
  EXPECT_FALSE(bad.verdict.passed())
      << "an ill-posed arena plan must fail the whole verdict";
  ASSERT_EQ(bad.engines.size(), 1u);
  EXPECT_EQ(bad.engines[0].required, demand);
  EXPECT_EQ(bad.engines[0].planned, demand - 1);
}

TEST(Arena, NoCheckedEngineEstablishesNoArenaVerdict) {
  // A sound model with no engine checked proves nothing about an arena or
  // a plan, so the verdict must not pass.
  const VerificationEvidence ev = verify_model(mlp(), box(0.0f, 1.0f), {});
  EXPECT_TRUE(ev.verdict.nan_free);
  EXPECT_TRUE(ev.verdict.output_bounded);
  EXPECT_FALSE(ev.verdict.arena_consistent);
  EXPECT_FALSE(ev.verdict.ir_sound);
  EXPECT_FALSE(ev.verdict.passed()) << ev.verdict_line();
  EXPECT_NE(ev.verdict_line().find("arena=0 ir=0 engines=0"),
            std::string::npos)
      << ev.verdict_line();
}

// ------------------------------------------------------ NaN/Inf reachability

TEST(NanReachability, PoisonedWeightFailsNanFree) {
  dl::Model m = mlp();
  first_param_layer(m).params()[0] = std::numeric_limits<float>::quiet_NaN();
  const dl::StaticEngine engine{m};
  const VerificationEvidence ev =
      verify_model(m, box(0.0f, 1.0f), {check_engine(m, engine)});
  EXPECT_FALSE(ev.verdict.nan_free);
  EXPECT_TRUE(ev.verdict.arena_consistent);
  EXPECT_FALSE(ev.verdict.passed());
}

TEST(NanReachability, InfiniteWeightFailsVerdict) {
  dl::Model m = mlp();
  first_param_layer(m).params()[0] = std::numeric_limits<float>::infinity();
  const dl::StaticEngine engine{m};
  const VerificationEvidence ev =
      verify_model(m, box(0.0f, 1.0f), {check_engine(m, engine)});
  EXPECT_TRUE(ev.verdict.arena_consistent);
  EXPECT_FALSE(ev.verdict.passed()) << ev.verdict_line();
}

TEST(NanReachability, HealthyTrainedModelsPass) {
  for (const dl::Model* m : {&mlp(), &sx::testing::trained_cnn()}) {
    const dl::StaticEngine engine{*m};
    const VerificationEvidence ev =
        verify_model(*m, box(0.0f, 1.0f), {check_engine(*m, engine)});
    EXPECT_TRUE(ev.verdict.passed()) << ev.verdict_line();
    EXPECT_EQ(ev.layers.size(), m->layer_count());
    for (const auto& l : ev.layers) EXPECT_TRUE(l.finite);
    EXPECT_LE(ev.output_lo, ev.output_hi);
    // The report renderer mentions the arena re-check.
    EXPECT_NE(ev.to_text().find("arena plan"), std::string::npos);
  }
}

// ----------------------------------------------------- quant saturation

TEST(QuantSaturation, MarginsAlignWithCalibratedScales) {
  const dl::QuantizedModel qm =
      dl::QuantizedModel::quantize(mlp(), data());
  const auto checks = check_quant_saturation(mlp(), qm, box(0.0f, 1.0f));
  ASSERT_EQ(checks.size(), mlp().layer_count());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    EXPECT_EQ(checks[i].layer, i);
    EXPECT_NEAR(checks[i].representable_absmax,
                qm.activation_scale(i) * 127.0f,
                1e-4f * qm.activation_scale(i) * 127.0f);
    EXPECT_GE(checks[i].static_absmax, 0.0f);
    EXPECT_EQ(checks[i].saturation_possible,
              checks[i].static_absmax > checks[i].representable_absmax);
  }
}

TEST(QuantSaturation, RejectsMismatchedModelPair) {
  const dl::QuantizedModel qm =
      dl::QuantizedModel::quantize(mlp(), data());
  EXPECT_THROW(
      check_quant_saturation(sx::testing::trained_cnn(), qm, box(0.0f, 1.0f)),
      std::invalid_argument);
}

// ----------------------------------------------- pipeline pre-flight gate

core::PipelineConfig sil4_config() {
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil4;
  cfg.timing_budget = 1000;
  cfg.fallback_class = 3;
  return cfg;
}

TEST(PreflightGate, RefusesNanReachableModelBeforeAnyInference) {
  dl::Model poisoned = mlp();
  first_param_layer(poisoned).params()[0] =
      std::numeric_limits<float>::quiet_NaN();

  core::CertifiablePipeline p{poisoned, data(), sil4_config()};
  EXPECT_TRUE(p.verification_refused());
  ASSERT_NE(p.static_verification(), nullptr);
  EXPECT_FALSE(p.static_verification()->verdict.passed());
  EXPECT_FALSE(p.static_verification()->verdict.nan_free);
  // The model half refused it before the diverse voter's quantization:
  // no channel was built, so no engine was checked and none resolved.
  EXPECT_EQ(p.channel(), nullptr);
  EXPECT_TRUE(p.static_verification()->engines.empty());
  EXPECT_NE(p.kernel_backend().find(" resolved=none"), std::string::npos)
      << p.kernel_backend();

  // The refusal verdict is already in the audit chain at deploy time.
  bool refused_logged = false;
  for (const auto& e : p.audit().entries())
    if (e.actor == "static-verify" && e.action == "refuse-model")
      refused_logged = true;
  EXPECT_TRUE(refused_logged);

  // Every inference is refused with the dedicated status; the fallback
  // class is reported and the DL component never runs.
  const core::Decision d = p.infer(data().samples[0].input, 0, 1);
  EXPECT_EQ(d.status, Status::kVerificationFailed);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.predicted_class, 3u);
  EXPECT_EQ(p.rejections(), 1u);
  EXPECT_TRUE(ok(p.audit().verify()));

  // Explanations of a refused model are a contract violation.
  EXPECT_THROW(p.explain(data().samples[0].input, 0), std::logic_error);
}

TEST(PreflightGate, RefusedBatchPathRefusesEveryItem) {
  dl::Model poisoned = mlp();
  first_param_layer(poisoned).params()[0] =
      std::numeric_limits<float>::quiet_NaN();
  core::PipelineConfig cfg = sil4_config();
  cfg.batch_workers = 2;
  core::CertifiablePipeline p{poisoned, data(), cfg};
  const std::vector<tensor::Tensor> inputs{data().samples[0].input,
                                           data().samples[1].input,
                                           data().samples[2].input};
  const auto decisions = p.infer_batch(inputs);
  ASSERT_EQ(decisions.size(), 3u);
  for (const auto& d : decisions) {
    EXPECT_EQ(d.status, Status::kVerificationFailed);
    EXPECT_TRUE(d.degraded);
  }
  EXPECT_EQ(p.rejections(), 3u);
  EXPECT_TRUE(ok(p.audit().verify()));
}

TEST(PreflightGate, HealthyModelPassesAndRunsAtSil4) {
  core::CertifiablePipeline p{mlp(), data(), sil4_config()};
  EXPECT_FALSE(p.verification_refused());
  ASSERT_NE(p.static_verification(), nullptr);
  EXPECT_TRUE(p.static_verification()->verdict.passed());

  bool pass_logged = false;
  for (const auto& e : p.audit().entries())
    if (e.actor == "static-verify" && e.action == "pass") pass_logged = true;
  EXPECT_TRUE(pass_logged);

  const core::Decision d = p.infer(data().samples[0].input, 0, 500);
  EXPECT_EQ(d.status, Status::kOk);
  EXPECT_FALSE(d.degraded);
}

TEST(PreflightGate, Sil4GateChecksEveryDeployedEngine) {
  core::PipelineConfig cfg = sil4_config();
  cfg.batch_workers = 2;
  core::CertifiablePipeline p{mlp(), data(), cfg};
  const VerificationEvidence* sv = p.static_verification();
  ASSERT_NE(sv, nullptr);
  EXPECT_TRUE(sv->verdict.passed()) << sv->verdict_line();
  // Two diverse-TMR channels of three replicas each: float, float, int8.
  ASSERT_EQ(sv->engines.size(), 6u);
  std::size_t floats = 0, int8s = 0;
  const bool planned = p.channel()->plan() != nullptr;
  for (const EngineCheck& e : sv->engines) {
    EXPECT_TRUE(e.passed()) << "engine " << e.channel << "." << e.replica;
    EXPECT_EQ(e.ir.checked, planned);
    if (e.elem == dl::ElemType::kInt8) {
      ++int8s;
      EXPECT_EQ(e.replica, 2u);
    } else {
      ++floats;
    }
    // Channel 0's checks read the engines infer() runs.
    if (e.channel == 0) {
      EXPECT_EQ(e.planned,
                p.channel()->replica(e.replica).engine().arena_capacity());
    }
  }
  EXPECT_EQ(floats, 4u);
  EXPECT_EQ(int8s, 2u);
  EXPECT_NE(sv->verdict_line().find("engines=6"), std::string::npos);
  EXPECT_NE(sv->to_text().find("engine 1.2 int8 arena plan"),
            std::string::npos);
}

TEST(PreflightGate, Sil4DeploysAModelWithBatchNorm) {
  dl::ModelBuilder b{data().input_shape};
  b.conv2d(4, 3, /*stride=*/1, /*padding=*/1)
      .batchnorm()
      .relu()
      .maxpool(2)
      .flatten()
      .dense(24)
      .relu()
      .dense(dl::kRoadSceneClasses);
  dl::Model m = b.build(/*seed=*/29);
  auto& bn = dynamic_cast<dl::BatchNorm&>(m.layer(1));
  bn.set_statistics(std::vector<float>{0.1f, -0.2f, 0.05f, 0.3f},
                    std::vector<float>{1.2f, 0.8f, 1.5f, 0.6f});
  // The diverse voter quantizes the BatchNorm-folded model, once.
  core::CertifiablePipeline p{m, data(), sil4_config()};
  EXPECT_FALSE(p.verification_refused());
  EXPECT_EQ(p.quantized_model(), nullptr);  // float backend
  ASSERT_NE(p.channel(), nullptr);
  EXPECT_EQ(p.channel()->replica(2).elem(), dl::ElemType::kInt8);
  EXPECT_EQ(p.channel()->replica(2).quantized_model().layer_count(),
            m.layer_count() - 1);
  for (std::size_t i = 0; i < 8; ++i) {
    const core::Decision d = p.infer(data().samples[i].input, i, 1);
    EXPECT_EQ(d.status, Status::kOk);
    EXPECT_LT(d.predicted_class, dl::kRoadSceneClasses);
  }
  EXPECT_EQ(p.decisions(), 8u);
}

TEST(PreflightGate, RefusedInt8ModelIsNeverQuantized) {
  // Quantization runs the float model over the calibration set, so a
  // model the gate refuses must not reach it, on the kInt8 backend too.
  dl::Model poisoned = mlp();
  first_param_layer(poisoned).params()[0] =
      std::numeric_limits<float>::quiet_NaN();
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kSil2;
  cfg.backend = core::BackendKind::kInt8;
  core::PipelineSpec spec = core::recommended_spec(core::Criticality::kSil2);
  spec.has_static_verification = true;
  cfg.spec = spec;
  core::CertifiablePipeline p{poisoned, data(), cfg};
  EXPECT_TRUE(p.verification_refused());
  EXPECT_EQ(p.quantized_model(), nullptr);
  EXPECT_EQ(p.channel(), nullptr);
  EXPECT_NE(core::make_quant_backend_evidence(p).body.find("not quantized"),
            std::string::npos);
  const core::Decision d = p.infer(data().samples[0].input, 0);
  EXPECT_EQ(d.status, Status::kVerificationFailed);
}

TEST(PreflightGate, NotRequiredBelowSil3) {
  core::PipelineConfig cfg;
  cfg.criticality = core::Criticality::kQM;
  core::CertifiablePipeline p{mlp(), data(), cfg};
  EXPECT_EQ(p.static_verification(), nullptr);
  EXPECT_FALSE(p.verification_refused());
}

TEST(PreflightGate, ReportCarriesVerdictAndEvidence) {
  dl::Model poisoned = mlp();
  first_param_layer(poisoned).params()[0] =
      std::numeric_limits<float>::quiet_NaN();
  core::CertifiablePipeline p{poisoned, data(), sil4_config()};
  const auto report = core::make_certification_report(
      p, nullptr,
      {core::make_static_verification_evidence(*p.static_verification())});
  EXPECT_NE(report.text.find("static verification: FAIL"), std::string::npos);
  EXPECT_NE(report.text.find("Static verification (abstract interpretation)"),
            std::string::npos);

  core::CertifiablePipeline healthy{mlp(), data(), sil4_config()};
  const auto ok_report = core::make_certification_report(healthy, nullptr, {});
  EXPECT_NE(ok_report.text.find("static verification: PASS"),
            std::string::npos);
}

}  // namespace
}  // namespace sx::verify
