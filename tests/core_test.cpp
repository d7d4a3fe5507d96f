#include <gtest/gtest.h>

#include <bit>

#include "core/criticality.hpp"
#include "core/pipeline.hpp"
#include "supervise/metrics.hpp"
#include "test_helpers.hpp"

namespace sx::core {
namespace {

const dl::Model& model() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }

// -------------------------------------------------------------- criticality

TEST(Criticality, QmAcceptsAnything) {
  PipelineSpec bare;
  EXPECT_TRUE(check_admissible(bare, Criticality::kQM).admissible);
}

TEST(Criticality, HigherLevelsRejectBareChannel) {
  PipelineSpec bare;
  for (const Criticality c : {Criticality::kSil1, Criticality::kSil2,
                              Criticality::kSil3, Criticality::kSil4}) {
    const auto v = check_admissible(bare, c);
    EXPECT_FALSE(v.admissible) << trace::to_string(c);
    EXPECT_FALSE(v.missing.empty());
  }
}

TEST(Criticality, RecommendedSpecIsAdmissibleAtItsLevel) {
  for (const Criticality c : {Criticality::kQM, Criticality::kSil1,
                              Criticality::kSil2, Criticality::kSil3,
                              Criticality::kSil4}) {
    EXPECT_TRUE(check_admissible(recommended_spec(c), c).admissible)
        << trace::to_string(c);
  }
}

TEST(Criticality, RecommendedSpecNotAdmissibleOneLevelUp) {
  EXPECT_FALSE(check_admissible(recommended_spec(Criticality::kSil1),
                                Criticality::kSil2)
                   .admissible);
  EXPECT_FALSE(check_admissible(recommended_spec(Criticality::kSil3),
                                Criticality::kSil4)
                   .admissible);
}

TEST(Criticality, PatternStrengthStrictlyIncreases) {
  EXPECT_LT(pattern_strength(PatternKind::kSingle),
            pattern_strength(PatternKind::kMonitored));
  EXPECT_LT(pattern_strength(PatternKind::kMonitored),
            pattern_strength(PatternKind::kDmr));
  EXPECT_LT(pattern_strength(PatternKind::kDmr),
            pattern_strength(PatternKind::kTmr));
  EXPECT_LT(pattern_strength(PatternKind::kTmr),
            pattern_strength(PatternKind::kDiverseTmr));
}

TEST(Criticality, ObligationsAccumulate) {
  // Each level's obligations are a superset of the previous level's.
  auto leq = [](const Obligations& a, const Obligations& b) {
    return pattern_strength(a.min_pattern) <= pattern_strength(b.min_pattern) &&
           a.supervisor <= b.supervisor && a.odd_guard <= b.odd_guard &&
           a.safety_bag <= b.safety_bag &&
           a.timing_budget <= b.timing_budget &&
           a.explanations <= b.explanations;
  };
  EXPECT_TRUE(leq(obligations_for(Criticality::kQM),
                  obligations_for(Criticality::kSil1)));
  EXPECT_TRUE(leq(obligations_for(Criticality::kSil1),
                  obligations_for(Criticality::kSil2)));
  EXPECT_TRUE(leq(obligations_for(Criticality::kSil2),
                  obligations_for(Criticality::kSil3)));
  EXPECT_TRUE(leq(obligations_for(Criticality::kSil3),
                  obligations_for(Criticality::kSil4)));
}

// ----------------------------------------------------------------- pipeline

TEST(Pipeline, RejectsInadmissibleSpec) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.spec = PipelineSpec{};  // bare
  EXPECT_THROW(CertifiablePipeline(model(), data(), cfg),
               std::invalid_argument);
}

TEST(Pipeline, QmDecidesNormally) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;
  CertifiablePipeline p{model(), data(), cfg};
  const auto d = p.infer(data().samples[0].input);
  EXPECT_EQ(d.status, Status::kOk);
  EXPECT_LT(d.predicted_class, dl::kRoadSceneClasses);
  EXPECT_GT(d.confidence, 0.0f);
}

TEST(Pipeline, Sil2RejectsOutOfOddInput) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline p{model(), data(), cfg};
  tensor::Tensor extreme{data().input_shape};
  extreme.fill(30.0f);
  const auto d = p.infer(extreme);
  EXPECT_EQ(d.status, Status::kOddViolation);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(p.rejections(), 1u);
}

TEST(Pipeline, WrongShapedInputFailStopsInsteadOfThrowing) {
  // No ODD guard to catch the shape: the safety bag would degrade the
  // input, but a wrong-shaped input must fail-stop the decision (as on the
  // batch path) rather than throw out of infer().
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;
  PipelineSpec spec;
  spec.has_supervisor = true;
  spec.has_safety_bag = true;
  cfg.spec = spec;
  cfg.fallback_class = 2;
  CertifiablePipeline p{model(), data(), cfg};
  const std::size_t audit_before = p.audit().size();
  Decision d;
  ASSERT_NO_THROW(d = p.infer(tensor::Tensor{tensor::Shape{3}}));
  EXPECT_EQ(d.status, Status::kShapeMismatch);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.predicted_class, 2u);
  EXPECT_EQ(p.rejections(), 1u);
  ASSERT_EQ(p.audit().size(), audit_before + 1);
  EXPECT_EQ(p.audit().entries().back().action, "fail-stop");
  EXPECT_EQ(d.audit_sequence, p.audit().entries().back().sequence);

  // The pipeline keeps deciding afterwards.
  EXPECT_EQ(p.infer(data().samples[0].input).status, Status::kOk);
}

TEST(Pipeline, Sil3DeadlineMissTriggersFallback) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 1000;
  cfg.fallback_class = 3;
  CertifiablePipeline p{model(), data(), cfg};
  const auto d =
      p.infer(data().samples[0].input, /*logical_time=*/0, /*elapsed=*/5000);
  EXPECT_EQ(d.status, Status::kDeadlineMiss);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.predicted_class, 3u);
}

TEST(Pipeline, Sil3WithinBudgetDecides) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 1000;
  CertifiablePipeline p{model(), data(), cfg};
  const auto d =
      p.infer(data().samples[0].input, /*logical_time=*/0, /*elapsed=*/500);
  EXPECT_EQ(d.status, Status::kOk);
}

TEST(Pipeline, Sil3RequiresBudgetValue) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 0;
  EXPECT_THROW(CertifiablePipeline(model(), data(), cfg),
               std::invalid_argument);
}

TEST(Pipeline, AuditTrailGrowsAndVerifies) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline p{model(), data(), cfg};
  for (std::size_t i = 0; i < 10; ++i)
    (void)p.infer(data().samples[i].input, i);
  // deploy + kernel-plan + 3 ir-pass (dce, fusion, liveness) +
  // kernel-backend + 10 decisions
  EXPECT_EQ(p.audit().size(), 16u);
  EXPECT_EQ(p.audit().verify(), Status::kOk);
}

TEST(Pipeline, IntegrityGatePasses) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil1;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_EQ(p.verify_integrity(), Status::kOk);
}

TEST(Pipeline, ExplainProducesAttribution) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil1;
  CertifiablePipeline p{model(), data(), cfg};
  const auto att = p.explain(data().samples[1].input, 1);
  EXPECT_EQ(att.shape(), data().input_shape);
}

TEST(Pipeline, QmHasNoExplainSupport) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_THROW(p.explain(data().samples[0].input, 0), std::logic_error);
}

TEST(Pipeline, SafetyCaseCompleteAtEveryLevel) {
  for (const Criticality c : {Criticality::kQM, Criticality::kSil1,
                              Criticality::kSil2, Criticality::kSil3,
                              Criticality::kSil4}) {
    PipelineConfig cfg;
    cfg.criticality = c;
    cfg.timing_budget = 10000;
    CertifiablePipeline p{model(), data(), cfg};
    const auto sc = p.build_safety_case();
    EXPECT_TRUE(sc.complete()) << trace::to_string(c);
    EXPECT_GT(sc.size(), 5u);
  }
}

TEST(Pipeline, Sil4UsesDiverseRedundancy) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil4;
  cfg.timing_budget = 10000;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_EQ(p.spec().pattern, PatternKind::kDiverseTmr);
  const auto d = p.infer(data().samples[0].input);
  EXPECT_EQ(d.status, Status::kOk);
}

TEST(Pipeline, OodInputFallsBackAtSil3) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 10000;
  cfg.fallback_class = 3;
  CertifiablePipeline p{model(), data(), cfg};
  const auto ood = dl::corrupt(data(), dl::Corruption::kUniformRandom, 8);
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto d = p.infer(ood.samples[i].input, i);
    degraded += d.degraded ? 1 : 0;
  }
  // ODD guard and/or supervisor should push nearly all to the fallback.
  EXPECT_GT(degraded, 15u);
}

TEST(Pipeline, CountsDecisions) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;
  CertifiablePipeline p{model(), data(), cfg};
  for (std::size_t i = 0; i < 7; ++i) (void)p.infer(data().samples[i].input);
  EXPECT_EQ(p.decisions(), 7u);
}

// Property sweep: at every criticality level, in-distribution inputs flow
// through the pipeline with OK status and high accuracy.
class PipelineLevels : public ::testing::TestWithParam<Criticality> {};

TEST_P(PipelineLevels, InDistributionFlowsThrough) {
  PipelineConfig cfg;
  cfg.criticality = GetParam();
  cfg.timing_budget = 10000;
  cfg.supervisor_tpr = 0.99;
  CertifiablePipeline p{model(), data(), cfg};
  std::size_t ok_count = 0, correct = 0;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = p.infer(data().samples[i].input, i, 100);
    if (d.status == Status::kOk && !d.degraded) {
      ++ok_count;
      correct += (d.predicted_class == data().samples[i].label) ? 1 : 0;
    }
  }
  EXPECT_GT(ok_count, n * 8 / 10);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(ok_count),
            0.75);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, PipelineLevels,
                         ::testing::Values(Criticality::kQM,
                                           Criticality::kSil1,
                                           Criticality::kSil2,
                                           Criticality::kSil3,
                                           Criticality::kSil4));

// ------------------------------------------------ deploy-time calibration

TEST(PipelineCalibration, PlannedFitMatchesReferencePath) {
  // Deployment fits the supervisor from one planned pass over the
  // calibration set; the threshold, the CUSUM parameters and every score
  // must be bitwise those of the reference walk (fit + collect_scores).
  const dl::Model& m = model();
  supervise::MahalanobisSupervisor ref;
  ref.fit(m, data());
  const std::vector<double> scores = supervise::collect_scores(ref, m, data());
  ref.calibrate_threshold(scores, 0.95);
  std::vector<double> log_scores;
  for (const double s : scores)
    log_scores.push_back(std::log1p(std::max(0.0, s)));
  const auto ref_drift = supervise::CusumDetector::fit(log_scores, 0.5, 10.0);

  for (const auto crit : {Criticality::kSil2, Criticality::kSil3}) {
    PipelineConfig cfg;
    cfg.criticality = crit;
    cfg.timing_budget = 1'000'000;
    CertifiablePipeline p{m, data(), cfg};
    ASSERT_NE(p.supervisor(), nullptr);
    ASSERT_NE(p.drift_detector(), nullptr);
    EXPECT_EQ(p.supervisor()->threshold(), ref.threshold());
    EXPECT_EQ(p.drift_detector()->reference_mean(),
              ref_drift.reference_mean());
    EXPECT_EQ(p.drift_detector()->reference_std(),
              ref_drift.reference_std());
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_EQ(p.supervisor()->score(m, data().samples[i].input),
                ref.score(m, data().samples[i].input));
  }
}

// ------------------------------------------------- the decision's one pass

/// Faults replica 0's first Dense layer (before the feature layer).
void fault_replica0(CertifiablePipeline& p, float delta) {
  safety::Replica& r = p.channel()->replica(0);
  r.model().layer(1).params()[10] += delta;
  r.refresh();
}

// The supervisor reads the replica that decided: a fault in the monitored
// channel's replica that stays inside the envelope changes the score.
TEST(PipelineTap, MonitoredReplicaFaultReachesTheScore) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline clean{model(), data(), cfg};
  CertifiablePipeline faulted{model(), data(), cfg};
  fault_replica0(faulted, 0.5f);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const Decision a = clean.infer(data().samples[i].input, i);
    const Decision b = faulted.infer(data().samples[i].input, i);
    ASSERT_EQ(a.status, Status::kOk);
    ASSERT_EQ(b.status, Status::kOk);
    moved += a.supervisor_score != b.supervisor_score ? 1 : 0;
  }
  EXPECT_GT(moved, 0u);
}

// Under TMR the tap comes from a replica that reproduces the vote, so one
// faulted replica leaves every score bitwise the clean one.
TEST(PipelineTap, TmrReplicaFaultLeavesTheScoreBitEqual) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 1'000'000'000;
  cfg.spec = recommended_spec(cfg.criticality);
  cfg.spec->pattern = PatternKind::kTmr;
  CertifiablePipeline clean{model(), data(), cfg};
  CertifiablePipeline faulted{model(), data(), cfg};
  fault_replica0(faulted, 50.0f);
  for (std::size_t i = 0; i < 10; ++i) {
    const Decision a = clean.infer(data().samples[i].input, i);
    const Decision b = faulted.infer(data().samples[i].input, i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.supervisor_score),
              std::bit_cast<std::uint64_t>(b.supervisor_score));
    EXPECT_EQ(a.degraded, b.degraded);
  }
}

// When the bag's primary fails nothing was tapped: the decision takes the
// fallback with no score and no drift update, like an ODD rejection.
TEST(PipelineTap, BagPrimaryFailureTakesNoScoreAndNoDriftUpdate) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 1'000'000'000;
  CertifiablePipeline p{model(), data(), cfg};
  ASSERT_EQ(p.spec().pattern, PatternKind::kDmr);
  const Decision ok_d = p.infer(data().samples[0].input, 0);
  ASSERT_EQ(ok_d.status, Status::kOk);
  EXPECT_GT(ok_d.supervisor_score, 0.0);
  // Every scored decision observes the supervisor stage histogram once.
  const obs::Registry& reg = *p.telemetry();
  const auto scored = [&reg] {
    return reg.histogram_snapshot(
                  reg.find_histogram("sx_stage_supervisor_cycles"))
        .count;
  };
  ASSERT_EQ(scored(), 1u);
  fault_replica0(p, 50.0f);
  const double cusum = p.drift_detector()->statistic();
  const Decision d = p.infer(data().samples[0].input, 1);
  EXPECT_EQ(d.status, Status::kOk);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.supervisor_score, 0.0);
  EXPECT_EQ(p.drift_detector()->statistic(), cusum);
  EXPECT_EQ(scored(), 1u);
}

// ------------------------------------------------------------ int8 backend

TEST(PipelineInt8, Sil2EndToEndDecides) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  CertifiablePipeline p{model(), data(), cfg};

  EXPECT_EQ(p.backend(), BackendKind::kInt8);
  EXPECT_STREQ(to_string(p.backend()), "int8");
  ASSERT_NE(p.quantized_model(), nullptr);
  ASSERT_NE(p.channel(), nullptr);
  EXPECT_EQ(p.channel()->replica(0).elem(), dl::ElemType::kInt8);
  // SIL2's recommended pattern is kMonitored: the int8 channel must carry
  // its own runtime monitor to stay admissible (only a monitor binds the
  // rejection counter).
  ASSERT_NE(p.telemetry(), nullptr);
  EXPECT_TRUE(
      p.telemetry()->find_counter("sx_monitor_rejections_total").valid());

  std::size_t ok_count = 0, correct = 0;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = p.infer(data().samples[i].input, i);
    if (d.status == Status::kOk && !d.degraded) {
      ++ok_count;
      correct += (d.predicted_class == data().samples[i].label) ? 1 : 0;
    }
  }
  EXPECT_GT(ok_count, n * 7 / 10);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(ok_count),
            0.7);
  EXPECT_EQ(ok(p.audit().verify()), true);

  // Deployment evidence: the audit trail records the backend and the
  // quantized kernel plan.
  bool saw_backend = false, saw_plan = false;
  for (const auto& e : p.audit().entries()) {
    if (e.action == "deploy" && e.payload.find("backend=int8") !=
                                    std::string::npos)
      saw_backend = true;
    if (e.actor == "quant-plan") saw_plan = true;
  }
  EXPECT_TRUE(saw_backend);
  EXPECT_TRUE(saw_plan);
}

TEST(PipelineInt8, RejectsCriticalityAboveMonitoredRung) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;  // demands DMR: float replicas
  cfg.backend = BackendKind::kInt8;
  cfg.timing_budget = 1000;
  EXPECT_THROW(CertifiablePipeline(model(), data(), cfg),
               std::invalid_argument);
}

TEST(PipelineInt8, FloatBackendHasNoQuantState) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_EQ(p.backend(), BackendKind::kFloat32);
  EXPECT_EQ(p.quantized_model(), nullptr);
  ASSERT_NE(p.channel(), nullptr);
  EXPECT_EQ(p.channel()->replica(0).elem(), dl::ElemType::kFloat32);
  EXPECT_EQ(p.quant_saturation_total(), 0u);
  EXPECT_THROW(p.quant_saturation_cross_check(), std::logic_error);
}

TEST(PipelineInt8, BatchPathIsQuantizedAndDecides) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  cfg.batch_workers = 4;
  CertifiablePipeline p{model(), data(), cfg};
  ASSERT_NE(p.batch_runner(), nullptr);
  // The pool runs the pipeline's int8 channels.
  EXPECT_EQ(p.channel()->replica(0).elem(), dl::ElemType::kInt8);

  std::vector<tensor::Tensor> inputs;
  for (std::size_t i = 0; i < 9; ++i)
    inputs.push_back(data().samples[i].input);
  const auto decisions = p.infer_batch(inputs);
  ASSERT_EQ(decisions.size(), inputs.size());
  std::size_t ok_count = 0;
  for (const auto& d : decisions)
    if (d.status == Status::kOk && !d.degraded) ++ok_count;
  EXPECT_GT(ok_count, 5u);
  // Bitwise parity with infer() is pinned by PipelineBatchParity
  // (tests/dl_batch_test.cpp) for both backends and kernel modes.
}

TEST(PipelineInt8, StaticVerificationCrossChecksSaturation) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  PipelineSpec spec = recommended_spec(Criticality::kSil2);
  spec.has_static_verification = true;  // stricter than SIL2 demands
  cfg.spec = spec;
  CertifiablePipeline p{model(), data(), cfg};

  const auto* sv = p.static_verification();
  ASSERT_NE(sv, nullptr);
  ASSERT_EQ(sv->engines.size(), 1u);
  EXPECT_EQ(sv->engines.front().elem, dl::ElemType::kInt8);
  EXPECT_FALSE(sv->quant.empty());
  EXPECT_TRUE(sv->engines.front().arena_consistent())
      << "independent byte-arena demand diverges from the engine plan";
  EXPECT_FALSE(p.verification_refused());
  EXPECT_NE(sv->to_text().find("int8 arena plan"), std::string::npos);

  for (std::size_t i = 0; i < 30; ++i) (void)p.infer(data().samples[i].input, i);
  const verify::SaturationCrossCheck xc = p.quant_saturation_cross_check();
  EXPECT_EQ(xc.layers_checked, p.quantized_model()->layer_count());
  EXPECT_TRUE(xc.consistent)
      << "a statically-safe layer clipped at runtime: " << xc.violations
      << " violations";
  EXPECT_EQ(xc.measured_total, p.quant_saturation_total());
}

TEST(PipelineInt8, TelemetryExposesQuantMetrics) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  CertifiablePipeline p{model(), data(), cfg};
  ASSERT_NE(p.telemetry(), nullptr);
  for (std::size_t i = 0; i < 10; ++i) (void)p.infer(data().samples[i].input, i);
  const std::string metrics = obs::expose_text(*p.telemetry());
  EXPECT_NE(metrics.find("sx_quant_saturations_total"), std::string::npos);
  EXPECT_NE(metrics.find("sx_quant_weight_bytes"), std::string::npos);
  EXPECT_NE(metrics.find("sx_stage_quant_inference_cycles"), std::string::npos);
}

}  // namespace
}  // namespace sx::core
