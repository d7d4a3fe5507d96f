#include <gtest/gtest.h>

#include "core/report.hpp"
#include "test_helpers.hpp"

namespace sx::core {
namespace {

const dl::Model& model() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }

CertifiablePipeline make_pipeline(Criticality c) {
  PipelineConfig cfg;
  cfg.criticality = c;
  cfg.timing_budget = 10'000;
  return CertifiablePipeline{model(), data(), cfg};
}

TEST(Report, CompleteForWellFormedDeployment) {
  CertifiablePipeline p = make_pipeline(Criticality::kSil2);
  for (std::size_t i = 0; i < 5; ++i) (void)p.infer(data().samples[i].input, i);

  trace::RequirementRegistry reg;
  reg.add({"REQ-1", "classify road scenes", trace::Criticality::kSil2});
  reg.link("REQ-1", trace::ArtifactKind::kModel,
           p.model_card().model_hash, "implements");
  reg.link("REQ-1", trace::ArtifactKind::kTest, "accuracy-suite", "verifies");

  const auto report = make_certification_report(
      p, &reg, {EvidenceItem{"fault campaign", "SDC rate: 0.0%"}});
  EXPECT_TRUE(report.complete);
  EXPECT_NE(report.text.find("EVIDENCE COMPLETE"), std::string::npos);
  EXPECT_NE(report.text.find("SAFETY CASE"), std::string::npos);
  EXPECT_NE(report.text.find("fault campaign"), std::string::npos);
  EXPECT_NE(report.text.find("SIL2"), std::string::npos);
}

TEST(Report, FlagsUncoveredRequirements) {
  CertifiablePipeline p = make_pipeline(Criticality::kSil1);
  trace::RequirementRegistry reg;
  reg.add({"REQ-1", "x", trace::Criticality::kSil1});  // no links at all
  const auto report = make_certification_report(p, &reg, {});
  EXPECT_FALSE(report.complete);
  EXPECT_NE(report.text.find("EVIDENCE GAPS REMAIN"), std::string::npos);
}

TEST(Report, WorksWithoutRequirements) {
  CertifiablePipeline p = make_pipeline(Criticality::kQM);
  const auto report = make_certification_report(p, nullptr, {});
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.text.find("REQUIREMENT TRACEABILITY"), std::string::npos);
}

TEST(Report, ContainsOperationalCounters) {
  CertifiablePipeline p = make_pipeline(Criticality::kQM);
  for (std::size_t i = 0; i < 7; ++i) (void)p.infer(data().samples[i].input, i);
  const auto report = make_certification_report(p, nullptr, {});
  EXPECT_NE(report.text.find("decisions: 7"), std::string::npos);
  EXPECT_NE(report.text.find("audit chain: VERIFIES"), std::string::npos);
}

TEST(Report, QuantBackendEvidenceRenders) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.backend = BackendKind::kInt8;
  PipelineSpec spec = recommended_spec(Criticality::kSil2);
  spec.has_static_verification = true;
  cfg.spec = spec;
  cfg.batch_workers = 2;
  CertifiablePipeline p{model(), data(), cfg};
  for (std::size_t i = 0; i < 6; ++i) (void)p.infer(data().samples[i].input, i);

  const EvidenceItem ev = make_quant_backend_evidence(p);
  EXPECT_NE(ev.body.find("backend: int8"), std::string::npos);
  EXPECT_NE(ev.body.find("per-channel weight scales"), std::string::npos);
  EXPECT_NE(ev.body.find("mode="), std::string::npos);
  EXPECT_NE(ev.body.find("byte-arena re-check"), std::string::npos);
  EXPECT_NE(ev.body.find("CONSISTENT"), std::string::npos);
  EXPECT_NE(ev.body.find("saturation cross-check"), std::string::npos);

  const auto batch_ev = make_batch_runner_evidence(*p.batch_runner());
  EXPECT_NE(batch_ev.body.find("workers: 2"), std::string::npos);

  const auto report = make_certification_report(p, nullptr, {ev, batch_ev});
  EXPECT_TRUE(report.complete);
  EXPECT_NE(report.text.find("backend=int8"), std::string::npos);
}

TEST(Report, QuantBackendEvidenceRejectsFloatPipeline) {
  CertifiablePipeline p = make_pipeline(Criticality::kQM);
  EXPECT_THROW(make_quant_backend_evidence(p), std::logic_error);
}

TEST(Report, EveryCriticalityLevelRenders) {
  for (const Criticality c : {Criticality::kQM, Criticality::kSil1,
                              Criticality::kSil2, Criticality::kSil3,
                              Criticality::kSil4}) {
    CertifiablePipeline p = make_pipeline(c);
    const auto report = make_certification_report(p, nullptr, {});
    EXPECT_TRUE(report.complete) << trace::to_string(c);
    EXPECT_NE(report.text.find(trace::to_string(c)), std::string::npos);
  }
}

}  // namespace
}  // namespace sx::core
