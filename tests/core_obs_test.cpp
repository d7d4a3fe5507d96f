// Pipeline-level observability tests: telemetry counters track runtime
// events on both inference paths, the batch path keeps watchdog parity
// with the single-item path, the certification report embeds the
// telemetry snapshot, and — the central claim — counters, histograms and
// the text exposition are bitwise identical for every batch_workers
// setting under a deterministic clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "test_helpers.hpp"
#include "timing/mbpta.hpp"

namespace sx::core {
namespace {

const dl::Model& model() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }

/// Deterministic clock: +7 per call, one counter per thread, so a paired
/// start/stop measurement always reads 7 elapsed units on every thread
/// and every schedule.
std::uint64_t& tick_ref() noexcept {
  thread_local std::uint64_t t = 0;
  return t;
}
std::uint64_t tick_now() noexcept { return tick_ref() += 7; }

obs::RegistryConfig tick_telemetry() {
  obs::RegistryConfig cfg;
  cfg.clock = &tick_now;
  return cfg;
}

std::uint64_t counter_value(const CertifiablePipeline& p, const char* name) {
  const obs::Registry* reg = p.telemetry();
  return reg ? reg->value(reg->find_counter(name)) : 0;
}

// ------------------------------------------------------- single-item path

TEST(PipelineTelemetry, CountsDecisionsAndOddRejections) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline p{model(), data(), cfg};
  ASSERT_NE(p.telemetry(), nullptr);
  for (std::size_t i = 0; i < 3; ++i) (void)p.infer(data().samples[i].input);
  tensor::Tensor extreme{data().input_shape};
  extreme.fill(30.0f);
  const auto d = p.infer(extreme);
  EXPECT_EQ(d.status, Status::kOddViolation);
  EXPECT_EQ(counter_value(p, "sx_decisions_total"), 4u);
  EXPECT_EQ(counter_value(p, "sx_odd_rejections_total"), 1u);
  EXPECT_EQ(counter_value(p, "sx_watchdog_overruns_total"), 0u);
}

TEST(PipelineTelemetry, WatchdogOverrunCounted) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 1000;
  CertifiablePipeline p{model(), data(), cfg};
  (void)p.infer(data().samples[0].input, 0, /*elapsed=*/5000);
  (void)p.infer(data().samples[1].input, 1, /*elapsed=*/500);
  EXPECT_EQ(counter_value(p, "sx_watchdog_overruns_total"), 1u);
  EXPECT_EQ(counter_value(p, "sx_decisions_total"), 2u);
}

TEST(PipelineTelemetry, StageHistogramsRecordEveryDecision) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.telemetry_config = tick_telemetry();
  CertifiablePipeline p{model(), data(), cfg};
  obs::Registry* reg = p.telemetry();
  ASSERT_NE(reg, nullptr);
  const std::size_t n = 5;
  for (std::size_t i = 0; i < n; ++i) (void)p.infer(data().samples[i].input);
  EXPECT_EQ(reg->histogram_snapshot(reg->find_histogram("sx_decision_cycles"))
                .count,
            n);
  EXPECT_EQ(
      reg->histogram_snapshot(reg->find_histogram("sx_stage_inference_cycles"))
          .count,
      n);
  EXPECT_EQ(
      reg->histogram_snapshot(reg->find_histogram("sx_stage_odd_guard_cycles"))
          .count,
      n);
}

TEST(PipelineTelemetry, FlightRecorderHoldsStageTrail) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.flight_recorder_capacity = 64;
  CertifiablePipeline p{model(), data(), cfg};
  (void)p.infer(data().samples[0].input);
  const obs::FlightRecorder* fdr = p.flight_recorder();
  ASSERT_NE(fdr, nullptr);
  EXPECT_GT(fdr->size(), 0u);
  std::vector<obs::StageSpan> spans(fdr->size());
  fdr->snapshot(spans);
  bool saw_guard = false, saw_inference = false, saw_decision = false;
  for (const auto& s : spans) {
    saw_guard |= s.stage == obs::Stage::kOddGuard;
    saw_inference |= s.stage == obs::Stage::kInference;
    saw_decision |= s.stage == obs::Stage::kDecision;
    EXPECT_EQ(s.decision, 1u);
  }
  EXPECT_TRUE(saw_guard);
  EXPECT_TRUE(saw_inference);
  EXPECT_TRUE(saw_decision);
}

TEST(PipelineTelemetry, DisabledTelemetryMeansNoRegistry) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.enable_telemetry = false;
  CertifiablePipeline p{model(), data(), cfg};
  EXPECT_EQ(p.telemetry(), nullptr);
  EXPECT_EQ(p.flight_recorder(), nullptr);
  const auto d = p.infer(data().samples[0].input);
  EXPECT_EQ(d.status, Status::kOk);
  const auto rep = make_certification_report(p, nullptr, {});
  EXPECT_EQ(rep.text.find("7. OBSERVABILITY"), std::string::npos);
}

// --------------------------------------------------------- batch watchdog

TEST(PipelineTelemetry, BatchPathFeedsLogicalElapsedToWatchdog) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 3;  // every item's logical elapsed is 7
  cfg.batch_workers = 2;
  cfg.telemetry_config = tick_telemetry();
  CertifiablePipeline p{model(), data(), cfg};
  std::vector<tensor::Tensor> inputs;
  for (std::size_t i = 0; i < 6; ++i) inputs.push_back(data().samples[i].input);
  tick_ref() = 0;
  const auto decisions =
      p.infer_batch(inputs, /*logical_time=*/0, /*elapsed=*/7);
  for (const auto& d : decisions) {
    EXPECT_EQ(d.status, Status::kDeadlineMiss);
    EXPECT_TRUE(d.degraded);
  }
  EXPECT_EQ(counter_value(p, "sx_watchdog_overruns_total"), 6u);
}

TEST(PipelineTelemetry, BatchPathWithinLogicalBudgetDecides) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil3;
  cfg.timing_budget = 100;  // logical elapsed 7 per item fits easily
  cfg.batch_workers = 2;
  cfg.telemetry_config = tick_telemetry();
  CertifiablePipeline p{model(), data(), cfg};
  std::vector<tensor::Tensor> inputs;
  for (std::size_t i = 0; i < 6; ++i) inputs.push_back(data().samples[i].input);
  tick_ref() = 0;
  const auto decisions =
      p.infer_batch(inputs, /*logical_time=*/0, /*elapsed=*/7);
  for (const auto& d : decisions) EXPECT_EQ(d.status, Status::kOk);
  EXPECT_EQ(counter_value(p, "sx_watchdog_overruns_total"), 0u);
  EXPECT_EQ(counter_value(p, "sx_decisions_total"), 6u);
}

// ------------------------------------------------------------ determinism

/// Runs the same mixed batch workload at a given worker count and returns
/// the full telemetry state (exposition + flight trail + audit head).
struct TelemetrySnapshot {
  std::string exposition;
  std::string flight_trail;
  std::uint64_t decisions = 0;
  std::uint64_t odd_rejections = 0;
  std::uint64_t batch_items = 0;
};

TelemetrySnapshot run_workload(std::size_t workers) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  cfg.batch_workers = workers;
  cfg.telemetry_config = tick_telemetry();
  CertifiablePipeline p{model(), data(), cfg};

  std::vector<tensor::Tensor> inputs;
  for (std::size_t i = 0; i < 10; ++i)
    inputs.push_back(data().samples[i].input);
  tensor::Tensor extreme{data().input_shape};
  extreme.fill(30.0f);
  inputs.push_back(extreme);
  inputs.push_back(extreme);

  tick_ref() = 0;  // same serial clock stream for every worker count
  (void)p.infer_batch(inputs);
  (void)p.infer_batch(inputs);

  TelemetrySnapshot snap;
  snap.exposition = obs::expose_text(*p.telemetry());
  // The caller runs the pool's partition 0, so its thread-local tick clock
  // advances by a worker-count-dependent amount inside infer_batch(): span
  // start instants shift with the worker count. Everything else in the
  // trail (order, stages, statuses, degradations, durations) must not.
  static const std::regex kStart{R"( t=\[[0-9]+,[0-9]+\))"};
  snap.flight_trail =
      std::regex_replace(p.flight_recorder()->to_text(), kStart, "");
  snap.decisions = counter_value(p, "sx_decisions_total");
  snap.odd_rejections = counter_value(p, "sx_odd_rejections_total");
  snap.batch_items = counter_value(p, "sx_batch_items_total");
  return snap;
}

TEST(PipelineTelemetry, BitwiseIdenticalAcrossWorkerCounts) {
  const TelemetrySnapshot ref = run_workload(1);
  EXPECT_EQ(ref.decisions, 24u);
  EXPECT_EQ(ref.odd_rejections, 4u);
  EXPECT_EQ(ref.batch_items, 24u);  // guard-rejected items are pool items too
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const TelemetrySnapshot snap = run_workload(workers);
    EXPECT_EQ(snap.exposition, ref.exposition) << "workers=" << workers;
    EXPECT_EQ(snap.flight_trail, ref.flight_trail) << "workers=" << workers;
    EXPECT_EQ(snap.decisions, ref.decisions) << "workers=" << workers;
    EXPECT_EQ(snap.odd_rejections, ref.odd_rejections)
        << "workers=" << workers;
    EXPECT_EQ(snap.batch_items, ref.batch_items) << "workers=" << workers;
  }
}

TEST(PipelineTelemetry, BatchCountersAreShardedByWorker) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;
  cfg.batch_workers = 4;
  cfg.telemetry_config = tick_telemetry();
  CertifiablePipeline p{model(), data(), cfg};
  std::vector<tensor::Tensor> inputs;
  for (std::size_t i = 0; i < 8; ++i) inputs.push_back(data().samples[i].input);
  tick_ref() = 0;
  (void)p.infer_batch(inputs);
  const obs::Registry* reg = p.telemetry();
  const obs::CounterId c = reg->find_counter("sx_batch_items_total");
  EXPECT_EQ(reg->value(c), 8u);
  // Static round-robin: worker w owns items w, w+4 — two each.
  for (std::size_t w = 0; w < 4; ++w)
    EXPECT_EQ(p.batch_runner()->worker_stats(w).items, 2u)
        << "worker " << w;
}

// ------------------------------------------------------------------ report

TEST(PipelineTelemetry, ReportEmbedsSnapshotBetweenMarkers) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kSil2;
  CertifiablePipeline p{model(), data(), cfg};
  (void)p.infer(data().samples[0].input);
  const auto rep = make_certification_report(p, nullptr, {});
  EXPECT_NE(rep.text.find("7. OBSERVABILITY"), std::string::npos);
  const std::size_t b = rep.text.find("# BEGIN SX_METRICS");
  const std::size_t e = rep.text.find("# END SX_METRICS");
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  EXPECT_LT(b, e);
  const std::string block = rep.text.substr(b, e - b);
  EXPECT_NE(block.find("sx_decisions_total 1"), std::string::npos);
  EXPECT_NE(rep.text.find("# BEGIN SX_FLIGHT_TRAIL"), std::string::npos);
  EXPECT_NE(rep.text.find("# END SX_FLIGHT_TRAIL"), std::string::npos);
}

// -------------------------------------------------------------- MBPTA feed

TEST(PipelineTelemetry, DrainedDecisionSamplesFeedMbpta) {
  PipelineConfig cfg;
  cfg.criticality = Criticality::kQM;  // real steady clock: varying samples
  CertifiablePipeline p{model(), data(), cfg};
  const std::size_t n = 250;
  for (std::size_t i = 0; i < n; ++i)
    (void)p.infer(data().samples[i % data().samples.size()].input, i);
  obs::Registry* reg = p.telemetry();
  const obs::HistogramId h = reg->find_histogram("sx_decision_cycles");
  ASSERT_EQ(reg->sample_count(h), n);
  std::vector<double> times(n);
  ASSERT_EQ(reg->drain_samples(h, times), n);
  timing::MbptaConfig mc;
  mc.require_iid = false;  // live samples need not pass the full battery
  const timing::MbptaReport report = timing::analyze(times, mc);
  EXPECT_GT(report.observed_hwm, 0.0);
  EXPECT_FALSE(report.curve.empty());
  EXPECT_EQ(reg->sample_count(h), 0u);  // drained
}

}  // namespace
}  // namespace sx::core
