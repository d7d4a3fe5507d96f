// BatchRunner unit tests: bitwise agreement with StaticEngine when the
// pool runs one engine per worker, deterministic per-worker counters,
// engine arenas planned up front (the "no allocation / no thread spawn
// inside run()" evidence), argument validation and pipeline wiring: the
// pool runs the deployed safety channel, so infer_batch() matches infer()
// at every criticality.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dl/batch.hpp"
#include "engine_pool.hpp"
#include "obs/snapshot.hpp"
#include "safety/fault.hpp"
#include "supervise/metrics.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"
#include "verify/range.hpp"

namespace sx::dl {
namespace {

using sx::testing::EnginePool;
using tensor::Tensor;

/// Flattens samples [first, first+count) into one contiguous input buffer.
std::vector<float> stage_inputs(std::size_t first, std::size_t count) {
  const auto& ds = sx::testing::road_data();
  const std::size_t in_size = ds.input_shape.size();
  std::vector<float> flat(count * in_size);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = ds.samples[first + i].input.data();
    std::copy(src.begin(), src.end(), flat.begin() + i * in_size);
  }
  return flat;
}

TEST(BatchRunner, MatchesStaticEngineBitExactly) {
  const Model& m = sx::testing::trained_mlp();
  const std::size_t n = 24;
  const std::size_t out_size = m.output_shape().size();
  const auto flat = stage_inputs(0, n);

  StaticEngine serial{m};
  std::vector<float> ref(n * out_size);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(serial.run(sx::testing::road_data().samples[i].input.view(),
                         std::span<float>(ref).subspan(i * out_size,
                                                       out_size)),
              Status::kOk);

  for (const std::size_t workers : {1u, 2u, 4u, 7u}) {
    EnginePool pool{m, workers};
    std::vector<float> out(n * out_size, -1.0f);
    std::vector<Status> st(n, Status::kInvalidArgument);
    pool.run(flat, out, st);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(st[i], Status::kOk) << "item " << i;
    EXPECT_EQ(out, ref) << workers << " workers";
  }
}

TEST(BatchRunner, CountersAreScheduleIndependent) {
  const Model& m = sx::testing::trained_mlp();
  const std::size_t n = 21;  // not a multiple of the worker count
  const auto flat = stage_inputs(0, n);
  std::vector<float> out(n * m.output_shape().size());
  std::vector<Status> st(n);

  // Per-worker item counts follow only from the static partition.
  EnginePool pool{m, 4};
  for (int rep = 0; rep < 3; ++rep) pool.run(flat, out, st);
  const BatchRunner& runner = pool.runner();
  EXPECT_EQ(runner.batch_count(), 3u);
  EXPECT_EQ(runner.item_count(), 3u * n);
  EXPECT_EQ(pool.run_count(), 3u * n);
  EXPECT_EQ(pool.numeric_fault_count(), 0u);
  const std::uint64_t expected_items[] = {18, 15, 15, 15};  // ceil splits
  for (std::size_t w = 0; w < 4; ++w) {
    const BatchWorkerStats s = runner.worker_stats(w);
    EXPECT_EQ(s.items, expected_items[w]) << "worker " << w;
    // Worker w ran exactly its own items on its own engine.
    EXPECT_EQ(pool.engine(w).run_count(), expected_items[w])
        << "worker " << w;
    EXPECT_EQ(s.batches, 3u);
    EXPECT_EQ(pool.engine(w).numeric_fault_count(), 0u);
  }
}

TEST(BatchRunner, ArenasArePlannedUpFront) {
  // The certification argument for "no allocation inside run()": every
  // worker engine's arena is sized at configuration time and the
  // high-water mark never exceeds that plan, batch after batch.
  const Model& m = sx::testing::trained_cnn();
  EnginePool pool{m, 3};
  // Shape-derived demand: the liveness-colored activations under a
  // planned kernel mode, the ping-pong pair otherwise (verify/range
  // re-derives both from the model's layers, not from the plan's layout).
  const std::size_t planned = verify::check_engine(m, pool.engine(0)).required;
  for (std::size_t w = 0; w < pool.workers(); ++w) {
    EXPECT_EQ(pool.engine(w).arena_capacity(), planned);
    EXPECT_TRUE(verify::check_engine(m, pool.engine(w)).passed());
  }

  const std::size_t n = 9;
  const auto flat = stage_inputs(0, n);
  std::vector<float> out(n * m.output_shape().size());
  std::vector<Status> st(n);
  for (int rep = 0; rep < 5; ++rep) {
    pool.run(flat, out, st);
    for (std::size_t w = 0; w < pool.workers(); ++w) {
      EXPECT_EQ(pool.engine(w).arena_high_water_mark(), planned);
      EXPECT_EQ(pool.engine(w).arena_capacity(), planned);  // never regrows
    }
  }
}

TEST(BatchRunner, ValidatesArguments) {
  EXPECT_THROW(BatchRunner(BatchRunnerConfig{.workers = 0}),
               std::invalid_argument);
  // An empty batch is a no-op: the job never runs and nothing is counted.
  BatchRunner runner{BatchRunnerConfig{.workers = 2}};
  std::size_t calls = 0;
  auto job = [&](std::size_t) noexcept { ++calls; };
  runner.run(0, job);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(runner.batch_count(), 0u);
  EXPECT_EQ(runner.item_count(), 0u);
  EXPECT_THROW((void)runner.worker_stats(2), std::out_of_range);
}

TEST(BatchRunner, MoreWorkersThanItems) {
  const Model& m = sx::testing::trained_mlp();
  EnginePool pool{m, 8};
  const std::size_t n = 3;
  const auto flat = stage_inputs(0, n);
  std::vector<float> out(n * m.output_shape().size());
  std::vector<Status> st(n);
  pool.run(flat, out, st);
  EXPECT_EQ(pool.run_count(), n);
  for (std::size_t w = n; w < 8; ++w) {
    EXPECT_EQ(pool.runner().worker_stats(w).items, 0u);
    // Idle workers still took part in the dispatch barrier.
    EXPECT_EQ(pool.runner().worker_stats(w).batches, 1u);
  }
}

TEST(BatchRunner, PartitionZeroRunsOnTheCallerAlone) {
  // The caller runs partition 0: a one-item batch (or any batch on one
  // worker) dispatches nothing, and W workers own W - 1 threads.
  BatchRunner runner{BatchRunnerConfig{.workers = 4}};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(9);
  auto job = [&](std::size_t i) noexcept {
    ran_on[i] = std::this_thread::get_id();
  };
  runner.run(1, job);
  EXPECT_EQ(ran_on[0], caller);
  EXPECT_EQ(runner.worker_stats(0).batches, 1u);
  for (std::size_t w = 1; w < 4; ++w)
    EXPECT_EQ(runner.worker_stats(w).batches, 0u) << "worker " << w;

  runner.run(ran_on.size(), job);
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    // Worker 0's items run on the caller, the others on pool threads; an
    // item's thread is its worker's, batch after batch.
    EXPECT_EQ(ran_on[i] == caller, i % 4 == 0) << "item " << i;
    EXPECT_EQ(ran_on[i], ran_on[i % 4]) << "item " << i;
  }
  EXPECT_EQ(runner.batch_count(), 2u);
  EXPECT_EQ(runner.item_count(), 10u);

  BatchRunner single{BatchRunnerConfig{.workers = 1}};
  single.run(ran_on.size(), job);
  for (std::size_t i = 0; i < ran_on.size(); ++i)
    EXPECT_EQ(ran_on[i], caller) << "item " << i;
}

TEST(BatchRunner, EvidenceReportsCounters) {
  const Model& m = sx::testing::trained_mlp();
  EnginePool pool{m, 2};
  const std::size_t n = 6;
  const auto flat = stage_inputs(0, n);
  std::vector<float> out(n * m.output_shape().size());
  std::vector<Status> st(n);
  pool.run(flat, out, st);
  const core::EvidenceItem item =
      core::make_batch_runner_evidence(pool.runner());
  EXPECT_EQ(item.title, "Deterministic batch execution");
  EXPECT_NE(item.body.find("items: 6\n"), std::string::npos) << item.body;
  EXPECT_NE(item.body.find("worker 1: batches=1 items=3"), std::string::npos)
      << item.body;
}

// Every pipeline carries its batch pool: at 0 workers, as at 1, it has one
// partition, the caller's, so infer_batch() starts no thread and decides
// exactly as at 1 worker.
TEST(CertifiablePipeline, BatchDecisionsIdenticalAtZeroAndOneWorkers) {
  const auto& ds = sx::testing::road_data();
  std::vector<Tensor> burst;
  for (std::size_t i = 0; i < 12; ++i) burst.push_back(ds.samples[i].input);
  std::vector<std::vector<core::Decision>> runs;
  std::vector<std::string> heads;
  for (const std::size_t workers : {0u, 1u}) {
    core::PipelineConfig cfg;
    cfg.criticality = trace::Criticality::kSil2;
    cfg.batch_workers = workers;
    core::CertifiablePipeline p{sx::testing::trained_mlp(), ds, cfg};
    ASSERT_NE(p.batch_runner(), nullptr);
    EXPECT_EQ(p.batch_runner()->workers(), 1u);
    runs.push_back(p.infer_batch(burst, /*logical_time=*/1));
    EXPECT_EQ(p.batch_runner()->item_count(), burst.size());
    heads.push_back(util::to_hex(p.audit().head()));
  }
  ASSERT_EQ(runs[0].size(), burst.size());
  ASSERT_EQ(runs[1].size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const core::Decision& a = runs[0][i];
    const core::Decision& b = runs[1][i];
    EXPECT_EQ(a.status, b.status) << "item " << i;
    EXPECT_EQ(a.predicted_class, b.predicted_class) << "item " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a.confidence),
              std::bit_cast<std::uint32_t>(b.confidence))
        << "item " << i;
    EXPECT_EQ(a.degraded, b.degraded) << "item " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.supervisor_score),
              std::bit_cast<std::uint64_t>(b.supervisor_score))
        << "item " << i;
    EXPECT_EQ(a.audit_sequence, b.audit_sequence) << "item " << i;
  }
  EXPECT_EQ(heads[0], heads[1]);
}

TEST(CertifiablePipeline, BatchDecisionsIdenticalAcrossWorkerCounts) {
  const auto& ds = sx::testing::road_data();
  std::vector<Tensor> burst;
  for (std::size_t i = 0; i < 16; ++i) burst.push_back(ds.samples[i].input);

  std::vector<std::size_t> ref_classes;
  std::string ref_audit_head;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    core::PipelineConfig cfg;
    cfg.criticality = trace::Criticality::kSil2;
    cfg.batch_workers = workers;
    core::CertifiablePipeline p{sx::testing::trained_mlp(), ds, cfg};
    const auto decisions = p.infer_batch(burst, /*logical_time=*/1);
    ASSERT_EQ(decisions.size(), burst.size());
    std::vector<std::size_t> classes;
    for (const auto& d : decisions) {
      EXPECT_EQ(d.status, Status::kOk);
      classes.push_back(d.predicted_class);
    }
    ASSERT_EQ(p.batch_runner()->item_count(), burst.size());
    const std::string head = util::to_hex(p.audit().head());
    if (ref_classes.empty()) {
      ref_classes = classes;
      ref_audit_head = head;
    } else {
      EXPECT_EQ(classes, ref_classes) << workers << " workers";
      // The whole evidence trail — not just the outputs — is identical.
      EXPECT_EQ(head, ref_audit_head) << workers << " workers";
    }
  }
}

struct ParityCase {
  core::BackendKind backend;
  KernelMode kernels;
  trace::Criticality criticality = trace::Criticality::kSil2;
};

const char* kernels_name(KernelMode m) {
  return m == KernelMode::kAuto ? "auto" : "reference";
}

// Names the parameter in test listings instead of its raw bytes.
void PrintTo(const ParityCase& pc, std::ostream* os) {
  if (pc.criticality != trace::Criticality::kSil2)
    *os << trace::to_string(pc.criticality) << '/';
  *os << core::to_string(pc.backend) << '/' << kernels_name(pc.kernels);
}

class PipelineBatchParity : public ::testing::TestWithParam<ParityCase> {};

// infer() and infer_batch() run one decision sequence on the same deployed
// safety pattern: for the same inputs every Decision field — and the audit
// entries each decision leaves — must agree bit for bit, ODD rejections
// and (at SIL3/4) the safety bag's degradations included.
TEST_P(PipelineBatchParity, EveryDecisionFieldMatchesInfer) {
  const auto& ds = sx::testing::road_data();
  core::PipelineConfig cfg;
  cfg.criticality = GetParam().criticality;
  cfg.backend = GetParam().backend;
  cfg.kernel_mode = GetParam().kernels;
  // SIL3/4 demand a timing budget: one the measured time always meets.
  cfg.timing_budget = 1'000'000'000;
  cfg.batch_workers = 2;
  core::CertifiablePipeline batch{sx::testing::trained_mlp(), ds, cfg};
  cfg.batch_workers = 0;
  core::CertifiablePipeline serial{sx::testing::trained_mlp(), ds, cfg};
  ASSERT_EQ(batch.audit().size(), serial.audit().size());

  // In-ODD samples, every fifth one scaled out of the ODD box.
  std::vector<Tensor> burst;
  std::size_t scaled = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    Tensor x = ds.samples[i].input;
    if (i % 5 == 3) {
      for (std::size_t k = 0; k < x.size(); ++k) x.at(k) *= 25.0f;
      ++scaled;
    }
    burst.push_back(x);
  }
  // At SIL3/4 add more in-ODD samples, so that the bag's supervisor
  // rejects (and degrades) some of them.
  if (cfg.criticality != trace::Criticality::kSil2)
    for (std::size_t i = 20; i < 60; ++i) burst.push_back(ds.samples[i].input);
  // Sequence numbers are audit indices: the last deploy entry's comes
  // first, and each decision's step from its predecessor counts its entries.
  std::uint64_t prev_batch = batch.audit().size() - 1;
  std::uint64_t prev_serial = serial.audit().size() - 1;
  const std::uint64_t t = 7;
  const auto decisions = batch.infer_batch(burst, t);
  ASSERT_EQ(decisions.size(), burst.size());

  std::size_t odd_rejects = 0, decided = 0, degraded = 0;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const core::Decision s = serial.infer(burst[i], t);
    const core::Decision& b = decisions[i];
    EXPECT_EQ(b.status, s.status) << "item " << i;
    EXPECT_EQ(b.predicted_class, s.predicted_class) << "item " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(b.confidence),
              std::bit_cast<std::uint32_t>(s.confidence))
        << "item " << i;
    EXPECT_EQ(b.degraded, s.degraded) << "item " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.supervisor_score),
              std::bit_cast<std::uint64_t>(s.supervisor_score))
        << "item " << i;
    // Audit entries this decision added (its own plus any drift alarm).
    EXPECT_EQ(b.audit_sequence - prev_batch, s.audit_sequence - prev_serial)
        << "item " << i;
    // Same evidence text: the batch entry only prefixes its batch index.
    EXPECT_EQ(batch.audit().entry(b.audit_sequence).payload,
              "batch_index=" + std::to_string(i) + " " +
                  serial.audit().entry(s.audit_sequence).payload)
        << "item " << i;
    prev_batch = b.audit_sequence;
    prev_serial = s.audit_sequence;
    odd_rejects += b.status == Status::kOddViolation ? 1 : 0;
    decided += b.status == Status::kOk ? 1 : 0;
    degraded += b.status == Status::kOk && b.degraded ? 1 : 0;
  }
  if (cfg.criticality == trace::Criticality::kSil2) {
    EXPECT_EQ(odd_rejects, scaled);
  } else {
    EXPECT_GE(odd_rejects, scaled);  // the guard may refuse a sample
  }
  // The safety bag runs on the batch path: its supervisor verdict degrades
  // some in-ODD decisions there exactly as it does in infer().
  if (batch.spec().has_safety_bag) {
    EXPECT_GT(degraded, 0u);
  }
  EXPECT_EQ(batch.fallbacks(), serial.fallbacks());
  EXPECT_EQ(decided + odd_rejects, burst.size());
  EXPECT_EQ(batch.audit().size(), serial.audit().size());
  EXPECT_EQ(batch.decisions(), serial.decisions());
  EXPECT_EQ(batch.rejections(), serial.rejections());
}

INSTANTIATE_TEST_SUITE_P(
    Sil2, PipelineBatchParity,
    ::testing::Values(
        ParityCase{core::BackendKind::kFloat32, KernelMode::kAuto},
        ParityCase{core::BackendKind::kFloat32, KernelMode::kReference},
        ParityCase{core::BackendKind::kInt8, KernelMode::kAuto},
        ParityCase{core::BackendKind::kInt8, KernelMode::kReference}),
    [](const ::testing::TestParamInfo<ParityCase>& param_info) {
      const ParityCase& pc = param_info.param;
      return std::string(core::to_string(pc.backend)) + "_" +
             kernels_name(pc.kernels);
    });

// SIL3 deploys DMR and SIL4 diverse TMR, both inside the safety bag; the
// int8 backend stops at SIL2.
INSTANTIATE_TEST_SUITE_P(
    SafetyBag, PipelineBatchParity,
    ::testing::Values(ParityCase{core::BackendKind::kFloat32,
                                 KernelMode::kAuto, trace::Criticality::kSil3},
                      ParityCase{core::BackendKind::kFloat32,
                                 KernelMode::kReference,
                                 trace::Criticality::kSil3},
                      ParityCase{core::BackendKind::kFloat32,
                                 KernelMode::kAuto, trace::Criticality::kSil4},
                      ParityCase{core::BackendKind::kFloat32,
                                 KernelMode::kReference,
                                 trace::Criticality::kSil4}),
    [](const ::testing::TestParamInfo<ParityCase>& param_info) {
      const ParityCase& pc = param_info.param;
      return std::string(trace::to_string(pc.criticality)) + "_" +
             kernels_name(pc.kernels);
    });

// infer() and partition 0 of infer_batch() share channel 0: a fault
// injected through channel() reaches the items that partition runs, and
// the monitored pattern fail-stops them, while channel 1's items decide.
TEST(CertifiablePipeline, ChannelFaultFailStopsPartitionZero) {
  const auto& ds = sx::testing::road_data();
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  cfg.batch_workers = 2;
  core::CertifiablePipeline p{sx::testing::trained_mlp(), ds, cfg};
  const std::vector<Tensor> one{ds.samples[0].input};
  const std::vector<Tensor> two{ds.samples[0].input, ds.samples[0].input};
  ASSERT_EQ(p.infer_batch(one)[0].status, Status::kOk);

  // A stuck-large output bias drives its logit far outside the monitor's
  // envelope.
  safety::Replica& r = p.channel()->replica(0);
  const std::size_t last = r.model().layer_count() - 1;
  const std::size_t bias = r.model().layer(last).params().size() - 1;
  safety::FaultInjector injector{1};
  const safety::FaultRecord rec = injector.inject_at(
      r.model(), safety::FaultType::kStuckLarge, last, bias, 0);
  r.refresh();

  const core::Decision d = p.infer_batch(one)[0];
  EXPECT_EQ(d.status, Status::kNumericFault);
  EXPECT_TRUE(d.degraded);
  const std::vector<core::Decision> pair = p.infer_batch(two);
  EXPECT_EQ(pair[0].status, Status::kNumericFault);
  EXPECT_EQ(pair[1].status, Status::kOk);

  p.channel()->undo_fault(0, rec);
  EXPECT_EQ(p.infer_batch(one)[0].status, Status::kOk);
}

class PipelineScoreParity
    : public ::testing::TestWithParam<trace::Criticality> {};

// At SIL3/4 the safety bag takes each decision's one trust score inside the
// channel and the supervisor stage reuses it. That score must be the
// reference walk's bit for bit, the bag's verdict must be the threshold
// check on it, and the rejection counter must count exactly the bag's
// supervisor rejections.
TEST_P(PipelineScoreParity, BagScoreIsTheReferenceScore) {
  const auto& ds = sx::testing::road_data();
  const dl::Model& model = sx::testing::trained_mlp();
  core::PipelineConfig cfg;
  cfg.criticality = GetParam();
  // SIL3 with TMR rather than its minimum DMR; SIL4's minimum is already
  // diverse TMR. Both carry the safety bag.
  cfg.spec = core::recommended_spec(cfg.criticality);
  if (cfg.criticality == trace::Criticality::kSil3)
    cfg.spec->pattern = core::PatternKind::kTmr;
  cfg.timing_budget = 1'000'000'000;
  core::CertifiablePipeline p{model, ds, cfg};
  auto* bag = dynamic_cast<safety::SafetyBagChannel*>(p.channel());
  ASSERT_NE(bag, nullptr);
  EXPECT_EQ(p.spec().pattern, GetParam() == trace::Criticality::kSil3
                                  ? core::PatternKind::kTmr
                                  : core::PatternKind::kDiverseTmr);

  // The pipeline's supervisor, refitted: fit and calibration are
  // deterministic, so the reference walk here scores with the same bits.
  supervise::MahalanobisSupervisor ref;
  ref.fit(model, ds);
  ref.calibrate_threshold(supervise::collect_scores(ref, model, ds),
                          cfg.supervisor_tpr);

  const dl::Dataset ood =
      dl::corrupt(ds, dl::Corruption::kUniformRandom, 3);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < 24; ++i) {
    inputs.push_back(ds.samples[i].input);
    inputs.push_back(ood.samples[i].input);
  }
  std::uint64_t scored = 0, sup_rejections = 0, odd_rejections = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const core::Decision d = p.infer(inputs[i], i);
    if (d.status == Status::kOddViolation) {
      // Refused before the channel: the decision takes no score.
      EXPECT_EQ(d.supervisor_score, 0.0) << "item " << i;
      ++odd_rejections;
      continue;
    }
    ASSERT_EQ(d.status, Status::kOk) << "item " << i;
    ASSERT_TRUE(bag->last_score().has_value()) << "item " << i;
    ++scored;
    const double want = ref.score(model, inputs[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.supervisor_score),
              std::bit_cast<std::uint64_t>(want))
        << "item " << i;
    EXPECT_EQ(d.degraded, d.supervisor_score > ref.threshold())
        << "item " << i;
    sup_rejections += d.degraded ? 1 : 0;
  }
  // The guard refuses every uniform-noise input at SIL3/4; of the
  // in-distribution ones the supervisor accepts some and rejects some.
  EXPECT_EQ(odd_rejections, 24u);
  EXPECT_GT(sup_rejections, 0u);
  EXPECT_LT(sup_rejections, scored);
  EXPECT_EQ(bag->fallback_activations(), sup_rejections);
  const auto snap = obs::RegistrySnapshot::capture(*p.telemetry());
  EXPECT_EQ(snap.counter_value("sx_supervisor_rejections_total"),
            sup_rejections);
}

INSTANTIATE_TEST_SUITE_P(
    SafetyBag, PipelineScoreParity,
    ::testing::Values(trace::Criticality::kSil3, trace::Criticality::kSil4),
    [](const ::testing::TestParamInfo<trace::Criticality>& param_info) {
      return std::string(trace::to_string(param_info.param));
    });

}  // namespace
}  // namespace sx::dl
