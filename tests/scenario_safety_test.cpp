// Recovery-block and weight-integrity patterns exercised under the
// scenario machinery: the trained digit workload, scenario perturbations
// as the probe stream, live fault injection between inferences, and the
// panel-snapshot (kWide) execution config the safety channels keep in
// sync (StaticEngine::repack after weight mutation).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "dl/engine.hpp"
#include "safety/fault.hpp"
#include "safety/integrity.hpp"
#include "safety/recovery.hpp"
#include "scenario/scenario.hpp"
#include "scenario/workload.hpp"

namespace sx::scenario {
namespace {

const DigitWorkload& workload() {
  static const DigitWorkload w = make_digit_workload();
  return w;
}

/// An alternate (diverse) digit model: same data, different init seed and
/// shorter schedule — the recovery block's second opinion.
const dl::Model& alternate_model() {
  static const dl::Model alt = [] {
    DigitWorkloadConfig cfg;
    cfg.model_seed = 4242;
    cfg.train.epochs = 6;
    cfg.train.shuffle_seed = 29;
    // The alternate only needs to be serviceable, not golden.
    cfg.min_train_accuracy = 0.7;
    cfg.min_test_accuracy = 0.6;
    cfg.min_int8_accuracy = 0.5;
    return make_digit_workload(cfg).model;
  }();
  return alt;
}

dl::Layer& first_param_layer(dl::Model& m) {
  for (std::size_t i = 0; i < m.layer_count(); ++i)
    if (!m.layer(i).params().empty()) return m.layer(i);
  throw std::logic_error("no parameterized layer");
}

/// Perturbed probe stream straight from the scenario axis.
const dl::Dataset& noisy_probes() {
  static const dl::Dataset ds = apply_perturbation(
      workload().test, {PerturbationKind::kNoise, 0.15f}, /*seed=*/31);
  return ds;
}

// ---------------------------------------------------------- recovery block

TEST(ScenarioRecovery, DegradedEntryAndExitUnderLiveFault) {
  safety::MonitorConfig acceptance;  // finite outputs within +-1e4
  safety::RecoveryBlockChannel ch{workload().model, alternate_model(),
                                  acceptance};
  const std::size_t n = 24;
  std::vector<float> out(ch.output_size());

  // Clean phase: the primary passes its acceptance test; the alternate
  // never engages.
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(ch.infer(noisy_probes().samples[i].input.view(), out),
              Status::kOk);
  EXPECT_EQ(ch.recoveries(), 0u);
  EXPECT_EQ(ch.double_failures(), 0u);

  // Degraded entry: poison the primary replica with a weight large enough
  // to blow the output envelope on every probe. The channel must stay
  // operational (kOk) by engaging the alternate each time.
  float& weight = first_param_layer(ch.replica(0).model()).params()[0];
  const float golden_weight = weight;
  weight = 1e9f;
  ch.replica(0).refresh();  // planned engines snapshot weights
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(ch.infer(noisy_probes().samples[i].input.view(), out),
              Status::kOk)
        << "recovery block must stay operational under a primary fault";
  EXPECT_EQ(ch.recoveries(), static_cast<std::uint64_t>(n));

  // Degraded exit: restoring the primary weight must return the channel
  // to the primary path — the recovery counter freezes.
  weight = golden_weight;
  ch.replica(0).refresh();
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(ch.infer(noisy_probes().samples[i].input.view(), out),
              Status::kOk);
  EXPECT_EQ(ch.recoveries(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(ch.double_failures(), 0u);
}

TEST(ScenarioRecovery, InjectorDrivenFaultsNeverFailStopSilently) {
  safety::MonitorConfig acceptance;
  safety::RecoveryBlockChannel ch{workload().model, alternate_model(),
                                  acceptance};
  safety::FaultInjector injector{/*seed=*/12021};
  std::vector<float> out(ch.output_size());
  // Scenario-style campaign loop: inject into either replica, probe, undo.
  for (std::size_t f = 0; f < 12; ++f) {
    const std::size_t target = f % ch.replica_count();
    const safety::FaultRecord rec =
        ch.inject_fault(injector, target, safety::FaultType::kStuckLarge);
    for (std::size_t i = 0; i < 4; ++i) {
      const Status st = ch.infer(noisy_probes().samples[i].input.view(), out);
      // A single-replica fault is either absorbed (primary still accepted),
      // recovered (alternate engaged) or an explicit fail-stop — and a
      // fail-stop is only legitimate when BOTH blocks failed acceptance.
      if (st != Status::kOk) {
        EXPECT_GT(ch.double_failures(), 0u)
            << "non-OK status without a recorded double failure";
      }
    }
    ch.undo_fault(target, rec);
  }
  // Faults were undone each round: the channel is clean again.
  const std::uint64_t recoveries_before = ch.recoveries();
  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_EQ(ch.infer(noisy_probes().samples[i].input.view(), out),
              Status::kOk);
  EXPECT_EQ(ch.recoveries(), recoveries_before);
}

// ------------------------------------------------------- weight integrity

TEST(ScenarioIntegrity, GuardRepairsLiveFaultsUnderPackedKernels) {
  const dl::Model& golden = workload().model;
  safety::WeightIntegrityGuard guard{golden};
  dl::Model deployed = golden;  // the copy faults land in

  // Planned engine over the deployed copy: weights are snapshotted into
  // wide panels, the exact configuration where stale packs hide
  // corruption.
  dl::StaticEngine engine{
      deployed, {.check_numeric_faults = false, .kernels = dl::KernelMode::kWide}};
  const std::size_t n = 12;
  const std::size_t out_size = golden.output_shape().size();
  std::vector<float> baseline(n * out_size), probe(out_size);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(engine.run(noisy_probes().samples[i].input.view(),
                         std::span<float>(baseline).subspan(i * out_size,
                                                            out_size)),
              Status::kOk);
  }
  ASSERT_EQ(guard.verify(deployed), Status::kOk);

  // Faults go live while inference continues (no undo): the guard is the
  // only repair mechanism in this cell.
  safety::FaultInjector injector{/*seed=*/77007};
  for (int f = 0; f < 3; ++f)
    (void)injector.inject(deployed, safety::FaultType::kStuckLarge);
  engine.repack();  // deployed bits changed; panels must follow
  EXPECT_EQ(guard.verify(deployed), Status::kIntegrityFault);

  // Scrub detects and repairs every corrupted layer...
  EXPECT_EQ(guard.scrub(deployed), Status::kIntegrityFault);
  EXPECT_GE(guard.detections(), 1u);
  EXPECT_GE(guard.repaired_layers(), 1u);
  EXPECT_EQ(guard.verify(deployed), Status::kOk);
  EXPECT_EQ(guard.scrub(deployed), Status::kOk) << "second scrub not clean";

  // ...and after a repack the planned engine is bitwise back on the golden
  // decision stream: repair + repack == never faulted.
  engine.repack();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(engine.run(noisy_probes().samples[i].input.view(), probe),
              Status::kOk);
    for (std::size_t j = 0; j < out_size; ++j)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(probe[j]),
                std::bit_cast<std::uint32_t>(baseline[i * out_size + j]))
          << "probe " << i << " logit " << j
          << " not bitwise restored after scrub+repack";
  }
}

TEST(ScenarioIntegrity, AuditChainStaysVerifiableWhileFaultsAreLive) {
  // The audit chain must remain tamper-evident *and* verifiable while a
  // campaign fault is live inside the deployed channel — decisions taken
  // in the degraded window are evidence, not a gap in the record.
  const DigitWorkload& w = workload();
  ScenarioConfig cfg;
  core::PipelineConfig pc;
  pc.criticality = cfg.criticality;
  pc.spec = ScenarioSweeper{w.model, w.train, w.test, cfg}.config().spec;
  pc.kernel_mode = dl::KernelMode::kWide;  // the staleness-hazard config
  core::CertifiablePipeline pipe{w.model, w.train, pc};
  ASSERT_FALSE(pipe.verification_refused());

  const std::size_t n = 8;
  for (std::size_t i = 0; i < n; ++i)
    (void)pipe.infer(noisy_probes().samples[i].input, /*logical_time=*/i);
  ASSERT_EQ(pipe.audit().verify(), Status::kOk);
  const std::size_t clean_entries = pipe.audit().size();
  ASSERT_GT(clean_entries, 0u);

  // Fault goes live through the channel (which repacks the panels); the
  // pipeline keeps deciding and the chain keeps extending verifiably.
  safety::FaultInjector injector{/*seed=*/4711};
  const safety::FaultRecord rec = pipe.channel()->inject_fault(
      injector, 0, safety::FaultType::kStuckLarge);
  for (std::size_t i = 0; i < n; ++i)
    (void)pipe.infer(noisy_probes().samples[i].input,
                     /*logical_time=*/n + i);
  EXPECT_EQ(pipe.audit().verify(), Status::kOk)
      << "audit chain must verify while the fault is live";
  EXPECT_GT(pipe.audit().size(), clean_entries)
      << "degraded-window decisions must still be recorded";

  pipe.channel()->undo_fault(0, rec);
  (void)pipe.infer(noisy_probes().samples[0].input, /*logical_time=*/2 * n);
  EXPECT_EQ(pipe.audit().verify(), Status::kOk);

  // And the verification is not vacuous: altering a recorded entry from the
  // faulted window must break the chain. (Test-only mutation hook.)
  auto& log = const_cast<trace::AuditLog&>(pipe.audit());
  log.tamper_payload_for_test(clean_entries, "rewritten history");
  EXPECT_EQ(log.verify(), Status::kIntegrityFault);
}

TEST(ScenarioIntegrity, StaleParkedPanelsAreDetectableWithoutRepack) {
  // The inverse property: WITHOUT repack, a planned engine keeps computing
  // on the pre-fault snapshot. This is exactly the staleness the safety
  // channels now guard against by repacking inside inject_fault/undo_fault
  // — here it is asserted directly as documentation of the hazard.
  const dl::Model& golden = workload().model;
  dl::Model deployed = golden;
  dl::StaticEngine engine{
      deployed, {.check_numeric_faults = false, .kernels = dl::KernelMode::kWide}};
  std::vector<float> before(golden.output_shape().size());
  std::vector<float> after(golden.output_shape().size());
  const auto& input = noisy_probes().samples[0].input;
  ASSERT_EQ(engine.run(input.view(), before), Status::kOk);

  // Corrupt a dense weight in the live model only (conv weights are read
  // live, so only the Dense panels can go stale).
  dl::Dense* dense = nullptr;
  for (std::size_t i = 0; i < deployed.layer_count() && dense == nullptr; ++i)
    if (deployed.layer(i).kind() == dl::LayerKind::kDense)
      dense = &static_cast<dl::Dense&>(deployed.layer(i));
  ASSERT_NE(dense, nullptr);
  for (float& w : dense->weights()) w = 1e9f;
  ASSERT_EQ(engine.run(input.view(), after), Status::kOk);
  bool identical = true;
  for (std::size_t j = 0; j < before.size(); ++j)
    identical = identical && std::bit_cast<std::uint32_t>(before[j]) ==
                                 std::bit_cast<std::uint32_t>(after[j]);
  EXPECT_TRUE(identical)
      << "packed panels unexpectedly observed a live-weight mutation";

  // repack() publishes the corruption to the panels.
  engine.repack();
  ASSERT_EQ(engine.run(input.view(), after), Status::kOk);
  bool changed = false;
  for (std::size_t j = 0; j < before.size(); ++j)
    changed = changed || std::bit_cast<std::uint32_t>(before[j]) !=
                             std::bit_cast<std::uint32_t>(after[j]);
  EXPECT_TRUE(changed) << "repack did not publish the mutated weight";
}

}  // namespace
}  // namespace sx::scenario
