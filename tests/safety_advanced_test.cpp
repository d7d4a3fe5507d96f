#include <gtest/gtest.h>

#include <cstring>

#include "dl/model.hpp"
#include "safety/deep_monitor.hpp"
#include "safety/fault.hpp"
#include "safety/integrity.hpp"
#include "safety/recovery.hpp"
#include "test_helpers.hpp"

namespace sx::safety {
namespace {

const dl::Model& model() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }

// ------------------------------------------------------- integrity guard

TEST(WeightIntegrity, CleanModelVerifies) {
  dl::Model deployed = model();
  WeightIntegrityGuard guard{model()};
  EXPECT_EQ(guard.verify(deployed), Status::kOk);
  EXPECT_EQ(guard.scrub(deployed), Status::kOk);
  EXPECT_EQ(guard.detections(), 0u);
}

TEST(WeightIntegrity, DetectsAndRepairsBitFlip) {
  dl::Model deployed = model();
  WeightIntegrityGuard guard{model()};
  FaultInjector injector{5};
  (void)injector.inject(deployed, FaultType::kBitFlip);
  EXPECT_EQ(guard.verify(deployed), Status::kIntegrityFault);
  EXPECT_EQ(guard.scrub(deployed), Status::kIntegrityFault);
  // Repaired: identical to golden again.
  EXPECT_EQ(guard.verify(deployed), Status::kOk);
  EXPECT_EQ(deployed.provenance_hash(), model().provenance_hash());
  EXPECT_EQ(guard.repaired_layers(), 1u);
}

TEST(WeightIntegrity, RepairsMultipleCorruptedLayers) {
  dl::Model deployed = model();
  WeightIntegrityGuard guard{model()};
  deployed.layer(1).params()[0] += 1.0f;
  deployed.layer(3).params()[0] += 1.0f;
  EXPECT_EQ(guard.scrub(deployed), Status::kIntegrityFault);
  EXPECT_EQ(guard.repaired_layers(), 2u);
  EXPECT_EQ(deployed.provenance_hash(), model().provenance_hash());
}

TEST(WeightIntegrity, MismatchedModelRejected) {
  dl::ModelBuilder b{tensor::Shape::vec(4)};
  b.dense(2);
  dl::Model other = b.build(1);
  WeightIntegrityGuard guard{model()};
  EXPECT_EQ(guard.verify(other), Status::kInvalidArgument);
}

TEST(WeightIntegrity, ScrubCountsAccumulate) {
  dl::Model deployed = model();
  WeightIntegrityGuard guard{model()};
  for (int i = 0; i < 5; ++i) (void)guard.scrub(deployed);
  EXPECT_EQ(guard.scrubs(), 5u);
}

// --------------------------------------------------------- deep monitor

TEST(DeepMonitor, AcceptsInDistribution) {
  DeepMonitoredChannel ch{model(), data(), 0.5f};
  std::vector<float> out(ch.output_size());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 50; ++i)
    if (!ok(ch.infer(data().samples[i].input.view(), out))) ++rejected;
  EXPECT_EQ(rejected, 0u);
}

TEST(DeepMonitor, CatchesLargeWeightCorruption) {
  DeepMonitoredChannel ch{model(), data(), 0.5f};
  ch.replica(0).model().layer(1).params()[3] += 100.0f;
  std::vector<float> out(ch.output_size());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 20; ++i)
    if (!ok(ch.infer(data().samples[i].input.view(), out))) ++rejected;
  EXPECT_GT(rejected, 15u);
}

TEST(DeepMonitor, LocalizesTheFaultyLayer) {
  DeepMonitoredChannel ch{model(), data(), 0.5f};
  // Corrupt the *second* dense layer (model layer index 3).
  ch.replica(0).model().layer(3).params()[0] += 100.0f;
  std::vector<float> out(ch.output_size());
  for (std::size_t i = 0; i < 20; ++i) {
    if (!ok(ch.infer(data().samples[i].input.view(), out))) {
      // Violation must fire at or after layer 3 — never before it.
      EXPECT_GE(ch.last_violation_layer(), 3u);
      return;
    }
  }
  FAIL() << "corruption never detected";
}

TEST(DeepMonitor, CatchesNaNInput) {
  DeepMonitoredChannel ch{model(), data(), 0.5f};
  tensor::Tensor bad = data().samples[0].input;
  bad.at(std::size_t{0}) = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> out(ch.output_size());
  EXPECT_EQ(ch.infer(bad.view(), out), Status::kNumericFault);
  EXPECT_GT(ch.violations(), 0u);
}

TEST(DeepMonitor, EnvelopesOrdered) {
  DeepMonitoredChannel ch{model(), data(), 0.5f};
  for (const auto& e : ch.envelopes()) EXPECT_LT(e.lo, e.hi);
}

TEST(DeepMonitor, ValidatesConstruction) {
  dl::Dataset empty;
  EXPECT_THROW(DeepMonitoredChannel(model(), empty), std::invalid_argument);
  EXPECT_THROW(DeepMonitoredChannel(model(), data(), -1.0f),
               std::invalid_argument);
}

// -------------------------------------------------------- recovery block

dl::Model alternate_model() {
  // Same architecture, different seed — a diverse alternate.
  dl::ModelBuilder b{data().input_shape};
  b.flatten().dense(32).relu().dense(16).relu().dense(dl::kRoadSceneClasses);
  dl::Model m = b.build(77);
  dl::Trainer t{dl::TrainConfig{.learning_rate = 0.02,
                                .epochs = 15,
                                .batch_size = 16,
                                .shuffle_seed = 91}};
  t.fit(m, data());
  return m;
}

TEST(RecoveryBlock, PrimaryHandlesNominalTraffic) {
  RecoveryBlockChannel ch{model(), alternate_model(), MonitorConfig{}};
  std::vector<float> out(ch.output_size());
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(ch.infer(data().samples[i].input.view(), out), Status::kOk);
  EXPECT_EQ(ch.recoveries(), 0u);
}

TEST(RecoveryBlock, AlternateTakesOverOnPrimaryFault) {
  RecoveryBlockChannel ch{model(), alternate_model(), MonitorConfig{}};
  // Poison the primary so its outputs go non-finite.
  ch.replica(0).model().layer(1).params()[0] =
      std::numeric_limits<float>::infinity();
  ch.replica(0).refresh();  // planned engines snapshot weights
  std::vector<float> out(ch.output_size());
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(ch.infer(data().samples[i].input.view(), out), Status::kOk)
        << "alternate must recover";
  EXPECT_EQ(ch.recoveries(), 10u);
  EXPECT_EQ(ch.double_failures(), 0u);
}

TEST(RecoveryBlock, DoubleFaultFailsStop) {
  RecoveryBlockChannel ch{model(), alternate_model(), MonitorConfig{}};
  ch.replica(0).model().layer(1).params()[0] =
      std::numeric_limits<float>::infinity();
  ch.replica(0).refresh();  // planned engines snapshot weights
  ch.replica(1).model().layer(1).params()[0] =
      std::numeric_limits<float>::infinity();
  ch.replica(1).refresh();  // planned engines snapshot weights
  std::vector<float> out(ch.output_size());
  EXPECT_EQ(ch.infer(data().samples[0].input.view(), out),
            Status::kRedundancyFault);
  EXPECT_EQ(ch.double_failures(), 1u);
}

TEST(RecoveryBlock, InjectedStuckLargeReachesPlannedEnginesAndUndoRestores) {
  // Linear blocks fed all-ones input: a +/-1e6 stuck-large weight or bias
  // anywhere drives its output past the acceptance range, so every trial
  // must engage the alternate. Planned engines snapshot weights, so the
  // fault is visible only if inject_fault repacks the faulted block.
  dl::ModelBuilder pb{tensor::Shape::vec(16)};
  pb.dense(5);
  const dl::Model primary = pb.build(41);
  dl::ModelBuilder ab{tensor::Shape::vec(16)};
  ab.dense(5);
  const dl::Model alternate = ab.build(42);
  tensor::Tensor in{tensor::Shape::vec(16)};
  for (float& v : in.data()) v = 1.0f;

  auto golden = [&](const dl::Model& m) {
    dl::StaticEngine e{m, {.kernels = dl::KernelMode::kReference}};
    std::vector<float> out(m.output_shape().size());
    EXPECT_EQ(e.run(in.view(), out), Status::kOk);
    return out;
  };
  const std::vector<float> want_primary = golden(primary);
  const std::vector<float> want_alternate = golden(alternate);

  for (const dl::KernelMode mode : dl::all_kernel_modes()) {
    RecoveryBlockChannel ch{primary, alternate, MonitorConfig{},
                            {.check_numeric_faults = true, .kernels = mode}};
    std::vector<float> out(ch.output_size());
    FaultInjector injector{2024};
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
      const FaultRecord rec =
          ch.inject_fault(injector, 0, FaultType::kStuckLarge);
      ASSERT_EQ(ch.infer(in.view(), out), Status::kOk);
      EXPECT_EQ(ch.recoveries(), trial + 1)
          << dl::kernel_mode_name(mode) << ": primary fault unobserved";
      EXPECT_EQ(0, std::memcmp(out.data(), want_alternate.data(),
                               out.size() * sizeof(float)))
          << dl::kernel_mode_name(mode) << ": alternate did not take over";

      ch.undo_fault(0, rec);
      ASSERT_EQ(ch.infer(in.view(), out), Status::kOk);
      EXPECT_EQ(ch.recoveries(), trial + 1);
      EXPECT_EQ(0, std::memcmp(out.data(), want_primary.data(),
                               out.size() * sizeof(float)))
          << dl::kernel_mode_name(mode) << ": undo_fault did not restore";
    }
    EXPECT_EQ(ch.double_failures(), 0u);
  }
}

TEST(RecoveryBlock, RejectsShapeMismatchedAlternate) {
  dl::ModelBuilder b{tensor::Shape::vec(8)};
  b.dense(2);
  dl::Model tiny = b.build(1);
  EXPECT_THROW(RecoveryBlockChannel(model(), tiny, MonitorConfig{}),
               std::invalid_argument);
}

TEST(RecoveryBlock, AcceptanceMarginEngagesAlternate) {
  // Tight decision-margin acceptance: ambiguous primary outputs trigger
  // the alternate at least sometimes.
  MonitorConfig acceptance;
  acceptance.min_decision_margin = 0.9f;
  RecoveryBlockChannel ch{model(), alternate_model(), acceptance};
  std::vector<float> out(ch.output_size());
  for (std::size_t i = 0; i < 100; ++i)
    (void)ch.infer(data().samples[i].input.view(), out);
  EXPECT_GT(ch.recoveries(), 0u);
}

}  // namespace
}  // namespace sx::safety
