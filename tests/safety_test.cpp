#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "safety/campaign.hpp"
#include "safety/channel.hpp"
#include "safety/fault.hpp"
#include "safety/monitor.hpp"
#include "safety/recovery.hpp"
#include "safety/watchdog.hpp"
#include "supervise/metrics.hpp"
#include "test_helpers.hpp"

namespace sx::safety {
namespace {

using tensor::Shape;
using tensor::Tensor;

const dl::Model& model() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }
/// One quantized twin of the shared MLP, calibrated on the shared dataset:
/// the int8 channels' and the diverse voter's model.
const dl::QuantizedModel& quantized_model() {
  static const dl::QuantizedModel qm =
      dl::QuantizedModel::quantize(model(), data());
  return qm;
}

// ----------------------------------------------------------------- monitor

TEST(Monitor, AcceptsNormalOutput) {
  SafetyMonitor mon{MonitorConfig{}};
  const std::vector<float> logits{1.0f, -2.0f, 0.5f, 0.1f};
  EXPECT_EQ(mon.check_output(logits), Status::kOk);
  EXPECT_EQ(mon.rejections(), 0u);
}

TEST(Monitor, RejectsNaN) {
  SafetyMonitor mon{MonitorConfig{}};
  const std::vector<float> logits{1.0f,
                                  std::numeric_limits<float>::quiet_NaN()};
  EXPECT_EQ(mon.check_output(logits), Status::kNumericFault);
  EXPECT_EQ(mon.rejections(), 1u);
}

TEST(Monitor, RejectsOutOfEnvelope) {
  SafetyMonitor mon{MonitorConfig{.output_min = -10, .output_max = 10}};
  const std::vector<float> logits{1.0f, 1e6f};
  EXPECT_EQ(mon.check_output(logits), Status::kNumericFault);
}

TEST(Monitor, DecisionMarginRejectsAmbiguity) {
  SafetyMonitor mon{MonitorConfig{.min_decision_margin = 0.2f}};
  const std::vector<float> ambiguous{1.0f, 1.0f};
  EXPECT_EQ(mon.check_output(ambiguous), Status::kSupervisorReject);
  const std::vector<float> confident{5.0f, -5.0f};
  EXPECT_EQ(mon.check_output(confident), Status::kOk);
}

TEST(Monitor, InputRangeCheck) {
  SafetyMonitor mon{MonitorConfig{
      .check_input_range = true, .input_min = 0.0f, .input_max = 1.0f}};
  Tensor in{Shape::vec(3), {0.5f, 0.7f, 1.5f}};
  EXPECT_EQ(mon.check_input(in.view()), Status::kOddViolation);
}

// ------------------------------------------------------------------ faults

TEST(FaultInjector, BitFlipIsReversible) {
  dl::Model m = model();
  const auto hash_before = m.provenance_hash();
  FaultInjector inj{9};
  const FaultRecord rec = inj.inject(m, FaultType::kBitFlip);
  EXPECT_NE(m.provenance_hash(), hash_before);
  FaultInjector::restore(m, rec);
  EXPECT_EQ(m.provenance_hash(), hash_before);
}

TEST(FaultInjector, FlipBitTwiceIsIdentity) {
  const float v = 1.2345f;
  for (int b = 0; b < 32; ++b) EXPECT_EQ(flip_bit(flip_bit(v, b), b), v);
}

TEST(FaultInjector, StuckFaultsSetExpectedValues) {
  dl::Model m = model();
  FaultInjector inj{4};
  const FaultRecord z = inj.inject(m, FaultType::kStuckZero);
  EXPECT_EQ(m.layer(z.layer).params()[z.param_index], 0.0f);
  FaultInjector::restore(m, z);
  const FaultRecord l = inj.inject(m, FaultType::kStuckLarge);
  EXPECT_EQ(std::fabs(m.layer(l.layer).params()[l.param_index]), 1e6f);
  FaultInjector::restore(m, l);
}

TEST(FaultInjector, TargetedInjection) {
  dl::Model m = model();
  FaultInjector inj{4};
  const FaultRecord rec = inj.inject_at(m, FaultType::kBitFlip, 1, 3, 30);
  EXPECT_EQ(rec.layer, 1u);
  EXPECT_EQ(rec.param_index, 3u);
  EXPECT_NE(rec.before, rec.after);
  FaultInjector::restore(m, rec);
}

// ---------------------------------------------------------------- channels

TEST(SingleChannel, MatchesModelForward) {
  EngineChannel ch{Replica{model()}};
  EXPECT_EQ(ch.pattern_name(), "single");
  std::vector<float> out(ch.output_size());
  ASSERT_EQ(ch.infer(data().samples[0].input.view(), out), Status::kOk);
  const Tensor ref = model().forward(data().samples[0].input);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], ref.at(i));
}

TEST(SingleChannel, ReplicaIsIndependentCopy) {
  EngineChannel ch{Replica{model()}};
  ch.replica(0).model().layer(1).params()[0] += 100.0f;
  ch.replica(0).refresh();  // planned engines snapshot weights
  // The original shared model is untouched.
  EngineChannel fresh{Replica{model()}};
  std::vector<float> a(ch.output_size()), b(ch.output_size());
  ASSERT_EQ(ch.infer(data().samples[0].input.view(), a), Status::kOk);
  ASSERT_EQ(fresh.infer(data().samples[0].input.view(), b), Status::kOk);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs |= (a[i] != b[i]);
  EXPECT_TRUE(differs);
}

TEST(DmrChannel, DetectsSingleReplicaCorruption) {
  DmrChannel ch{model()};
  // Large corruption in replica 0 only.
  ch.replica(0).model().layer(1).params()[10] += 50.0f;
  ch.replica(0).refresh();  // planned engines snapshot weights
  std::vector<float> out(ch.output_size());
  std::size_t detected = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    if (ch.infer(data().samples[i].input.view(), out) ==
        Status::kRedundancyFault)
      ++detected;
  }
  EXPECT_GT(detected, 15u) << "DMR should flag nearly every inference";
}

TEST(DmrChannel, AgreesWhenHealthy) {
  DmrChannel ch{model()};
  std::vector<float> out(ch.output_size());
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(ch.infer(data().samples[i].input.view(), out), Status::kOk);
  EXPECT_EQ(ch.divergences(), 0u);
}

TEST(TmrChannel, MasksSingleReplicaCorruption) {
  TmrChannel ch{model()};
  ch.replica(0).model().layer(1).params()[10] += 50.0f;
  ch.replica(0).refresh();  // planned engines snapshot weights
  std::vector<float> out(ch.output_size());
  EngineChannel golden{Replica{model()}};
  std::vector<float> ref(golden.output_size());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_EQ(golden.infer(data().samples[i].input.view(), ref), Status::kOk);
    const Status st = ch.infer(data().samples[i].input.view(), out);
    if (st == Status::kOk) {
      std::size_t a = 0, b = 0;
      for (std::size_t k = 1; k < out.size(); ++k) {
        if (out[k] > out[a]) a = k;
        if (ref[k] > ref[b]) b = k;
      }
      correct += (a == b) ? 1 : 0;
    }
  }
  EXPECT_GT(correct, 18u) << "TMR should mask the faulty replica";
  EXPECT_GT(ch.masked_votes(), 0u);
}

TEST(TmrChannel, SurvivesNaNReplica) {
  TmrChannel ch{model()};
  ch.replica(1).model().layer(1).params()[0] =
      std::numeric_limits<float>::quiet_NaN();
  ch.replica(1).refresh();  // planned engines snapshot weights
  std::vector<float> out(ch.output_size());
  EXPECT_EQ(ch.infer(data().samples[0].input.view(), out), Status::kOk);
}

TEST(TmrChannel, FailsWithTwoBadReplicas) {
  TmrChannel ch{model()};
  ch.replica(0).model().layer(1).params()[0] =
      std::numeric_limits<float>::quiet_NaN();
  ch.replica(0).refresh();  // planned engines snapshot weights
  ch.replica(1).model().layer(1).params()[0] =
      std::numeric_limits<float>::quiet_NaN();
  ch.replica(1).refresh();  // planned engines snapshot weights
  std::vector<float> out(ch.output_size());
  EXPECT_EQ(ch.infer(data().samples[0].input.view(), out),
            Status::kRedundancyFault);
}

TEST(DiverseTmrChannel, HealthyMajorityAgreesWithFloat) {
  DiverseTmrChannel ch{model(), quantized_model()};
  EngineChannel golden{Replica{model()}};
  std::vector<float> out(ch.output_size()), ref(ch.output_size());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    ASSERT_EQ(ch.infer(data().samples[i].input.view(), out), Status::kOk);
    ASSERT_EQ(golden.infer(data().samples[i].input.view(), ref), Status::kOk);
    std::size_t a = 0, b = 0;
    for (std::size_t k = 1; k < out.size(); ++k) {
      if (out[k] > out[a]) a = k;
      if (ref[k] > ref[b]) b = k;
    }
    agree += (a == b) ? 1 : 0;
  }
  EXPECT_GT(agree, 27u);
}

TEST(DiverseTmrChannel, Int8ReplicaIsThePlannedReferenceModel) {
  // Replica 2 runs the planned int8 engine: its logits and per-layer clip
  // counters are bitwise those of QuantizedModel::run, so moving it off the
  // reference loops changes no vote.
  DiverseTmrChannel ch{model(), quantized_model(), dl::KernelMode::kWide};
  ASSERT_EQ(ch.replica_count(), 3u);
  Replica& q = ch.replica(2);
  ASSERT_EQ(q.elem(), dl::ElemType::kInt8);
  ASSERT_NE(q.engine().plan(), nullptr);
  dl::QuantizedModel ref = dl::QuantizedModel::quantize(model(), data());
  std::vector<float> out(ch.output_size()), expect(ch.output_size());
  for (std::size_t i = 0; i < 40; ++i) {
    const auto in = data().samples[i].input.view();
    ASSERT_EQ(q.run(in, out), Status::kOk);
    ASSERT_EQ(ref.run(in, expect), Status::kOk);
    for (std::size_t k = 0; k < out.size(); ++k)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[k]),
                std::bit_cast<std::uint32_t>(expect[k]))
          << "probe " << i << " logit " << k;
  }
  const auto got = q.engine().saturation_counts();
  const auto want = ref.saturation_counts();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l)
    EXPECT_EQ(got[l], want[l]) << "layer " << l;
}

TEST(DiverseTmrChannel, InjectedInt8FaultIsOutvoted) {
  // The int8 voter is injectable replica 2: a stuck-large fault in its
  // weight store flips its argmax on some probes, the two float replicas
  // outvote it, and the emitted logits stay the float majority's. The CNN:
  // the MLP's confident argmax survives every such single fault.
  DiverseTmrChannel ch{
      sx::testing::trained_cnn(),
      dl::QuantizedModel::quantize(sx::testing::trained_cnn(), data())};
  EngineChannel golden{Replica{sx::testing::trained_cnn()}};
  std::vector<float> out(ch.output_size()), ref(ch.output_size());
  FaultInjector injector{7};
  for (int trial = 0; trial < 48; ++trial) {
    const FaultRecord rec =
        ch.inject_fault(injector, 2, FaultType::kStuckLarge);
    EXPECT_TRUE(rec.quantized);
    for (std::size_t i = 0; i < 40; ++i) {
      const auto in = data().samples[i].input.view();
      ASSERT_EQ(ch.infer(in, out), Status::kOk);
      ASSERT_EQ(golden.infer(in, ref), Status::kOk);
      for (std::size_t k = 0; k < out.size(); ++k)
        ASSERT_EQ(out[k], ref[k]) << "trial " << trial << " probe " << i;
    }
    ch.undo_fault(2, rec);
  }
  EXPECT_GT(ch.masked_votes(), 0u)
      << "no int8-replica fault ever reached the vote";
}

// ------------------------------------------------------- the vote's rules

// Every (status, argmax) combination of diverse-TMR's three voters, against
// the rule spelled out: the winner is the lowest float replica whose vote
// another live voter shares. Whenever any two live voters agree, a float
// replica carries the majority — the int8 replica never does alone.
TEST(DiverseVote, EveryStatusAndArgmaxCombination) {
  const std::size_t votes[] = {0, 1, 2, kNoVote};  // kNoVote: engine failed
  std::size_t combos = 0;
  for (const std::size_t a0 : votes)
    for (const std::size_t a1 : votes)
      for (const std::size_t aq : votes) {
        const std::size_t a[3] = {a0, a1, aq};
        const auto shares = [&](std::size_t k) {
          if (a[k] == kNoVote) return false;
          for (std::size_t j = 0; j < 3; ++j)
            if (j != k && a[j] == a[k]) return true;
          return false;
        };
        const std::size_t want = shares(0)   ? 0
                                 : shares(1) ? 1
                                             : kNoVote;
        EXPECT_EQ(diverse_vote(a0, a1, aq), want)
            << a0 << "," << a1 << "," << aq;
        if (shares(2)) {
          EXPECT_NE(want, kNoVote) << a0 << "," << a1;
        }
        ++combos;
      }
  EXPECT_EQ(combos, 64u);
}

// ---------------------------------------------------------- the tap source

/// The reference walk's features at the supervisor's layer.
std::vector<float> walk_features(const dl::Model& m, const Tensor& in) {
  const auto acts = m.forward_trace(in);
  const auto f = acts.at(dl::feature_layer(m)).data();
  return {f.begin(), f.end()};
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

/// Writes a fault into replica `r`'s first Dense layer, before the
/// supervisor's feature layer, so it reaches both logits and tap.
void corrupt_replica(InferenceChannel& ch, std::size_t r, float delta) {
  ch.replica(r).model().layer(1).params()[10] += delta;
  ch.replica(r).refresh();
}

TEST(TapSource, EngineChannelTapsItsReplica) {
  EngineChannel ch{Replica{model()}};
  ASSERT_EQ(ch.tap_size(),
            walk_features(model(), data().samples[0].input).size());
  std::vector<float> out(ch.output_size()), tap(ch.tap_size());
  const Tensor& in = data().samples[0].input;
  ASSERT_EQ(ch.infer(in.view(), out, tap), Status::kOk);
  EXPECT_TRUE(same_bits(tap, walk_features(model(), in)));
  // The tap is the replica's own: its fault reaches the features.
  corrupt_replica(ch, 0, 5.0f);
  ASSERT_EQ(ch.infer(in.view(), out, tap), Status::kOk);
  EXPECT_TRUE(same_bits(tap, walk_features(ch.replica(0).model(), in)));
  EXPECT_FALSE(same_bits(tap, walk_features(model(), in)));
  std::vector<float> short_tap(tap.size() - 1);
  EXPECT_EQ(ch.infer(in.view(), out, short_tap), Status::kShapeMismatch);
}

TEST(TapSource, DmrTapsReplicaZeroOnceTheComparisonPasses) {
  const Tensor& in = data().samples[0].input;
  // A loose tolerance lets a faulted replica pass the comparison, so the
  // tap shows which replica it came from.
  for (const std::size_t faulted : {0u, 1u}) {
    DmrChannel ch{model(), dl::KernelMode::kAuto, /*tolerance=*/1e9f};
    corrupt_replica(ch, faulted, 5.0f);
    std::vector<float> out(ch.output_size()), tap(ch.tap_size());
    ASSERT_EQ(ch.infer(in.view(), out, tap), Status::kOk);
    EXPECT_TRUE(same_bits(tap, walk_features(ch.replica(0).model(), in)))
        << "faulted replica " << faulted;
  }
  DmrChannel strict{model()};
  corrupt_replica(strict, 0, 50.0f);
  std::vector<float> out(strict.output_size()), tap(strict.tap_size());
  EXPECT_EQ(strict.infer(in.view(), out, tap), Status::kRedundancyFault);
}

// A fault in any one TMR replica leaves the tap, and so the score, bitwise
// the clean one: the tap comes from a replica that reproduces the vote.
TEST(TapSource, TmrFaultInOneReplicaLeavesTheScoreBitEqual) {
  supervise::MahalanobisSupervisor sup;
  sup.fit(model(), data());
  sup.calibrate_threshold(supervise::collect_scores(sup, model(), data()),
                          0.95);
  supervise::TapScorer scorer{sup};
  for (const std::size_t faulted : {0u, 1u, 2u}) {
    TmrChannel ch{model()};
    corrupt_replica(ch, faulted, 50.0f);
    std::vector<float> out(ch.output_size()), tap(ch.tap_size());
    for (std::size_t i = 0; i < 20; ++i) {
      const Tensor& in = data().samples[i].input;
      ASSERT_EQ(ch.infer(in.view(), out, tap), Status::kOk);
      ASSERT_TRUE(same_bits(tap, walk_features(model(), in)))
          << "faulted replica " << faulted << ", sample " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scorer.score(tap)),
                std::bit_cast<std::uint64_t>(sup.score(model(), in)));
    }
    EXPECT_GT(ch.masked_votes(), 0u) << "faulted replica " << faulted;
  }
  // Two faulty replicas (beyond the single-fault hypothesis): the tap
  // never changes the vote. Tapped and untapped calls give the same status
  // and logits; the tap is the first replica within tolerance of the vote,
  // else the one nearest it.
  TmrChannel ch{model()};
  corrupt_replica(ch, 0, 50.0f);
  corrupt_replica(ch, 1, -50.0f);
  std::vector<float> out(ch.output_size()), tap(ch.tap_size());
  std::vector<float> plain(ch.output_size());
  for (std::size_t i = 0; i < 20; ++i) {
    const Tensor& in = data().samples[i].input;
    const Status tapped = ch.infer(in.view(), out, tap);
    ASSERT_EQ(tapped, ch.infer(in.view(), plain)) << "sample " << i;
    ASSERT_TRUE(same_bits(out, plain)) << "sample " << i;
    if (!ok(tapped)) continue;
    std::size_t source = 3;
    float best = std::numeric_limits<float>::infinity();
    for (std::size_t k = 0; k < 3; ++k) {
      const tensor::Tensor logits = ch.replica(k).model().forward(in);
      float d = 0.0f;
      for (std::size_t j = 0; j < out.size(); ++j)
        d = std::max(d, std::fabs(logits.data()[j] - out[j]));
      if (d <= 1e-5f) {
        source = k;
        break;
      }
      if (d < best) {
        best = d;
        source = k;
      }
    }
    EXPECT_TRUE(same_bits(tap, walk_features(ch.replica(source).model(), in)))
        << "sample " << i;
  }
}

TEST(TapSource, DiverseTmrTapsTheFloatReplicaItEmits) {
  DiverseTmrChannel ch{model(), quantized_model()};
  // Replica 0 faulted hard enough to lose the vote: logits and tap then
  // come from replica 1, bitwise the clean model's.
  corrupt_replica(ch, 0, 500.0f);
  EngineChannel golden{Replica{model()}};
  std::vector<float> out(ch.output_size()), tap(ch.tap_size());
  std::vector<float> ref(ch.output_size());
  std::size_t from_replica1 = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    const Tensor& in = data().samples[i].input;
    ASSERT_EQ(ch.infer(in.view(), out, tap), Status::kOk);
    ASSERT_EQ(golden.infer(in.view(), ref), Status::kOk);
    const bool clean = same_bits(tap, walk_features(model(), in));
    EXPECT_EQ(clean, same_bits(out, ref)) << "sample " << i;
    if (!clean) {
      EXPECT_TRUE(same_bits(tap, walk_features(ch.replica(0).model(), in)));
    }
    from_replica1 += clean ? 1 : 0;
  }
  EXPECT_GT(from_replica1, 0u);
}

// The recovery block taps the block whose output it emits, and refuses an
// alternate whose features the primary's supervisor could not read.
TEST(TapSource, RecoveryBlockTapsTheBlockItEmits) {
  dl::ModelBuilder ab{data().input_shape};
  ab.flatten().dense(32).relu().dense(16).relu().dense(dl::kRoadSceneClasses);
  const dl::Model alternate = ab.build(77);
  RecoveryBlockChannel ch{model(), alternate, MonitorConfig{}};
  ASSERT_EQ(ch.tap_size(), walk_features(model(), data().samples[0].input).size());
  std::vector<float> out(ch.output_size()), tap(ch.tap_size());
  const Tensor& in = data().samples[0].input;
  ASSERT_EQ(ch.infer(in.view(), out, tap), Status::kOk);
  EXPECT_EQ(ch.recoveries(), 0u);
  EXPECT_TRUE(same_bits(tap, walk_features(model(), in)));
  // A poisoned primary fails its acceptance test: the alternate's output
  // and its features are emitted together.
  ch.replica(0).model().layer(1).params()[0] =
      std::numeric_limits<float>::infinity();
  ch.replica(0).refresh();
  ASSERT_EQ(ch.infer(in.view(), out, tap), Status::kOk);
  EXPECT_EQ(ch.recoveries(), 1u);
  EXPECT_TRUE(same_bits(tap, walk_features(alternate, in)));

  dl::ModelBuilder wb{data().input_shape};
  wb.flatten().dense(32).relu().dense(8).relu().dense(dl::kRoadSceneClasses);
  EXPECT_THROW(
      (RecoveryBlockChannel{model(), wb.build(78), MonitorConfig{}}),
      std::invalid_argument);
}

TEST(SafetyBag, FallsBackOnPrimaryFailure) {
  auto primary = std::make_unique<DmrChannel>(model());
  // Force divergence.
  primary->replica(0).model().layer(1).params()[10] += 50.0f;
  primary->replica(0).refresh();  // planned engines snapshot weights
  std::vector<float> fallback(dl::kRoadSceneClasses, 0.0f);
  fallback[3] = 10.0f;  // conservative: "obstacle"
  SafetyBagChannel bag{std::move(primary), nullptr, fallback};
  std::vector<float> out(bag.output_size());
  ASSERT_EQ(bag.infer(data().samples[0].input.view(), out), Status::kOk);
  EXPECT_TRUE(bag.last_degraded());
  EXPECT_EQ(bag.fallback_activations(), 1u);
  std::size_t a = 0;
  for (std::size_t k = 1; k < out.size(); ++k)
    if (out[k] > out[a]) a = k;
  EXPECT_EQ(a, 3u);
}

TEST(SafetyBag, SupervisorRejectTriggersFallback) {
  // The CNN: the Mahalanobis supervisor reads the penultimate features, and
  // the MLP's 16-wide layer separates uniform noise less well (9 of these
  // 20 inputs rejected at its 95% threshold, against 16 on the CNN).
  const dl::Model& cnn = sx::testing::trained_cnn();
  supervise::MahalanobisSupervisor sup;
  sup.fit(cnn, data());
  sup.calibrate_threshold(supervise::collect_scores(sup, cnn, data()), 0.95);
  supervise::TapScorer scorer{sup};
  auto primary = std::make_unique<EngineChannel>(Replica{cnn});
  std::vector<float> fallback(dl::kRoadSceneClasses, 0.0f);
  fallback[3] = 10.0f;
  SafetyBagChannel bag{std::move(primary), &scorer, fallback};
  // Far-OOD input should be rejected by the supervisor.
  const dl::Dataset ood =
      dl::corrupt(data(), dl::Corruption::kUniformRandom, 3);
  std::vector<float> out(bag.output_size());
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    ASSERT_EQ(bag.infer(ood.samples[i].input.view(), out), Status::kOk);
    fallbacks += bag.last_degraded() ? 1 : 0;
    // The bag's verdict is the reference walk's, on the same score bits.
    ASSERT_TRUE(bag.last_score().has_value());
    EXPECT_EQ(*bag.last_score(), sup.score(cnn, ood.samples[i].input));
    EXPECT_EQ(bag.last_degraded(), !sup.accept(cnn, ood.samples[i].input));
  }
  EXPECT_GT(fallbacks, 15u);
}

TEST(SafetyBag, ValidatesConstruction) {
  std::vector<float> wrong_size(2, 0.0f);
  EXPECT_THROW(SafetyBagChannel(
                   std::make_unique<EngineChannel>(Replica{model()}), nullptr,
                   wrong_size),
               std::invalid_argument);
  // An unfitted, uncalibrated supervisor never becomes a bag's scorer.
  supervise::MahalanobisSupervisor sup;
  EXPECT_THROW(supervise::TapScorer{sup}, std::invalid_argument);
}

// ---------------------------------------------------------------- campaign

TEST(Campaign, LadderSafetyIsMonotone) {
  dl::Dataset probes;
  probes.num_classes = data().num_classes;
  probes.input_shape = data().input_shape;
  for (std::size_t i = 0; i < 16; ++i)
    probes.samples.push_back(data().samples[i]);

  const CampaignConfig cfg{.n_faults = 60, .probes_per_fault = 4,
                           .fault_type = FaultType::kBitFlip, .seed = 5};

  EngineChannel bare{Replica{model(), {.check_numeric_faults = false}}};
  EngineChannel monitored{Replica{model()},
                          MonitorConfig{.output_min = -50, .output_max = 50}};
  DmrChannel dmr{model()};
  TmrChannel tmr{model()};

  const auto o_bare = run_campaign(bare, probes, cfg);
  const auto o_mon = run_campaign(monitored, probes, cfg);
  const auto o_dmr = run_campaign(dmr, probes, cfg);
  const auto o_tmr = run_campaign(tmr, probes, cfg);

  // The pattern ladder must not lose safety as sophistication grows.
  EXPECT_LE(o_mon.sdc_rate(), o_bare.sdc_rate() + 1e-9);
  EXPECT_LE(o_dmr.sdc_rate(), o_mon.sdc_rate() + 0.01);
  EXPECT_LE(o_tmr.sdc_rate(), 0.01) << "TMR should essentially remove SDC";
  // TMR keeps availability high (masking, not stopping).
  EXPECT_GT(o_tmr.availability(), o_dmr.availability());
}

TEST(Campaign, OutcomeArithmetic) {
  CampaignOutcome o;
  o.correct = 70;
  o.detected = 20;
  o.fallback = 5;
  o.sdc = 5;
  EXPECT_EQ(o.total(), 100u);
  EXPECT_TRUE(o.measured());
  EXPECT_DOUBLE_EQ(o.sdc_rate(), 0.05);
  EXPECT_DOUBLE_EQ(o.safe_rate(), 0.95);
  EXPECT_DOUBLE_EQ(o.availability(), 0.75);
}

TEST(Campaign, RejectsEmptyProbes) {
  EngineChannel ch{Replica{model()}};
  dl::Dataset empty;
  EXPECT_THROW(run_campaign(ch, empty, CampaignConfig{}),
               std::invalid_argument);
}

TEST(Campaign, AlwaysRefusingChannelYieldsEmptyOutcome) {
  // Regression: a channel whose fault-free pass rejects every probe (here
  // an input-range monitor no RoadScene sample satisfies) used to throw
  // from run_campaign mid-analysis. Zero usable probes is a legitimate
  // measurement — the outcome must be the well-defined empty one.
  EngineChannel ch{Replica{model()},
                   MonitorConfig{.check_input_range = true,
                                 .input_min = 100.0f,
                                 .input_max = 101.0f}};
  dl::Dataset probes;
  probes.num_classes = data().num_classes;
  probes.input_shape = data().input_shape;
  for (std::size_t i = 0; i < 8; ++i)
    probes.samples.push_back(data().samples[i]);

  const auto o = run_campaign(ch, probes, CampaignConfig{.n_faults = 10});
  EXPECT_EQ(o.total(), 0u);
  EXPECT_EQ(o.correct, 0u);
  EXPECT_EQ(o.detected, 0u);
  EXPECT_EQ(o.fallback, 0u);
  EXPECT_EQ(o.sdc, 0u);
  // The rate accessors stay defined on the empty outcome — and
  // *conservative*: a campaign that measured nothing must not satisfy a
  // `safe_rate() >= x` / `sdc_rate() <= y` deployment gate vacuously.
  EXPECT_FALSE(o.measured());
  EXPECT_DOUBLE_EQ(o.sdc_rate(), 1.0);
  EXPECT_DOUBLE_EQ(o.safe_rate(), 0.0);
  EXPECT_DOUBLE_EQ(o.availability(), 0.0);
}

TEST(Campaign, QuantChannelInjectionHitsDeployedWeights) {
  // Regression: campaign faults used to land in the float twin, which the
  // int8 engine never reads — every trial reproduced the golden output and
  // a campaign against the deployed int8 backend reported vacuous 100%
  // masking. Injection must perturb what the engine actually computes, and
  // undo must restore it bitwise. The wide plan exercises the repack path
  // (panel snapshots of the faulted bits), the strictest variant.
  EngineChannel ch{Replica{quantized_model(), dl::KernelMode::kWide}};
  EXPECT_EQ(ch.pattern_name(), "int8-single");
  const auto in = data().samples[0].input.view();
  std::vector<float> golden(ch.output_size()), out(ch.output_size());
  ASSERT_EQ(ch.infer(in, golden), Status::kOk);

  FaultInjector injector{99};
  std::size_t perturbed = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const FaultRecord rec =
        ch.inject_fault(injector, 0, FaultType::kStuckLarge);
    EXPECT_TRUE(rec.quantized);
    ASSERT_EQ(ch.infer(in, out), Status::kOk);
    for (std::size_t i = 0; i < out.size(); ++i)
      if (out[i] != golden[i]) {
        ++perturbed;
        break;
      }
    ch.undo_fault(0, rec);
    ASSERT_EQ(ch.infer(in, out), Status::kOk);
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], golden[i]) << "undo_fault must restore bitwise";
  }
  EXPECT_GT(perturbed, 0u)
      << "no injected int8 fault ever reached the deployed engine";
}

TEST(Campaign, QuantChannelCampaignMeasuresRealFaults) {
  EngineChannel ch{Replica{quantized_model()}};
  std::vector<float> out(ch.output_size());
  const auto decide = [&](const Tensor& x) {
    EXPECT_EQ(ch.infer(x.view(), out), Status::kOk);
    std::size_t best = 0;
    for (std::size_t i = 1; i < out.size(); ++i)
      if (out[i] > out[best]) best = i;
    return best;
  };
  const auto blend = [](const Tensor& a, const Tensor& b, float t) {
    Tensor mix{a.shape()};
    for (std::size_t i = 0; i < mix.size(); ++i)
      mix.at(i) = (1.0f - t) * a.at(i) + t * b.at(i);
    return mix;
  };
  const auto first_of = [&](std::size_t lbl) -> const dl::Sample& {
    for (const auto& s : data().samples)
      if (s.label == lbl) return s;
    return data().samples[0];
  };

  // The trained MLP is so confident on clean samples that random single-bit
  // weight faults essentially never flip an argmax decision (a prior
  // version of this test observed 1 SDC in 9600 trials). Probe instead at
  // synthesized decision boundaries: for each adjacent class pair, binary
  // search the blend of two samples until the channel's top-2 logits tie.
  // There, any fault on the active path flips the decision, so a campaign
  // whose injections really land in the deployed int8 weights must record
  // SDCs for every seed — while the float-twin bug still reports zero.
  dl::Dataset probes;
  probes.num_classes = data().num_classes;
  probes.input_shape = data().input_shape;
  for (std::size_t c = 0; c < data().num_classes; ++c) {
    const auto& a = first_of(c);
    const auto& b = first_of((c + 1) % data().num_classes);
    const std::size_t da = decide(a.input);
    if (da == decide(b.input)) continue;
    float lo = 0.0f, hi = 1.0f;
    for (int it = 0; it < 40; ++it) {
      const float mid = 0.5f * (lo + hi);
      (decide(blend(a.input, b.input, mid)) == da ? lo : hi) = mid;
    }
    probes.samples.push_back(
        dl::Sample{blend(a.input, b.input, lo), da, std::nullopt});
  }
  ASSERT_GE(probes.samples.size(), 2u);

  const auto o = run_campaign(
      ch, probes,
      CampaignConfig{.n_faults = 60, .probes_per_fault = 4,
                     .fault_type = FaultType::kBitFlip, .seed = 21});
  EXPECT_TRUE(o.measured());
  EXPECT_EQ(o.total(), 240u);
  // This is exactly the assertion the float-twin bug made impossible
  // (everything landed in `correct`). A 40-seed sweep of this config
  // records 6-18 SDCs per campaign, so any positive count is stable.
  EXPECT_GT(o.sdc, 0u);
  EXPECT_LT(o.correct, o.total());
}

// ---------------------------------------------------------------- watchdog

TEST(Watchdog, KickBeforeDeadlineOk) {
  Watchdog wd;
  wd.arm(100, 50);
  EXPECT_EQ(wd.kick(140), Status::kOk);
  EXPECT_EQ(wd.kicks(), 1u);
}

TEST(Watchdog, LateKickIsMiss) {
  Watchdog wd;
  wd.arm(100, 50);
  EXPECT_EQ(wd.kick(151), Status::kDeadlineMiss);
  EXPECT_EQ(wd.misses(), 1u);
}

TEST(Watchdog, KickWithoutArmIsNotReady) {
  Watchdog wd;
  EXPECT_EQ(wd.kick(0), Status::kNotReady);
}

TEST(Watchdog, HugeBudgetSaturatesInsteadOfWrapping) {
  // Regression: arm() used to compute now + budget with wrapping uint64
  // arithmetic, so a budget reaching past the end of logical time wrapped
  // to a *past* deadline and every kick became a spurious miss.
  Watchdog wd;
  const std::uint64_t now = std::numeric_limits<std::uint64_t>::max() - 5;
  wd.arm(now, 1000);
  EXPECT_EQ(wd.deadline(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(wd.expired(now));
  EXPECT_EQ(wd.kick(now + 3), Status::kOk);
  EXPECT_EQ(wd.misses(), 0u);
  EXPECT_EQ(wd.kicks(), 1u);
  // A saturated deadline can still be missed only by the end of time.
  wd.arm(now, 1000);
  EXPECT_FALSE(wd.expired(std::numeric_limits<std::uint64_t>::max()));
}

TEST(Watchdog, ExpiryPolling) {
  Watchdog wd;
  wd.arm(0, 10);
  EXPECT_FALSE(wd.expired(10));
  EXPECT_TRUE(wd.expired(11));
  wd.disarm();
  EXPECT_FALSE(wd.expired(100));
}

// Property sweep: every fault type is reversible at every targeted bit.
class FaultReversibility : public ::testing::TestWithParam<int> {};

TEST_P(FaultReversibility, InjectRestoreRoundTrip) {
  dl::Model m = model();
  const auto h = m.provenance_hash();
  FaultInjector inj{static_cast<std::uint64_t>(GetParam())};
  for (const FaultType t :
       {FaultType::kBitFlip, FaultType::kStuckZero, FaultType::kStuckLarge}) {
    const auto rec = inj.inject(m, t);
    FaultInjector::restore(m, rec);
    EXPECT_EQ(m.provenance_hash(), h) << to_string(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultReversibility,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace sx::safety
