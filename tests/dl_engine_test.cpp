#include <gtest/gtest.h>

#include "dl/engine.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"

namespace sx::dl {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(StaticEngine, MatchesOfflineForwardBitExactly) {
  const Model& m = sx::testing::trained_mlp();
  StaticEngine engine{m};
  const auto& ds = sx::testing::road_data();
  std::vector<float> out(m.output_shape().size());
  for (std::size_t i = 0; i < 20; ++i) {
    const Tensor ref = m.forward(ds.samples[i].input);
    ASSERT_EQ(engine.run(ds.samples[i].input.view(), out), Status::kOk);
    for (std::size_t k = 0; k < out.size(); ++k)
      EXPECT_EQ(out[k], ref.at(k)) << "sample " << i << " logit " << k;
  }
}

TEST(StaticEngine, DeterministicAcrossRepeatedRuns) {
  const Model& m = sx::testing::trained_mlp();
  StaticEngine engine{m};
  const Tensor& in = sx::testing::road_data().samples[0].input;
  std::vector<float> out(m.output_shape().size());
  ASSERT_EQ(engine.run(in.view(), out), Status::kOk);
  const std::uint64_t h0 = util::fnv1a(std::span<const float>(out));
  for (int r = 0; r < 50; ++r) {
    ASSERT_EQ(engine.run(in.view(), out), Status::kOk);
    EXPECT_EQ(util::fnv1a(std::span<const float>(out)), h0);
  }
}

TEST(StaticEngine, RejectsWrongShapes) {
  const Model& m = sx::testing::trained_mlp();
  StaticEngine engine{m};
  Tensor bad{Shape::vec(10)};
  std::vector<float> out(m.output_shape().size());
  EXPECT_EQ(engine.run(bad.view(), out), Status::kShapeMismatch);
  std::vector<float> small(1);
  EXPECT_EQ(engine.run(sx::testing::road_data().samples[0].input.view(),
                       small),
            Status::kShapeMismatch);
}

TEST(StaticEngine, DetectsNaNInput) {
  const Model& m = sx::testing::trained_mlp();
  StaticEngine engine{m, StaticEngineConfig{.check_numeric_faults = true}};
  Tensor in = sx::testing::road_data().samples[0].input;
  in.at(std::size_t{5}) = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> out(m.output_shape().size());
  EXPECT_EQ(engine.run(in.view(), out), Status::kNumericFault);
  EXPECT_EQ(engine.numeric_fault_count(), 1u);
}

TEST(StaticEngine, DetectsNaNFromCorruptedWeights) {
  Model m = sx::testing::trained_mlp();  // copy
  // Poison one weight with infinity: activations blow up to inf.
  m.layer(1).params()[0] = std::numeric_limits<float>::infinity();
  StaticEngine engine{m, StaticEngineConfig{.check_numeric_faults = true}};
  std::vector<float> out(m.output_shape().size());
  const Status st =
      engine.run(sx::testing::road_data().samples[1].input.view(), out);
  EXPECT_EQ(st, Status::kNumericFault);
}

TEST(StaticEngine, ArenaHighWaterMarkIsBounded) {
  const Model& m = sx::testing::trained_mlp();
  StaticEngine engine{m};
  std::vector<float> out(m.output_shape().size());
  ASSERT_EQ(engine.run(sx::testing::road_data().samples[0].input.view(), out),
            Status::kOk);
  EXPECT_LE(engine.arena_high_water_mark(), engine.arena_capacity());
  // The liveness pass shares non-interfering lifetimes, so the planned
  // demand is strictly below the classic ping-pong worst case.
  ASSERT_NE(engine.plan(), nullptr);
  EXPECT_EQ(engine.arena_high_water_mark(),
            engine.plan()->arena_elems());
  EXPECT_LT(engine.arena_high_water_mark(), 2 * m.max_activation_size());
}

TEST(StaticEngine, CountsRuns) {
  const Model& m = sx::testing::trained_mlp();
  StaticEngine engine{m};
  std::vector<float> out(m.output_shape().size());
  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(
        engine.run(sx::testing::road_data().samples[0].input.view(), out),
        Status::kOk);
  EXPECT_EQ(engine.run_count(), 5u);
}

TEST(DynamicEngine, AgreesWithStaticEngine) {
  const Model& m = sx::testing::trained_cnn();
  StaticEngine st{m};
  DynamicEngine dyn{m};
  const auto& ds = sx::testing::road_data();
  std::vector<float> s_out(m.output_shape().size());
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_EQ(st.run(ds.samples[i].input.view(), s_out), Status::kOk);
    const auto d_out = dyn.run(ds.samples[i].input);
    for (std::size_t k = 0; k < s_out.size(); ++k)
      EXPECT_EQ(s_out[k], d_out[k]);
  }
}

TEST(SoftmaxCopy, NormalizesLogits) {
  const std::vector<float> logits{0.0f, 1.0f, 2.0f};
  const auto p = softmax_copy(logits);
  float s = 0.0f;
  for (float v : p) s += v;
  EXPECT_NEAR(s, 1.0f, 1e-6f);
  EXPECT_GT(p[2], p[0]);
}

TEST(SoftmaxInto, WritesTheCopysBitsIntoTheCallersBuffer) {
  const std::vector<float> logits{-3.5f, 0.25f, 7.0f, 1e-3f};
  std::vector<float> out(logits.size(), -1.0f);
  softmax_into(logits, out);
  EXPECT_EQ(out, softmax_copy(logits));
}

// Property sweep: static engine output matches offline forward for both
// model architectures over many samples.
class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {};

TEST_P(EngineEquivalence, StaticMatchesOffline) {
  const bool use_cnn = std::get<0>(GetParam());
  const std::size_t sample = std::get<1>(GetParam());
  const Model& m =
      use_cnn ? sx::testing::trained_cnn() : sx::testing::trained_mlp();
  StaticEngine engine{m};
  const Tensor& in = sx::testing::road_data().samples[sample].input;
  std::vector<float> out(m.output_shape().size());
  ASSERT_EQ(engine.run(in.view(), out), Status::kOk);
  const Tensor ref = m.forward(in);
  for (std::size_t k = 0; k < out.size(); ++k) EXPECT_EQ(out[k], ref.at(k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values<std::size_t>(0, 7, 33, 101, 250)));

}  // namespace
}  // namespace sx::dl
