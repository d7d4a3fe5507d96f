// Calibration on the planned float engine: StaticEngine::run_observed and
// dl::calibrate_ranges give, on every kernel arm, bitwise the activation
// ranges of the reference walk (Model::forward_trace), so every int8 model
// quantized from them is byte-identical to one quantized from that walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dl/engine.hpp"
#include "dl/quant.hpp"
#include "dl/train.hpp"
#include "platform/cpu_probe.hpp"
#include "scenario/workload.hpp"
#include "test_helpers.hpp"

namespace sx::dl {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// The ranges a reference walk gives: max |v| of forward_trace's
/// activation i over every sample, from 0.
std::vector<float> trace_ranges(const Model& m, const Dataset& ds) {
  std::vector<float> r(m.layer_count() + 1, 0.0f);
  for (const Sample& s : ds.samples) {
    const std::vector<Tensor> acts = m.forward_trace(s.input);
    for (std::size_t i = 0; i < acts.size(); ++i)
      for (const float v : acts[i].data()) {
        const float a = std::fabs(v);
        r[i] = a > r[i] ? a : r[i];
      }
  }
  return r;
}

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_quantization(const QuantizedModel& got,
                              const QuantizedModel& want,
                              const std::string& where) {
  EXPECT_TRUE(same_bits(got.input_scale(), want.input_scale())) << where;
  EXPECT_EQ(got.bias_saturation_count(), want.bias_saturation_count())
      << where;
  ASSERT_EQ(got.layer_count(), want.layer_count()) << where;
  for (std::size_t i = 0; i < got.layer_count(); ++i) {
    const QuantizedModel::QLayerView g = got.layer_view(i);
    const QuantizedModel::QLayerView w = want.layer_view(i);
    const std::string at = where + " layer " + std::to_string(i);
    EXPECT_EQ(g.kind, w.kind) << at;
    EXPECT_TRUE(same_bytes(g.weights, w.weights)) << at;
    EXPECT_TRUE(same_bytes(g.w_scales, w.w_scales)) << at;
    EXPECT_TRUE(same_bytes(g.bias, w.bias)) << at;
    EXPECT_TRUE(same_bits(g.out_scale, w.out_scale)) << at;
    EXPECT_EQ(g.in_c, w.in_c) << at;
    EXPECT_EQ(g.out_c, w.out_c) << at;
    EXPECT_EQ(g.in_dim, w.in_dim) << at;
    EXPECT_EQ(g.out_dim, w.out_dim) << at;
  }
}

const Dataset& road600() {
  static const Dataset ds = make_road_scene(600, /*seed=*/11);
  return ds;
}

/// The end-to-end benchmark's perception CNN, trained as it trains it.
const Model& road_cnn() {
  static const Model model = [] {
    ModelBuilder b{road600().input_shape};
    b.conv2d(8, 3, 1, 1)
        .relu()
        .conv2d(8, 3, 1, 1)
        .relu()
        .maxpool(2)
        .flatten()
        .dense(32)
        .relu()
        .dense(kRoadSceneClasses);
    Model m = b.build(/*seed=*/21);
    Trainer trainer{TrainConfig{.learning_rate = 0.02,
                                .momentum = 0.9,
                                .epochs = 4,
                                .batch_size = 16,
                                .shuffle_seed = 7}};
    trainer.fit(m, road600());
    return m;
  }();
  return model;
}

const scenario::DigitWorkload& digits() {
  static const scenario::DigitWorkload w = scenario::make_digit_workload();
  return w;
}

/// The digit CNN as the scenario sweep deploys it: folded.
const Model& digit_cnn() {
  static const Model model = fold_batchnorm(digits().model);
  return model;
}

/// A CNN whose BatchNorm, with statistics from the road set, folds into
/// its conv.
const Model& folded_bn_cnn() {
  static const Model model = [] {
    ModelBuilder b{sx::testing::road_data().input_shape};
    b.conv2d(4, 3, 1, 1)
        .batchnorm()
        .relu()
        .maxpool(2)
        .flatten()
        .dense(16)
        .relu()
        .dense(kRoadSceneClasses);
    Model m = b.build(/*seed=*/31);
    calibrate_batchnorm(m, sx::testing::road_data());
    return fold_batchnorm(m);
  }();
  return model;
}

struct Case {
  const char* name;
  const Model* model;
  const Dataset* calibration;
};

std::vector<Case> quantized_cases() {
  return {{"road-cnn", &road_cnn(), &road600()},
          {"digit-cnn", &digit_cnn(), &digits().train},
          {"mlp", &sx::testing::trained_mlp(), &sx::testing::road_data()},
          {"folded-bn-cnn", &folded_bn_cnn(), &sx::testing::road_data()}};
}

/// The default arm (SX_KERNEL_ISA unset), then scalar, then avx2 where
/// the host has it.
std::vector<const char*> arms() {
  std::vector<const char*> a = {nullptr, "scalar"};
  if (platform::probe_cpu().avx2) a.push_back("avx2");
  return a;
}

void select_arm(const char* isa) {
  if (isa == nullptr)
    ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
  else
    ASSERT_EQ(setenv("SX_KERNEL_ISA", isa, 1), 0);
}

std::string arm_name(const char* isa) {
  return isa == nullptr ? "default" : isa;
}

TEST(QuantCalibration, RangesAreTheReferenceWalksOnEveryArm) {
  for (const Case& c : quantized_cases()) {
    const std::vector<float> want = trace_ranges(*c.model, *c.calibration);
    EXPECT_TRUE(same_bytes<float>(
        calibrate_ranges(*c.model, *c.calibration, KernelMode::kReference),
        want))
        << c.name << " reference";
    for (const char* isa : arms()) {
      select_arm(isa);
      EXPECT_TRUE(same_bytes<float>(
          calibrate_ranges(*c.model, *c.calibration, KernelMode::kWide),
          want))
          << c.name << " wide " << arm_name(isa);
    }
  }
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

TEST(QuantCalibration, QuantizedModelsAreByteIdenticalToTheReferenceWalks) {
  for (const Case& c : quantized_cases()) {
    const std::vector<float> walk = trace_ranges(*c.model, *c.calibration);
    for (const WeightGranularity g :
         {WeightGranularity::kPerChannel, WeightGranularity::kPerTensor}) {
      const QuantizedModel want =
          QuantizedModel::quantize(*c.model, walk, QuantConfig{g});
      for (const char* isa : arms()) {
        select_arm(isa);
        expect_same_quantization(
            QuantizedModel::quantize(*c.model, *c.calibration,
                                     QuantConfig{g}),
            want,
            std::string(c.name) + " " + to_string(g) + " " + arm_name(isa));
      }
    }
  }
  ASSERT_EQ(unsetenv("SX_KERNEL_ISA"), 0);
}

// Fused tanh and sigmoid epilogues, a relu-after-relu and a leading and a
// trailing Flatten the plan eliminates: every activation's range is the
// walk's, with the numeric-fault screen on or off, and the observing run's
// logits are run()'s.
TEST(QuantCalibration, ObservedRunFoldsEveryActivation) {
  const Dataset& ds = sx::testing::road_data();
  ModelBuilder mlp{ds.input_shape};
  mlp.flatten().dense(16).tanh_().dense(12).sigmoid().dense(8).relu().relu()
      .dense(kRoadSceneClasses);
  ModelBuilder cnn{ds.input_shape};
  cnn.conv2d(2, 3, 1, 1).relu().maxpool(2).flatten();
  const Model models[] = {mlp.build(3), cnn.build(4)};
  Dataset subset = ds;
  subset.samples.resize(64);

  for (const Model& m : models) {
    const std::vector<float> want = trace_ranges(m, subset);
    for (const KernelMode mode : all_kernel_modes()) {
      for (const bool check : {false, true}) {
        StaticEngine observed{m, {.check_numeric_faults = check,
                                  .kernels = mode}};
        StaticEngine plain{m, {.kernels = mode}};
        if (mode == KernelMode::kWide) {
          ASSERT_NE(observed.plan(), nullptr);
          EXPECT_GE(observed.plan()->removed_layers(), 1u);
          EXPECT_GE(observed.plan()->fused_activations(), 1u);
        }
        std::vector<float> amax(m.layer_count() + 1, 0.0f);
        std::vector<float> got(m.output_shape().size());
        std::vector<float> ref(got.size());
        for (const Sample& s : subset.samples) {
          ASSERT_EQ(observed.run_observed(s.input.view(), got, amax),
                    Status::kOk);
          ASSERT_EQ(plain.run(s.input.view(), ref), Status::kOk);
          EXPECT_TRUE(same_bytes<float>(got, ref));
        }
        EXPECT_TRUE(same_bytes<float>(amax, want))
            << kernel_mode_name(mode) << " check=" << check;
        std::vector<float> short_amax(m.layer_count());
        EXPECT_EQ(observed.run_observed(subset.samples[0].input.view(), got,
                                        short_amax),
                  Status::kShapeMismatch);
      }
    }
  }
}

// The layer kinds are refused before any sample runs: a calibration set
// the model could not even run gets the layer's error, not a shape error.
TEST(QuantCalibration, RefusesUnsupportedModelBeforeCalibrating) {
  Dataset wrong_shape;
  wrong_shape.num_classes = 3;
  wrong_shape.input_shape = Shape::vec(7);
  Sample s;
  s.input = Tensor{Shape::vec(7)};
  wrong_shape.samples.push_back(s);

  ModelBuilder softmax{Shape::vec(4)};
  softmax.dense(3).softmax();
  ModelBuilder batchnorm{Shape::vec(4)};
  batchnorm.dense(3).batchnorm().dense(3);
  ModelBuilder tanh{Shape::vec(4)};
  tanh.dense(3).tanh_().dense(3);
  const struct {
    Model model;
    const char* error;
  } cases[] = {{softmax.build(1), "drop Softmax"},
               {batchnorm.build(2), "fold BatchNorm first"},
               {tanh.build(3), "saturating activations"}};
  for (const auto& c : cases) {
    try {
      (void)QuantizedModel::quantize(c.model, wrong_shape);
      ADD_FAILURE() << "quantized a model with " << c.error;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.error), std::string::npos)
          << e.what();
    }
  }
}

TEST(QuantCalibration, MalformedCalibrationRefuses) {
  const Model& m = sx::testing::trained_mlp();
  Dataset wrong_shape;
  Sample s;
  s.input = Tensor{Shape::vec(7)};
  wrong_shape.samples.push_back(s);
  EXPECT_THROW((void)calibrate_ranges(m, wrong_shape, KernelMode::kWide),
               std::invalid_argument);
  EXPECT_THROW((void)calibrate_ranges(m, Dataset{}, KernelMode::kReference),
               std::invalid_argument);
  const std::vector<float> short_ranges(m.layer_count());
  EXPECT_THROW((void)QuantizedModel::quantize(m, short_ranges),
               std::invalid_argument);
}

}  // namespace
}  // namespace sx::dl
