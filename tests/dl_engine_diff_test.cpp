// Differential test harness: StaticEngine, DynamicEngine and BatchRunner
// (at 1, 2 and 4 workers) must produce bitwise-identical outputs over a
// population of randomly generated models and inputs (fixed seeds).
//
// This is the certification evidence pillar 3 needs: the compliant engine
// is not an approximation of the baseline — it computes the *same bits*,
// and parallel batch execution does not change a single one of them.
#include <gtest/gtest.h>

#include <algorithm>

#include <span>
#include <vector>

#include "engine_pool.hpp"
#include "dl/engine.hpp"
#include "dl/model.hpp"
#include "util/rng.hpp"

namespace sx::dl {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kModels = 24;
constexpr std::size_t kInputsPerModel = 6;

/// Randomly assembled architecture: dense stacks with mixed activations,
/// optionally convolutional front-ends and a softmax head.
Model random_model(util::Xoshiro256& rng) {
  const bool image_input = rng.below(2) == 0;
  Shape input = image_input
                    ? Shape::chw(1, 4 + rng.below(5), 4 + rng.below(5))
                    : Shape::vec(4 + rng.below(21));
  ModelBuilder b{input};
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

Tensor random_input(util::Xoshiro256& rng, const Shape& shape) {
  Tensor t{shape};
  for (std::size_t i = 0; i < t.size(); ++i)
    t.at(i) = static_cast<float>(rng.uniform(-2.0, 2.0));
  return t;
}

TEST(EngineDifferential, AllEnginesBitwiseIdentical) {
  util::Xoshiro256 rng{0xD1FFu};
  for (std::size_t mi = 0; mi < kModels; ++mi) {
    SCOPED_TRACE("model " + std::to_string(mi));
    const Model model = random_model(rng);
    const std::size_t in_size = model.input_shape().size();
    const std::size_t out_size = model.output_shape().size();

    std::vector<Tensor> inputs;
    std::vector<float> flat(kInputsPerModel * in_size);
    for (std::size_t i = 0; i < kInputsPerModel; ++i) {
      inputs.push_back(random_input(rng, model.input_shape()));
      const auto src = inputs.back().data();
      std::copy(src.begin(), src.end(), flat.begin() + i * in_size);
    }

    // Reference: the offline forward (what DynamicEngine executes).
    StaticEngine engine{model};
    DynamicEngine dynamic{model};
    std::vector<float> static_out(out_size);
    std::vector<float> reference(kInputsPerModel * out_size);
    for (std::size_t i = 0; i < kInputsPerModel; ++i) {
      const std::vector<float> dyn = dynamic.run(inputs[i]);
      ASSERT_EQ(engine.run(inputs[i].view(), static_out), Status::kOk);
      ASSERT_EQ(dyn.size(), out_size);
      for (std::size_t k = 0; k < out_size; ++k) {
        // Bitwise: EXPECT_EQ on floats, not EXPECT_NEAR.
        ASSERT_EQ(static_out[k], dyn[k])
            << "static vs dynamic, input " << i << " logit " << k;
        reference[i * out_size + k] = dyn[k];
      }
    }

    for (const std::size_t workers : {1u, 2u, 4u}) {
      sx::testing::EnginePool pool{model, workers};
      std::vector<float> batch_out(kInputsPerModel * out_size, -7.0f);
      std::vector<Status> statuses(kInputsPerModel, Status::kOk);
      pool.run(flat, batch_out, statuses);
      for (std::size_t i = 0; i < kInputsPerModel; ++i)
        ASSERT_EQ(statuses[i], Status::kOk) << "input " << i;
      ASSERT_EQ(batch_out, reference) << workers << " workers";
      EXPECT_EQ(pool.numeric_fault_count(), 0u);
    }
  }
}

TEST(EngineDifferential, RepeatedBatchesAreReproducible) {
  // The batch executor is as repeatable as the serial engine: same batch,
  // same bits, run after run and across distinct runner instances.
  util::Xoshiro256 rng{0xBEEFu};
  const Model model = random_model(rng);
  const std::size_t in_size = model.input_shape().size();
  const std::size_t out_size = model.output_shape().size();
  std::vector<float> flat(10 * in_size);
  for (auto& v : flat) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> first;
  for (int instance = 0; instance < 2; ++instance) {
    sx::testing::EnginePool pool{model, 3};
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<float> out(10 * out_size);
      std::vector<Status> st(10);
      pool.run(flat, out, st);
      if (first.empty())
        first = out;
      else
        ASSERT_EQ(out, first);
    }
  }
}

}  // namespace
}  // namespace sx::dl
