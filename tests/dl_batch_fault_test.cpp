// Fault containment under parallel batch execution: bit-flips injected via
// safety/fault and NaN-poisoned inputs must be counted exactly once each
// and attributed to the correct batch index, under every worker count.
#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>
#include <limits>
#include <vector>

#include "dl/batch.hpp"
#include "engine_pool.hpp"
#include "safety/fault.hpp"
#include "test_helpers.hpp"

namespace sx::dl {
namespace {

using sx::testing::EnginePool;
using tensor::Tensor;

/// Batch indices of the items whose status is not ok, ascending.
std::vector<std::size_t> faulted(std::span<const Status> st) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < st.size(); ++i)
    if (!ok(st[i])) idx.push_back(i);
  return idx;
}

constexpr std::size_t kBatch = 17;  // deliberately not a power of two

std::vector<float> stage_inputs(std::size_t count) {
  const auto& ds = sx::testing::road_data();
  const std::size_t in_size = ds.input_shape.size();
  std::vector<float> flat(count * in_size);
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = ds.samples[i].input.data();
    std::copy(src.begin(), src.end(), flat.begin() + i * in_size);
  }
  return flat;
}

/// Finds a (param, bit) whose flip makes the serial engine fault on sample
/// 0, injects it, and returns the record. The search is deterministic.
safety::FaultRecord inject_poisoning_flip(Model& model) {
  const std::size_t layer = 1;  // first dense layer of the MLP fixture
  const std::size_t params = model.layer(layer).params().size();
  safety::FaultInjector injector{/*seed=*/99};
  std::vector<float> out(model.output_shape().size());
  for (std::size_t p = 0; p < params; ++p) {
    // Bit 30 is the exponent MSB: flipping it on a normal float of modest
    // magnitude catapults it to ~1e38, which overflows the activations.
    const safety::FaultRecord rec = injector.inject_at(
        model, safety::FaultType::kBitFlip, layer, p, /*bit=*/30);
    StaticEngine probe{model};
    const Status st =
        probe.run(sx::testing::road_data().samples[0].input.view(), out);
    if (st == Status::kNumericFault) return rec;
    safety::FaultInjector::restore(model, rec);
  }
  ADD_FAILURE() << "no single bit-flip produced a numeric fault";
  return {};
}

TEST(BatchFaultInjection, WeightBitFlipFaultsEveryItemExactlyOnce) {
  Model model = sx::testing::trained_mlp();  // private corrupted copy
  const safety::FaultRecord rec = inject_poisoning_flip(model);
  // The SEU really fired: the flipped weight is non-finite (exponent went
  // all-ones) or catapulted far outside the trained range.
  ASSERT_TRUE(!std::isfinite(rec.after) || std::abs(rec.after) > 1e30f)
      << rec.after;

  const auto flat = stage_inputs(kBatch);
  std::vector<float> out(kBatch * model.output_shape().size());

  for (const std::size_t workers : {1u, 2u, 4u}) {
    EnginePool pool{model, workers};
    std::vector<Status> st(kBatch, Status::kOk);
    pool.run(flat, out, st);

    // Every item faults and is counted exactly once, at its own batch
    // index.
    for (std::size_t i = 0; i < kBatch; ++i)
      EXPECT_EQ(st[i], Status::kNumericFault) << "item " << i;
    EXPECT_EQ(pool.numeric_fault_count(), kBatch);
    EXPECT_EQ(pool.run_count(), 0u);
    EXPECT_EQ(faulted(st).size(), kBatch);
    // Per-worker fault counts follow the static partition alone.
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::uint64_t owned = (kBatch - w + workers - 1) / workers;
      EXPECT_EQ(pool.engine(w).numeric_fault_count(), owned)
          << "worker " << w;
      EXPECT_EQ(pool.runner().worker_stats(w).items, owned) << "worker " << w;
      total += pool.engine(w).numeric_fault_count();
    }
    EXPECT_EQ(total, kBatch);
  }

  // Undo the SEU: the restored model runs clean again.
  safety::FaultInjector::restore(model, rec);
  EnginePool clean{model, 2};
  std::vector<Status> st(kBatch, Status::kNumericFault);
  clean.run(flat, out, st);
  for (std::size_t i = 0; i < kBatch; ++i) EXPECT_EQ(st[i], Status::kOk);
  EXPECT_EQ(clean.numeric_fault_count(), 0u);
  EXPECT_TRUE(faulted(st).empty());
}

TEST(BatchFaultInjection, NaNInputsAttributedToExactIndices) {
  const Model& model = sx::testing::trained_mlp();
  const std::size_t in_size = model.input_shape().size();
  const std::vector<std::size_t> poisoned{3, 7, 12};

  auto flat = stage_inputs(kBatch);
  for (const std::size_t i : poisoned)
    flat[i * in_size + 5] = std::numeric_limits<float>::quiet_NaN();

  std::vector<float> out(kBatch * model.output_shape().size());
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    EnginePool pool{model, workers};
    std::vector<Status> st(kBatch, Status::kOk);
    pool.run(flat, out, st);

    for (std::size_t i = 0; i < kBatch; ++i) {
      const bool bad =
          std::find(poisoned.begin(), poisoned.end(), i) != poisoned.end();
      EXPECT_EQ(st[i], bad ? Status::kNumericFault : Status::kOk)
          << "item " << i << " at " << workers << " workers";
    }
    EXPECT_EQ(pool.numeric_fault_count(), poisoned.size());
    EXPECT_EQ(pool.run_count(), kBatch - poisoned.size());
    EXPECT_EQ(faulted(st), poisoned);
    // Each poisoned item faulted on its own worker's engine.
    for (std::size_t w = 0; w < workers; ++w) {
      std::uint64_t owned = 0;
      for (const std::size_t i : poisoned) owned += i % workers == w ? 1 : 0;
      EXPECT_EQ(pool.engine(w).numeric_fault_count(), owned)
          << "worker " << w << " of " << workers;
    }
  }
}

TEST(BatchFaultInjection, CountersAccumulateOnceAcrossRepeatedBatches) {
  // Re-running the same poisoned batch N times counts each injected fault
  // once per run — never more (no double counting across the barrier).
  const Model& model = sx::testing::trained_mlp();
  const std::size_t in_size = model.input_shape().size();
  auto flat = stage_inputs(kBatch);
  flat[0 * in_size] = std::numeric_limits<float>::infinity();

  EnginePool pool{model, 4};
  std::vector<float> out(kBatch * model.output_shape().size());
  std::vector<Status> st(kBatch);
  for (int rep = 1; rep <= 3; ++rep) {
    pool.run(flat, out, st);
    EXPECT_EQ(pool.numeric_fault_count(), static_cast<std::uint64_t>(rep));
    // The statuses cover the last batch only.
    EXPECT_EQ(faulted(st), std::vector<std::size_t>{0});
  }
}

}  // namespace
}  // namespace sx::dl
