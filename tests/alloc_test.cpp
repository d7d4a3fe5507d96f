// Heap-allocation gates on the decision path. This binary replaces the
// global operator new/delete family with a counting one, so it stands
// alone: the count covers every allocation the linked program makes, the
// library under test included. Each gate warms up first (grow-only buffers
// reach their size), then counts over a loop with no assertion inside.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/pipeline.hpp"
#include "engine_pool.hpp"
#include "dl/quant.hpp"
#include "safety/channel.hpp"
#include "supervise/metrics.hpp"
#include "supervise/tap_scorer.hpp"
#include "test_helpers.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align) < sizeof(void*)
                            ? sizeof(void*)
                            : static_cast<std::size_t>(align);
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

// Every replacement operator delete releases through this one function.
// Kept out of line, it is the deallocator GCC sees paired with the
// replacement operator new at every inlined delete, where a bare free()
// on operator new's pointer reads as a mismatched release.
[[gnu::noinline]] void counted_release(void* p) noexcept { std::free(p); }

std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { counted_release(p); }
void operator delete[](void* p) noexcept { counted_release(p); }
void operator delete(void* p, std::size_t) noexcept { counted_release(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  counted_release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_release(p);
}

namespace sx {
namespace {

const dl::Model& model() { return sx::testing::trained_mlp(); }
const dl::Dataset& data() { return sx::testing::road_data(); }

TEST(Allocations, CounterSeesTheHeap) {
  const std::uint64_t before = allocations();
  std::vector<int>* v = new std::vector<int>(16);
  const std::uint64_t after = allocations();
  delete v;
  EXPECT_EQ(after - before, 2u);  // the vector and its storage
}

/// Heap allocations over 64 tapped infer() calls on `ch`, after a
/// warm-up; every call must succeed.
std::uint64_t tapped_infer_allocations(safety::InferenceChannel& ch) {
  std::vector<float> out(ch.output_size());
  std::vector<float> tap(ch.tap_size());
  for (std::size_t i = 0; i < 8; ++i)
    (void)ch.infer(data().samples[i].input.view(), out, tap);
  std::size_t failed = 0;
  const std::uint64_t before = allocations();
  for (std::size_t i = 0; i < 64; ++i)
    failed += ok(ch.infer(data().samples[i].input.view(), out, tap)) ? 0 : 1;
  const std::uint64_t made = allocations() - before;
  EXPECT_EQ(failed, 0u) << ch.pattern_name();
  return made;
}

// The decision's one forward pass: every channel taps the supervisor's
// features beside its logits, float and int8, and the bag solves on that
// tap, all without touching the heap.
TEST(Allocations, TappedInferOnEveryChannelAllocatesNothing) {
  supervise::MahalanobisSupervisor sup;
  sup.fit(model(), data());
  sup.calibrate_threshold(supervise::collect_scores(sup, model(), data()),
                          0.95);
  supervise::TapScorer scorer{sup};
  const dl::QuantizedModel q = dl::QuantizedModel::quantize(model(), data());
  const safety::MonitorConfig envelope{.output_min = -50, .output_max = 50};
  std::vector<float> fallback(dl::kRoadSceneClasses, 0.0f);
  fallback[3] = 10.0f;

  std::vector<std::unique_ptr<safety::InferenceChannel>> channels;
  channels.push_back(std::make_unique<safety::EngineChannel>(
      safety::Replica{model(), {.check_numeric_faults = false}}));
  channels.push_back(std::make_unique<safety::EngineChannel>(
      safety::Replica{model()}, envelope));
  channels.push_back(
      std::make_unique<safety::EngineChannel>(safety::Replica{q}));
  channels.push_back(
      std::make_unique<safety::EngineChannel>(safety::Replica{q}, envelope));
  channels.push_back(std::make_unique<safety::DmrChannel>(model()));
  channels.push_back(std::make_unique<safety::TmrChannel>(model()));
  channels.push_back(
      std::make_unique<safety::DiverseTmrChannel>(
          model(), dl::QuantizedModel::quantize(model(), data())));
  channels.push_back(std::make_unique<safety::SafetyBagChannel>(
      std::make_unique<safety::TmrChannel>(model()), &scorer, fallback));
  for (const auto& ch : channels)
    EXPECT_EQ(tapped_infer_allocations(*ch), 0u) << ch->pattern_name();
}

TEST(Allocations, PoolRunWithTapsAllocatesNothing) {
  constexpr std::size_t kItems = 16;
  sx::testing::EnginePool pool{model(), 2};
  const std::size_t in = pool.input_size();
  std::vector<float> inputs(kItems * in);
  for (std::size_t i = 0; i < kItems; ++i)
    std::copy(data().samples[i].input.data().begin(),
              data().samples[i].input.data().end(), inputs.begin() + i * in);
  std::vector<float> outputs(kItems * pool.output_size());
  std::vector<float> taps(kItems * pool.tap_size());
  std::vector<Status> statuses(kItems);
  ASSERT_GT(pool.tap_size(), 0u);
  pool.run(inputs, outputs, statuses, taps);

  std::size_t failed = 0;
  const std::uint64_t before = allocations();
  for (std::size_t r = 0; r < 8; ++r) {
    pool.run(inputs, outputs, statuses, taps);
    for (const Status st : statuses) failed += ok(st) ? 0 : 1;
  }
  const std::uint64_t made = allocations() - before;
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(failed, 0u);
}

/// Heap allocations per infer() decision over in-distribution inputs,
/// after a warm-up pass over the same inputs.
double allocations_per_decision(core::CertifiablePipeline& p) {
  constexpr std::size_t kDecisions = 32;
  for (std::size_t i = 0; i < kDecisions; ++i)
    (void)p.infer(data().samples[i].input, i);
  std::size_t decided = 0;
  const std::uint64_t before = allocations();
  for (std::size_t i = 0; i < kDecisions; ++i)
    decided += p.infer(data().samples[i].input, kDecisions + i).status ==
                       Status::kOk
                   ? 1
                   : 0;
  const std::uint64_t made = allocations() - before;
  EXPECT_EQ(decided, kDecisions);
  return static_cast<double>(made) / static_cast<double>(kDecisions);
}

// The safety bag takes the decision's one trust score through the shared
// scorer, on its primary's tap, so a SIL3 decision (safety bag over
// `pattern`) costs no more allocations than SIL2's monitored channel.
void expect_sil3_allocates_no_more_than_sil2(core::PatternKind pattern) {
  core::PipelineConfig cfg;
  cfg.criticality = trace::Criticality::kSil2;
  core::CertifiablePipeline sil2{model(), data(), cfg};
  ASSERT_EQ(sil2.spec().pattern, core::PatternKind::kMonitored);
  cfg.criticality = trace::Criticality::kSil3;
  cfg.spec = core::recommended_spec(cfg.criticality);
  cfg.spec->pattern = pattern;
  cfg.timing_budget = 1'000'000'000;
  core::CertifiablePipeline sil3{model(), data(), cfg};
  ASSERT_TRUE(sil3.spec().has_safety_bag);

  const double per_sil2 = allocations_per_decision(sil2);
  const double per_sil3 = allocations_per_decision(sil3);
  EXPECT_LE(per_sil3, per_sil2) << "SIL2 " << per_sil2 << ", SIL3 "
                                << per_sil3;
  ::testing::Test::RecordProperty("sil2_allocs_per_decision", std::to_string(per_sil2));
  ::testing::Test::RecordProperty("sil3_allocs_per_decision", std::to_string(per_sil3));
}

// SIL3's recommended pattern.
TEST(Allocations, Sil3DecisionAllocatesNoMoreThanSil2) {
  ASSERT_EQ(core::recommended_spec(trace::Criticality::kSil3).pattern,
            core::PatternKind::kDmr);
  expect_sil3_allocates_no_more_than_sil2(core::PatternKind::kDmr);
}

TEST(Allocations, Sil3TmrBagDecisionAllocatesNoMoreThanSil2Monitored) {
  expect_sil3_allocates_no_more_than_sil2(core::PatternKind::kTmr);
}

/// Heap allocations of one calibrate_ranges call over the first `n`
/// samples of the road set (the subset is copied before counting).
std::uint64_t calibration_allocations(const dl::Model& m, std::size_t n,
                                      dl::KernelMode mode) {
  dl::Dataset subset;
  subset.input_shape = data().input_shape;
  subset.num_classes = data().num_classes;
  subset.samples.assign(data().samples.begin(), data().samples.begin() + n);
  const std::uint64_t before = allocations();
  (void)dl::calibrate_ranges(m, subset, mode);
  return allocations() - before;
}

// Calibration's cost is its engine and its result: the observing pass
// over the samples touches no heap, so twice the samples cost no more.
TEST(Allocations, CalibrationAllocatesNothingPerSample) {
  for (const dl::Model* m :
       {&sx::testing::trained_mlp(), &sx::testing::trained_cnn()}) {
    for (const dl::KernelMode mode : dl::all_kernel_modes()) {
      const std::uint64_t n = calibration_allocations(*m, 50, mode);
      EXPECT_GT(n, 0u);  // the engine and the ranges are counted
      EXPECT_EQ(calibration_allocations(*m, 100, mode), n)
          << dl::kernel_mode_name(mode);
    }
  }
}

}  // namespace
}  // namespace sx
