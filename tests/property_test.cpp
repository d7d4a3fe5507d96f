// Cross-module property suites: randomized sweeps over the load-bearing
// invariants that individual unit tests check only pointwise.
#include <gtest/gtest.h>

#include <bit>
#include <iomanip>
#include <sstream>

#include "engine_pool.hpp"
#include "dl/dataset.hpp"
#include "dl/engine.hpp"
#include "dl/model.hpp"
#include "dl/qplan.hpp"
#include "dl/quant.hpp"
#include "verify/range.hpp"
#include "platform/cache.hpp"
#include "supervise/conformal.hpp"
#include "test_helpers.hpp"
#include "timing/evt.hpp"
#include "trace/audit.hpp"
#include "util/rng.hpp"

namespace sx {
namespace {

using tensor::Shape;
using tensor::Tensor;

// ----------------------------------------------------- model round trips

/// Random small architectures serialize/deserialize bit-exactly and agree
/// with the original on random inputs.
class ModelRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelRoundTrip, SaveLoadIsIdentity) {
  util::Xoshiro256 rng{GetParam()};
  dl::ModelBuilder b{Shape::chw(1, 8, 8)};
  // Randomized architecture from a safe menu.
  b.conv2d(1 + rng.below(3), 3, 1, 1);
  if (rng.uniform() < 0.5) b.relu();
  if (rng.uniform() < 0.5) b.maxpool(2);
  b.flatten();
  b.dense(4 + rng.below(12));
  if (rng.uniform() < 0.5) b.sigmoid();
  b.dense(3);
  dl::Model m = b.build(GetParam() * 7 + 1);

  std::stringstream ss;
  m.save(ss);
  dl::Model loaded = dl::Model::load(ss);
  ASSERT_EQ(loaded.provenance_hash(), m.provenance_hash());

  Tensor in{Shape::chw(1, 8, 8)};
  in.init_uniform(rng, 0.0f, 1.0f);
  const Tensor a = m.forward(in);
  const Tensor c = loaded.forward(in);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.at(i), c.at(i));
}

INSTANTIATE_TEST_SUITE_P(Architectures, ModelRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 11));

// -------------------------------------------------- engine/model equality

/// StaticEngine output equals offline forward for random models & inputs.
class EngineAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineAgreement, StaticMatchesOfflineOnRandomModels) {
  util::Xoshiro256 rng{GetParam() * 13 + 5};
  dl::ModelBuilder b{Shape::vec(6 + rng.below(10))};
  b.dense(4 + rng.below(8)).relu().dense(2 + rng.below(4));
  dl::Model m = b.build(GetParam());
  dl::StaticEngine engine{m};
  std::vector<float> out(m.output_shape().size());
  for (int t = 0; t < 5; ++t) {
    Tensor in{m.input_shape()};
    in.init_uniform(rng, -2.0f, 2.0f);
    ASSERT_EQ(engine.run(in.view(), out), Status::kOk);
    const Tensor ref = m.forward(in);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], ref.at(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------------------- audit fuzz

/// Any single-field tampering of any entry is detected.
class AuditFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AuditFuzz, AnyTamperingDetected) {
  util::Xoshiro256 rng{GetParam()};
  trace::AuditLog log;
  const std::size_t n = 5 + rng.below(20);
  for (std::size_t i = 0; i < n; ++i)
    log.append(i, "actor" + std::to_string(rng.below(3)), "act",
               "payload" + std::to_string(rng()));
  ASSERT_EQ(log.verify(), Status::kOk);
  log.tamper_payload_for_test(rng.below(n),
                              "tampered" + std::to_string(rng()));
  EXPECT_EQ(log.verify(), Status::kIntegrityFault);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// -------------------------------------------------------- conformal sweep

/// Coverage >= nominal - tolerance across alphas and split seeds.
class ConformalSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(ConformalSweep, CoverageHolds) {
  const double alpha = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  const dl::Dataset ds = dl::make_road_scene(300, seed);
  dl::Dataset calib, test;
  dl::split(ds, 0.5, calib, test);
  const supervise::ConformalClassifier cc{sx::testing::trained_mlp(), calib,
                                          alpha};
  const auto rep = cc.evaluate(sx::testing::trained_mlp(), test);
  EXPECT_GE(rep.empirical_coverage, 1.0 - alpha - 0.08)
      << "alpha=" << alpha << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Grid, ConformalSweep,
                         ::testing::Combine(::testing::Values(0.1, 0.05),
                                            ::testing::Values<std::uint64_t>(
                                                21, 22, 23)));

// -------------------------------------------------------- quantization

/// Quantized argmax agreement with float stays high across granularities
/// and calibration seeds.
class QuantAgreement
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>> {};

TEST_P(QuantAgreement, ArgmaxMostlyAgrees) {
  const bool per_channel = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  const dl::Dataset calib = dl::make_road_scene(64, seed);
  dl::QuantizedModel qm = dl::QuantizedModel::quantize(
      sx::testing::trained_mlp(), calib,
      dl::QuantConfig{per_channel ? dl::WeightGranularity::kPerChannel
                                  : dl::WeightGranularity::kPerTensor});
  const auto& test = sx::testing::road_data();
  std::vector<float> q(qm.output_shape().size());
  std::size_t agree = 0;
  const std::size_t n = 60;
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor f = sx::testing::trained_mlp().forward(test.samples[i].input);
    ASSERT_EQ(qm.run(test.samples[i].input.view(), q), Status::kOk);
    std::size_t fa = 0, qa = 0;
    for (std::size_t k = 1; k < q.size(); ++k) {
      if (f.at(k) > f.at(fa)) fa = k;
      if (q[k] > q[qa]) qa = k;
    }
    agree += fa == qa;
  }
  EXPECT_GE(agree, n * 85 / 100);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QuantAgreement,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values<std::uint64_t>(31, 32, 33)));

// ------------------------------------------------------------ cache LRU

/// For any access sequence, an LRU cache with more ways never misses more
/// than one with fewer ways (inclusion property of LRU).
class LruInclusion : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruInclusion, MoreWaysNeverWorse) {
  util::Xoshiro256 rng{GetParam()};
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 2000; ++i)
    addrs.push_back(rng.below(256) * 64);  // 256 lines
  auto misses = [&](std::size_t ways) {
    platform::CacheConfig cfg{.line_bytes = 64,
                              .sets = 16,
                              .ways = ways,
                              .placement = platform::Placement::kModulo,
                              .replacement = platform::Replacement::kLru};
    platform::Cache c{cfg, 1};
    for (auto a : addrs) c.access(a);
    return c.misses();
  };
  EXPECT_GE(misses(1), misses(2));
  EXPECT_GE(misses(2), misses(4));
  EXPECT_GE(misses(4), misses(8));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruInclusion,
                         ::testing::Range<std::uint64_t>(1, 9));

// --------------------------------------------------------------- Gumbel

/// pWCET bounds scale coherently: larger block sizes and smaller
/// exceedance probabilities never shrink the bound on the same data.
class GumbelCoherence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GumbelCoherence, BoundsOrdered) {
  util::Xoshiro256 rng{GetParam()};
  std::vector<double> xs(3000);
  for (auto& x : xs) x = 1000.0 + std::fabs(rng.gaussian(0.0, 40.0));
  const auto fit = timing::fit_gumbel(xs, 20);
  double prev = 0.0;
  for (double p : {1e-3, 1e-5, 1e-7, 1e-9, 1e-11}) {
    const double b = timing::pwcet(fit, p);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GumbelCoherence,
                         ::testing::Range<std::uint64_t>(1, 9));

// ----------------------------------- kernel-mode x worker-count identity

/// Hexfloat rendering of the first bitwise divergence between two logit
/// streams — the diff an assessor needs to audit an identity failure.
std::string first_diff_hexfloat(std::span<const float> a,
                                std::span<const float> b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) ==
        std::bit_cast<std::uint32_t>(b[i]))
      continue;
    std::ostringstream os;
    os << "first divergence at element " << i << ": " << std::hexfloat
       << a[i] << " vs " << b[i];
    return os.str();
  }
  return "streams identical";
}

/// Random small CNN over the digit input geometry, from a safe menu.
dl::Model random_digit_cnn(std::uint64_t seed) {
  util::Xoshiro256 rng{seed * 31 + 7};
  dl::ModelBuilder b{Shape::chw(1, dl::kDigitSide, dl::kDigitSide)};
  b.conv2d(2 + rng.below(5), 3, 1, 1).relu();
  if (rng.uniform() < 0.5) b.maxpool(2);
  b.flatten();
  b.dense(8 + rng.below(17)).relu();
  b.dense(dl::kDigitClasses);
  return b.build(seed);
}

/// The full float decision stream — every kernel mode crossed with every
/// worker count — is bitwise identical to the reference single-worker
/// path, over randomized architectures. This is the per-cell identity
/// claim of the scenario sweep, asserted at the engine layer.
class CrossModeIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossModeIdentity, FloatBatchBitsMatchReferenceAcrossModesAndWorkers) {
  const std::uint64_t seed = GetParam();
  const dl::Model m = random_digit_cnn(seed);
  const dl::Dataset ds = dl::make_digits(23, seed * 5 + 3);
  const std::size_t n = ds.samples.size();
  const std::size_t in_size = ds.input_shape.size();
  const std::size_t out_size = m.output_shape().size();
  std::vector<float> flat(n * in_size);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = ds.samples[i].input.data();
    std::copy(src.begin(), src.end(), flat.begin() + i * in_size);
  }

  sx::testing::EnginePool anchor{
      m, 1, {.kernels = dl::KernelMode::kReference}};
  std::vector<float> ref(n * out_size);
  std::vector<Status> st(n);
  anchor.run(flat, ref, st);

  for (const dl::KernelMode mode : dl::all_kernel_modes()) {
    for (const std::size_t workers : {1u, 4u}) {
      sx::testing::EnginePool pool{m, workers, {.kernels = mode}};
      std::vector<float> out(n * out_size, -1.0f);
      pool.run(flat, out, st);
      const bool identical =
          std::equal(out.begin(), out.end(), ref.begin(),
                     [](float x, float y) {
                       return std::bit_cast<std::uint32_t>(x) ==
                              std::bit_cast<std::uint32_t>(y);
                     });
      EXPECT_TRUE(identical)
          << "seed " << seed << " mode " << dl::kernel_mode_name(mode) << " x "
          << workers << " workers: " << first_diff_hexfloat(out, ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossModeIdentity,
                         ::testing::Range<std::uint64_t>(1, 9));

/// Same cross for the int8 backend: the quantized batch path must be
/// bitwise identical across kernel modes AND worker counts (dequantized
/// logits compared as bits).
class QuantCrossModeIdentity
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantCrossModeIdentity, Int8BatchBitsMatchReferenceAcrossModes) {
  const std::uint64_t seed = GetParam();
  const dl::Model m = random_digit_cnn(seed + 100);
  const dl::Dataset calib = dl::make_digits(32, seed * 9 + 1);
  const dl::QuantizedModel qm = dl::QuantizedModel::quantize(m, calib);
  const dl::Dataset ds = dl::make_digits(19, seed * 7 + 5);
  const std::size_t n = ds.samples.size();
  const std::size_t in_size = ds.input_shape.size();
  const std::size_t out_size = qm.output_shape().size();
  std::vector<float> flat(n * in_size);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = ds.samples[i].input.data();
    std::copy(src.begin(), src.end(), flat.begin() + i * in_size);
  }

  sx::testing::EnginePool anchor{
      qm, 1, {.kernels = dl::KernelMode::kReference}};
  std::vector<float> ref(n * out_size);
  std::vector<Status> st(n);
  anchor.run(flat, ref, st);

  for (const dl::KernelMode mode : dl::all_kernel_modes()) {
    for (const std::size_t workers : {1u, 4u}) {
      sx::testing::EnginePool pool{qm, workers, {.kernels = mode}};
      std::vector<float> out(n * out_size, -1.0f);
      pool.run(flat, out, st);
      const bool identical =
          std::equal(out.begin(), out.end(), ref.begin(),
                     [](float x, float y) {
                       return std::bit_cast<std::uint32_t>(x) ==
                              std::bit_cast<std::uint32_t>(y);
                     });
      EXPECT_TRUE(identical)
          << "seed " << seed << " int8 mode " << dl::kernel_mode_name(mode)
          << " x " << workers << " workers: "
          << first_diff_hexfloat(out, ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantCrossModeIdentity,
                         ::testing::Range<std::uint64_t>(1, 7));

/// The IR pass pipeline (dce, fusion legality, liveness arena coloring)
/// must survive the verify gate's independent re-derivation on *every*
/// architecture, not just the golden ones: for random CNNs, both the
/// float and the int8 kernel plan are re-verified sound on all four axes
/// and the arena never exceeds the ping-pong worst case.
class IrSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IrSoundness, RandomArchitecturePlansRederiveSound) {
  const std::uint64_t seed = GetParam();
  const dl::Model m = random_digit_cnn(seed + 300);

  const dl::KernelPlan plan{m};
  const verify::IrCheck c = verify::check_ir(m, plan);
  EXPECT_TRUE(c.checked);
  EXPECT_TRUE(c.passed()) << "seed " << seed;
  EXPECT_EQ(c.rederived_elems, c.planned_elems) << "seed " << seed;
  EXPECT_LE(plan.layout().total_elems, plan.layout().naive_elems);

  const dl::Dataset calib = dl::make_digits(16, seed * 11 + 3);
  const dl::QuantizedModel qm = dl::QuantizedModel::quantize(m, calib);
  const dl::QuantKernelPlan qplan{qm};
  const verify::IrCheck qc = verify::check_ir(qm, qplan);
  EXPECT_TRUE(qc.checked);
  EXPECT_TRUE(qc.passed()) << "seed " << seed;
  EXPECT_EQ(qc.rederived_elems, qc.planned_elems) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrSoundness,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace sx
