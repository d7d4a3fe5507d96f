#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "tensor/arena.hpp"
#include "tensor/ops.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sx::tensor {
namespace {

// ------------------------------------------------------------------- Shape

TEST(Shape, ScalarHasOneElement) {
  const Shape s = Shape::scalar();
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Shape, SizesMultiply) {
  const Shape s = Shape::chw(3, 4, 5);
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.size(), 60u);
  EXPECT_EQ(s[0], 3u);
  EXPECT_EQ(s[1], 4u);
  EXPECT_EQ(s[2], 5u);
}

TEST(Shape, OutOfRangeDimIsOne) {
  const Shape s = Shape::vec(7);
  EXPECT_EQ(s.dim(3), 1u);
}

TEST(Shape, EqualityIsStructural) {
  EXPECT_EQ(Shape::mat(2, 3), Shape::mat(2, 3));
  EXPECT_NE(Shape::mat(2, 3), Shape::mat(3, 2));
  EXPECT_NE(Shape::vec(6), Shape::mat(2, 3));  // same size, different rank
}

TEST(Shape, RejectsZeroDim) {
  EXPECT_THROW(Shape({0, 3}), std::invalid_argument);
}

TEST(Shape, RowMajorIndexing) {
  const Shape m = Shape::mat(3, 4);
  EXPECT_EQ(m.index(0, 0), 0u);
  EXPECT_EQ(m.index(1, 0), 4u);
  EXPECT_EQ(m.index(2, 3), 11u);
  const Shape c = Shape::chw(2, 3, 4);
  EXPECT_EQ(c.index(1, 0, 0), 12u);
  EXPECT_EQ(c.index(1, 2, 3), 23u);
}

TEST(Shape, ToStringReadable) {
  EXPECT_EQ(Shape::chw(1, 16, 16).to_string(), "[1x16x16]");
}

// ------------------------------------------------------------------- Arena

TEST(Arena, AllocatesUpToCapacity) {
  Arena a{100};
  const auto s1 = a.alloc(60);
  EXPECT_EQ(s1.size(), 60u);
  const auto s2 = a.alloc(40);
  EXPECT_EQ(s2.size(), 40u);
  EXPECT_EQ(a.available(), 0u);
}

TEST(Arena, ReturnsEmptyWhenExhausted) {
  Arena a{10};
  (void)a.alloc(8);
  const auto s = a.alloc(3);
  EXPECT_TRUE(s.empty());
}

TEST(Arena, ResetReleasesEverything) {
  Arena a{10};
  (void)a.alloc(10);
  a.reset();
  EXPECT_EQ(a.alloc(10).size(), 10u);
}

TEST(Arena, HighWaterMarkPersistsAcrossReset) {
  Arena a{100};
  (void)a.alloc(70);
  a.reset();
  (void)a.alloc(10);
  EXPECT_EQ(a.high_water_mark(), 70u);
}

TEST(Arena, DisjointAllocations) {
  Arena a{20};
  auto s1 = a.alloc(10);
  auto s2 = a.alloc(10);
  s1[9] = 1.0f;
  s2[0] = 2.0f;
  EXPECT_EQ(s1[9], 1.0f);  // no overlap
}

TEST(ByteArena, BackingStoreIsCacheLineAligned) {
  // The panel/arena layout math rounds offsets to 64-byte multiples; the
  // base must actually sit on a cache line for that to mean anything.
  ByteArena a{256};
  const auto s = a.alloc(64);
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % kStorageAlignBytes,
            0u);
}

// ------------------------------------------------------------------ Tensor

TEST(Tensor, ConstructZeroed) {
  Tensor t{Shape::mat(2, 2)};
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, RejectsSizeMismatch) {
  EXPECT_THROW(Tensor(Shape::vec(3), {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, ViewSharesStorage) {
  Tensor t{Shape::vec(4)};
  TensorView v = t.view();
  v.at(2) = 7.0f;
  EXPECT_EQ(t.at(2), 7.0f);
}

TEST(Tensor, ChwAccessorsMatchLinear) {
  Tensor t{Shape::chw(2, 2, 2)};
  t.at(1, 1, 1) = 5.0f;
  EXPECT_EQ(t.at(std::size_t{7}), 5.0f);
}

// --------------------------------------------------------------------- ops

TEST(Ops, AddSubMulScale) {
  Tensor a{Shape::vec(3), {1, 2, 3}};
  Tensor b{Shape::vec(3), {4, 5, 6}};
  Tensor out{Shape::vec(3)};
  ASSERT_EQ(add(a.view(), b.view(), out.view()), Status::kOk);
  EXPECT_EQ(out.at(std::size_t{0}), 5.0f);
  ASSERT_EQ(sub(b.view(), a.view(), out.view()), Status::kOk);
  EXPECT_EQ(out.at(std::size_t{2}), 3.0f);
  ASSERT_EQ(mul(a.view(), b.view(), out.view()), Status::kOk);
  EXPECT_EQ(out.at(std::size_t{1}), 10.0f);
  ASSERT_EQ(scale(a.view(), 2.0f, out.view()), Status::kOk);
  EXPECT_EQ(out.at(std::size_t{2}), 6.0f);
}

TEST(Ops, ShapeMismatchReported) {
  Tensor a{Shape::vec(3)};
  Tensor b{Shape::vec(4)};
  Tensor out{Shape::vec(3)};
  EXPECT_EQ(add(a.view(), b.view(), out.view()), Status::kShapeMismatch);
}

TEST(Ops, MatvecKnownValues) {
  // [[1,2],[3,4]] * [5,6] + [1,1] = [18, 40]
  Tensor w{Shape::mat(2, 2), {1, 2, 3, 4}};
  Tensor x{Shape::vec(2), {5, 6}};
  Tensor b{Shape::vec(2), {1, 1}};
  Tensor out{Shape::vec(2)};
  ASSERT_EQ(matvec(w.view(), x.view(), b.view(), out.view()), Status::kOk);
  EXPECT_EQ(out.at(std::size_t{0}), 18.0f);
  EXPECT_EQ(out.at(std::size_t{1}), 40.0f);
}

TEST(Ops, DotProduct) {
  Tensor a{Shape::vec(3), {1, 2, 3}};
  Tensor b{Shape::vec(3), {4, 5, 6}};
  float d = 0.0f;
  ASSERT_EQ(dot(a.view(), b.view(), d), Status::kOk);
  EXPECT_EQ(d, 32.0f);
}

TEST(Ops, Norms) {
  Tensor a{Shape::vec(2), {3, 4}};
  EXPECT_FLOAT_EQ(l2_norm(a.view()), 5.0f);
  EXPECT_FLOAT_EQ(sum(a.view()), 7.0f);
  EXPECT_FLOAT_EQ(max_value(a.view()), 4.0f);
  EXPECT_EQ(argmax(a.view()), 1u);
}

TEST(Ops, SoftmaxSumsToOneAndOrders) {
  Tensor logits{Shape::vec(4), {1.0f, 2.0f, 3.0f, 0.5f}};
  Tensor out{Shape::vec(4)};
  ASSERT_EQ(softmax(logits.view(), out.view()), Status::kOk);
  float s = 0.0f;
  for (std::size_t i = 0; i < 4; ++i) s += out.at(i);
  EXPECT_NEAR(s, 1.0f, 1e-6f);
  EXPECT_EQ(argmax(out.view()), 2u);
}

TEST(Ops, SoftmaxStableForHugeLogits) {
  Tensor logits{Shape::vec(2), {10000.0f, 9999.0f}};
  Tensor out{Shape::vec(2)};
  ASSERT_EQ(softmax(logits.view(), out.view()), Status::kOk);
  EXPECT_FALSE(has_non_finite(out.view()));
  EXPECT_GT(out.at(std::size_t{0}), out.at(std::size_t{1}));
}

TEST(Ops, ReluClampsNegatives) {
  Tensor a{Shape::vec(3), {-1.0f, 0.0f, 2.0f}};
  Tensor out{Shape::vec(3)};
  ASSERT_EQ(relu(a.view(), out.view()), Status::kOk);
  EXPECT_EQ(out.at(std::size_t{0}), 0.0f);
  EXPECT_EQ(out.at(std::size_t{2}), 2.0f);
}

TEST(Ops, NonFiniteDetection) {
  Tensor a{Shape::vec(2), {1.0f, 2.0f}};
  EXPECT_FALSE(has_non_finite(a.view()));
  a.at(std::size_t{1}) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(has_non_finite(a.view()));
  a.at(std::size_t{1}) = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(has_non_finite(a.view()));
}

// The lanes and the tail fold alike: NaN at any position is skipped, -0
// folds as +0, Inf wins, and the start value counts as one more element.
TEST(Ops, FoldAbsMaxSkipsNanAtEveryPosition) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t n = 1; n <= 9; ++n) {
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<float> v(n, -0.0f);
      if (n > 1) v[(at + 1) % n] = -3.0f;
      v[at] = nan;
      const float want = n == 1 ? 0.0f : 3.0f;
      EXPECT_EQ(fold_abs_max(0.0f, v), want) << n << " " << at;
      EXPECT_FALSE(std::signbit(fold_abs_max(0.0f, v)));
      EXPECT_EQ(fold_abs_max(5.0f, v), 5.0f);
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> w = {1.0f, -inf, 2.0f, 3.0f, nan, -4.0f};
  EXPECT_EQ(fold_abs_max(0.0f, w), inf);
  EXPECT_EQ(fold_abs_max(0.0f, {}), 0.0f);
}

TEST(Ops, CopyChecksShape) {
  Tensor a{Shape::vec(2), {1, 2}};
  Tensor b{Shape::vec(2)};
  ASSERT_EQ(copy(a.view(), b.view()), Status::kOk);
  EXPECT_EQ(b.at(std::size_t{1}), 2.0f);
  Tensor c{Shape::vec(3)};
  EXPECT_EQ(copy(a.view(), c.view()), Status::kShapeMismatch);
}

// Property sweep: softmax output is a probability vector for random logits.
class SoftmaxProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoftmaxProperty, ProducesDistribution) {
  util::Xoshiro256 rng{GetParam()};
  Tensor logits{Shape::vec(8)};
  logits.init_uniform(rng, -20.0f, 20.0f);
  Tensor out{Shape::vec(8)};
  ASSERT_EQ(softmax(logits.view(), out.view()), Status::kOk);
  float s = 0.0f;
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_GE(out.at(i), 0.0f);
    EXPECT_LE(out.at(i), 1.0f);
    s += out.at(i);
  }
  EXPECT_NEAR(s, 1.0f, 1e-5f);
  // argmax is preserved
  EXPECT_EQ(argmax(out.view()), argmax(logits.view()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace sx::tensor
