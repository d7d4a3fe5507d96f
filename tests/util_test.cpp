#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/hash.hpp"
#include "util/linalg.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"

namespace sx::util {
namespace {

// ------------------------------------------------------------------ Status

TEST(Status, EveryCodeHasName) {
  for (int i = 0; i <= static_cast<int>(Status::kIntegrityFault); ++i) {
    EXPECT_NE(to_string(static_cast<Status>(i)), "UNKNOWN");
  }
}

TEST(Status, OkPredicate) {
  EXPECT_TRUE(ok(Status::kOk));
  EXPECT_FALSE(ok(Status::kNumericFault));
}

// --------------------------------------------------------------------- RNG

TEST(Rng, SameSeedSameStream) {
  Xoshiro256 a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Xoshiro256 rng{11};
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(rng.gaussian());
  EXPECT_NEAR(st.mean(), 0.0, 0.03);
  EXPECT_NEAR(st.stddev(), 1.0, 0.03);
}

TEST(Rng, BelowStaysBelow) {
  Xoshiro256 rng{13};
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, SplitGivesIndependentStream) {
  Xoshiro256 a{99};
  Xoshiro256 child = a.split();
  // The child stream must not replicate the parent.
  Xoshiro256 parent_copy{99};
  (void)parent_copy();  // advance as split() did
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (child() == parent_copy()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

// ------------------------------------------------------------------- stats

TEST(Stats, RunningMatchesBatch) {
  const std::vector<double> xs{1.0, 2.0, 3.5, -1.0, 0.5, 9.25};
  RunningStats st;
  for (double x : xs) st.add(x);
  EXPECT_DOUBLE_EQ(st.mean(), mean(xs));
  EXPECT_NEAR(st.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(st.max(), max_of(xs));
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Stats, QuantileRejectsBadInput) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.5), std::invalid_argument);
}

TEST(Stats, CorrelationOfLinearIsOne) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 2.0);
  }
  EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
}

TEST(Stats, CorrelationOfConstantIsZero) {
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> ys{4, 4, 4};
  EXPECT_DOUBLE_EQ(correlation(xs, ys), 0.0);
}

TEST(Stats, HistogramCountsAll) {
  const std::vector<double> xs{0.1, 0.4, 0.6, 0.9, 1.0};
  const auto h = histogram(xs, 0.0, 1.0, 2);
  EXPECT_EQ(h[0] + h[1], xs.size());
  EXPECT_EQ(h[0], 2u);
}

TEST(Stats, CoeffOfVariationZeroForConstant) {
  const std::vector<double> xs{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(coeff_of_variation(xs), 0.0);
}

// -------------------------------------------------------------------- hash

TEST(Sha256, KnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(to_hex(Sha256::of("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::of("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      to_hex(Sha256::of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::of("hello world")));
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  std::string s(1000, 'x');
  Sha256 h;
  for (std::size_t i = 0; i < s.size(); i += 7)
    h.update(std::string_view(s).substr(i, 7));
  EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::of(s)));
}

TEST(Fnv1a, DistinguishesContent) {
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
}

TEST(Fnv1a, FloatSpanBitExact) {
  const std::vector<float> a{1.0f, 2.0f};
  std::vector<float> b{1.0f, 2.0f};
  EXPECT_EQ(fnv1a(std::span<const float>(a)), fnv1a(std::span<const float>(b)));
  b[1] = std::nextafter(2.0f, 3.0f);
  EXPECT_NE(fnv1a(std::span<const float>(a)), fnv1a(std::span<const float>(b)));
}

// ------------------------------------------------------------------- table

TEST(Table, AlignsAndCounts) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("longer-name"), std::string::npos);
  EXPECT_NE(ascii.find("| name"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuotesCommas) {
  Table t({"a"});
  t.add_row({"x,y"});
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(TableFmt, Formats) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.5, 1), "50.0%");
  EXPECT_NE(fmt_sci(12345.0).find("e"), std::string::npos);
}

// ------------------------------------------------------------------ linalg

TEST(Linalg, CholeskySolvesIdentity) {
  SquareMatrix m(3);
  for (std::size_t i = 0; i < 3; ++i) m.at(i, i) = 1.0;
  ASSERT_TRUE(cholesky(m));
  const auto x = cholesky_solve(m, {1.0, 2.0, 3.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Linalg, CholeskySolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  SquareMatrix m(2);
  m.at(0, 0) = 4;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(1, 1) = 3;
  ASSERT_TRUE(cholesky(m));
  const auto x = cholesky_solve(m, {10.0, 8.0});
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  SquareMatrix m(2);
  m.at(0, 0) = 1;
  m.at(1, 1) = -1;
  EXPECT_FALSE(cholesky(m));
}

TEST(Linalg, MahalanobisOfMeanIsZero) {
  SquareMatrix m(2);
  m.at(0, 0) = 2;
  m.at(1, 1) = 5;
  ASSERT_TRUE(cholesky(m));
  std::vector<double> x{0.0, 0.0};
  EXPECT_NEAR(mahalanobis_sq(m, x), 0.0, 1e-12);
}

TEST(Linalg, MahalanobisMatchesDiagonal) {
  SquareMatrix m(2);
  m.at(0, 0) = 4;  // variance 4 -> d^2 = x^2/4
  m.at(1, 1) = 1;
  ASSERT_TRUE(cholesky(m));
  std::vector<double> x{2.0, 0.0};
  EXPECT_NEAR(mahalanobis_sq(m, x), 1.0, 1e-12);
  EXPECT_NEAR(x[0], 1.0, 1e-12);  // solved in place: x = L^-1 x
  x = {0.0, 3.0};
  EXPECT_NEAR(mahalanobis_sq(m, x), 9.0, 1e-12);
}

// Property sweep: quantile is monotone in q for arbitrary samples.
class QuantileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotone, MonotoneInQ) {
  Xoshiro256 rng{GetParam()};
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.gaussian(0, 10));
  double prev = quantile(xs, 0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = quantile(xs, q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace sx::util
