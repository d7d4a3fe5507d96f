#include "util/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace sx::util {

bool cholesky(SquareMatrix& m, double jitter) {
  const std::size_t n = m.n;
  if (jitter != 0.0)
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) += jitter;
  for (std::size_t j = 0; j < n; ++j) {
    double d = m.at(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= m.at(j, k) * m.at(j, k);
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    m.at(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = m.at(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= m.at(i, k) * m.at(j, k);
      m.at(i, j) = s / ljj;
    }
  }
  return true;
}

std::vector<double> cholesky_solve(const SquareMatrix& chol,
                                   std::vector<double> b) {
  const std::size_t n = chol.n;
  if (b.size() != n) throw std::invalid_argument("cholesky_solve: size");
  // Forward: L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol.at(i, k) * b[k];
    b[i] = s / chol.at(i, i);
  }
  // Backward: L^T x = y.
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= chol.at(k, i) * b[k];
    b[i] = s / chol.at(i, i);
  }
  return b;
}

double mahalanobis_sq(const SquareMatrix& chol, std::span<double> x) {
  const std::size_t n = chol.n;
  if (x.size() != n) throw std::invalid_argument("mahalanobis_sq: size");
  // Solve L y = x in place; then distance^2 = y . y.
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol.at(i, k) * x[k];
    x[i] = s / chol.at(i, i);
  }
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc;
}

}  // namespace sx::util
