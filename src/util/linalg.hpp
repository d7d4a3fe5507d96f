// Small dense linear algebra: just what the supervisors and surrogate
// explainers need (SPD Cholesky solves, Gaussian elimination).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sx::util {

/// Row-major square matrix helper.
struct SquareMatrix {
  std::size_t n = 0;
  std::vector<double> a;  // n*n, row-major

  explicit SquareMatrix(std::size_t dim) : n(dim), a(dim * dim, 0.0) {}

  double& at(std::size_t r, std::size_t c) { return a[r * n + c]; }
  double at(std::size_t r, std::size_t c) const { return a[r * n + c]; }
};

/// In-place Cholesky factorization A = L L^T of a symmetric positive-definite
/// matrix (lower triangle written, upper untouched). Returns false if the
/// matrix is not positive definite (after adding `jitter` to the diagonal).
bool cholesky(SquareMatrix& m, double jitter = 0.0);

/// Solves L L^T x = b given the Cholesky factor in `m`'s lower triangle.
std::vector<double> cholesky_solve(const SquareMatrix& chol,
                                   std::vector<double> b);

/// x^T A^{-1} x via one triangular solve with the Cholesky factor L:
/// solves L y = x in place (x is overwritten with y) and returns y . y.
/// Makes no allocation.
double mahalanobis_sq(const SquareMatrix& chol, std::span<double> x);

}  // namespace sx::util
