// Shared by the orthonormalization tests in la_test.cc and
// property_test.cc: panels of a chosen condition number, and the two
// distances, computed in double, that hold Orthonormalize to the
// HouseholderQr oracle.
#ifndef LIGHTNE_TESTS_QR_ORACLE_H_
#define LIGHTNE_TESTS_QR_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/matrix.h"
#include "la/qr.h"

namespace lightne::qr_oracle {

/// n x q panel U diag(s) V^T: U orthonormal, s log-spaced from 1 down to
/// 1/kappa, V a random q x q rotation. Formed in double, rounded once.
inline Matrix ConditionedPanel(uint64_t n, uint64_t q, double kappa,
                               uint64_t seed) {
  Matrix u = Matrix::Gaussian(n, q, seed);
  HouseholderQr(&u);
  Matrix v = Matrix::Gaussian(q, q, seed + 1);
  HouseholderQr(&v);
  std::vector<double> s(q, 1.0);
  for (uint64_t k = 1; k < q; ++k) {
    s[k] = std::pow(kappa, -static_cast<double>(k) / static_cast<double>(q - 1));
  }
  Matrix y(n, q);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = 0; j < q; ++j) {
      double sum = 0.0;
      for (uint64_t k = 0; k < q; ++k) sum += u.At(i, k) * s[k] * v.At(j, k);
      y.At(i, j) = static_cast<float>(sum);
    }
  }
  return y;
}

/// max |Q^T Q - I|.
inline double OrthogonalityError(const Matrix& q) {
  double worst = 0.0;
  for (uint64_t a = 0; a < q.cols(); ++a) {
    for (uint64_t b = a; b < q.cols(); ++b) {
      double dot = 0.0;
      for (uint64_t i = 0; i < q.rows(); ++i) {
        dot += static_cast<double>(q.At(i, a)) * q.At(i, b);
      }
      worst = std::max(worst, std::fabs(dot - (a == b ? 1.0 : 0.0)));
    }
  }
  return worst;
}

/// max |Q_ref - Q Q^T Q_ref|: how far the columns of Q_ref lie outside the
/// span of Q.
inline double SpanDistance(const Matrix& q_ref, const Matrix& q) {
  const uint64_t n = q.rows(), k = q.cols(), m = q_ref.cols();
  std::vector<double> proj(k * m, 0.0);  // Q^T Q_ref
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t a = 0; a < k; ++a) {
      for (uint64_t b = 0; b < m; ++b) {
        proj[a * m + b] += static_cast<double>(q.At(i, a)) * q_ref.At(i, b);
      }
    }
  }
  double worst = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t b = 0; b < m; ++b) {
      double sum = 0.0;
      for (uint64_t a = 0; a < k; ++a) sum += q.At(i, a) * proj[a * m + b];
      worst = std::max(worst, std::fabs(q_ref.At(i, b) - sum));
    }
  }
  return worst;
}

}  // namespace lightne::qr_oracle

#endif  // LIGHTNE_TESTS_QR_ORACLE_H_
