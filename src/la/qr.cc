#include "la/qr.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/kernels.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace lightne {

namespace {

// Householder factorization over a double-precision working copy for
// numerical robustness; inputs/outputs are float.
struct Workspace {
  uint64_t n, q;
  std::vector<double> a;     // n x q, column-major for locality per column
  std::vector<double> beta;  // q reflector scales (0 = skipped)

  double& At(uint64_t i, uint64_t j) { return a[j * n + i]; }
};

Matrix FactorizeInPlace(Workspace* w) {
  const uint64_t n = w->n, q = w->q;
  Matrix r(q, q);
  w->beta.assign(q, 0.0);
  for (uint64_t k = 0; k < q; ++k) {
    // Householder vector from column k, rows k..n-1.
    double norm2 = 0;
    for (uint64_t i = k; i < n; ++i) norm2 += w->At(i, k) * w->At(i, k);
    const double norm = std::sqrt(norm2);
    if (norm < 1e-30) {
      // Zero column: skip the reflector; R row stays zero.
      for (uint64_t j = k; j < q; ++j) {
        r.At(k, j) = static_cast<float>(w->At(k, j));
      }
      continue;
    }
    const double x0 = w->At(k, k);
    const double alpha = x0 >= 0 ? -norm : norm;
    // v = x - alpha e1, stored in place of column k.
    w->At(k, k) = x0 - alpha;
    double vtv = 0;
    for (uint64_t i = k; i < n; ++i) vtv += w->At(i, k) * w->At(i, k);
    const double beta = 2.0 / vtv;
    w->beta[k] = beta;
    // Apply (I - beta v v^T) to the trailing columns.
    for (uint64_t j = k + 1; j < q; ++j) {
      double dot = 0;
      for (uint64_t i = k; i < n; ++i) dot += w->At(i, k) * w->At(i, j);
      const double scale = beta * dot;
      for (uint64_t i = k; i < n; ++i) w->At(i, j) -= scale * w->At(i, k);
    }
    r.At(k, k) = static_cast<float>(alpha);
    for (uint64_t j = k + 1; j < q; ++j) {
      r.At(k, j) = static_cast<float>(w->At(k, j));
    }
  }
  return r;
}

// Back-accumulates the thin Q (n x q) from the stored reflectors.
void AccumulateQ(const Workspace& w, Matrix* q_out) {
  const uint64_t n = w.n, q = w.q;
  *q_out = Matrix(n, q);
  // Start from the leading columns of the identity.
  std::vector<double> qd(n * q, 0.0);  // column-major
  for (uint64_t k = 0; k < q; ++k) qd[k * n + k] = 1.0;
  for (uint64_t k = q; k-- > 0;) {
    if (w.beta[k] == 0.0) continue;
    for (uint64_t j = 0; j < q; ++j) {
      double dot = 0;
      for (uint64_t i = k; i < n; ++i) dot += w.a[k * n + i] * qd[j * n + i];
      const double scale = w.beta[k] * dot;
      for (uint64_t i = k; i < n; ++i) qd[j * n + i] -= scale * w.a[k * n + i];
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = 0; j < q; ++j) {
      q_out->At(i, j) = static_cast<float>(qd[j * n + i]);
    }
  }
}

Workspace ToWorkspace(const Matrix& a) {
  Workspace w;
  w.n = a.rows();
  w.q = a.cols();
  w.a.resize(w.n * w.q);
  for (uint64_t i = 0; i < w.n; ++i) {
    for (uint64_t j = 0; j < w.q; ++j) w.a[j * w.n + i] = a.At(i, j);
  }
  return w;
}

// Smallest Cholesky pivot a CholeskyQR pass accepts, relative to the largest
// diagonal entry of the Gram. A double Gram over ~1e4 rows can carry a
// relative rounding error near 1e-12, so a smaller pivot is not known to be
// positive. Pivots are at least sigma_min(Y)^2: condition numbers up to
// ~1e6 pass.
constexpr double kPivotFloor = 1e-12;

// One CholeskyQR pass: *a <- *a R^-1 with G = a^T a = R^T R. Returns false,
// leaving *a untouched, when a pivot is non-finite or below the floor.
bool CholeskyQrPass(Matrix* a) {
  const uint64_t q = a->cols();
  // Row-oriented Cholesky, R overwriting the upper triangle of G.
  std::vector<double> r = kernels::GemmTnDouble(*a, *a);
  double max_diag = 0.0;
  for (uint64_t k = 0; k < q; ++k) max_diag = std::max(max_diag, r[k * q + k]);
  for (uint64_t k = 0; k < q; ++k) {
    double* rk = r.data() + k * q;
    for (uint64_t i = 0; i < k; ++i) {
      const double rik = r[i * q + k];
      for (uint64_t j = k; j < q; ++j) rk[j] -= rik * r[i * q + j];
    }
    if (!std::isfinite(rk[k]) || !(rk[k] > kPivotFloor * max_diag)) {
      return false;
    }
    rk[k] = std::sqrt(rk[k]);
    for (uint64_t j = k + 1; j < q; ++j) rk[j] /= rk[k];
  }
  // R^-1 by back substitution, one row at a time from the bottom.
  std::vector<double> x(q * q, 0.0);
  for (uint64_t i = q; i-- > 0;) {
    double* xi = x.data() + i * q;
    xi[i] = 1.0;
    for (uint64_t k = i + 1; k < q; ++k) {
      const double rik = r[i * q + k];
      for (uint64_t j = k; j < q; ++j) xi[j] -= rik * x[k * q + j];
    }
    for (uint64_t j = i; j < q; ++j) xi[j] /= r[i * q + i];
  }
  Matrix r_inv(q, q);
  std::copy(x.begin(), x.end(), r_inv.data());  // rounds each to float
  *a = Gemm(*a, r_inv);
  return true;
}

}  // namespace

Matrix HouseholderQr(Matrix* a) {
  LIGHTNE_CHECK_GE(a->rows(), a->cols());
  Workspace w = ToWorkspace(*a);
  Matrix r = FactorizeInPlace(&w);
  AccumulateQ(w, a);
  return r;
}

void Orthonormalize(Matrix* a) {
  TraceSpan span("rsvd/orthonormalize");
  if (CholeskyQrPass(a) && CholeskyQrPass(a)) return;
  MetricsRegistry::Global().GetCounter("rsvd/qr_fallbacks")->Add(1);
  HouseholderQr(a);
}

}  // namespace lightne
