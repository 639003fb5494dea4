#include "la/svd.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>
#include <string>

#include "util/fault_injection.h"

namespace lightne {

namespace {

// QL iterations allowed per eigenvalue; the shifted step converges
// cubically, so two or three are typical.
constexpr int kMaxIterations = 50;

// Householder tridiagonalization (Golub & Van Loan, Algorithm 8.3.1) of the
// symmetric q x q row-major `a`, which it overwrites: T = Q^T A Q with T's
// diagonal in d, its off-diagonal in e (e[q-1] = 0) and Q^T in qt.
void Tridiagonalize(std::vector<double>& a, uint64_t q, std::vector<double>& d,
                    std::vector<double>& e, std::vector<double>& qt) {
  qt.assign(q * q, 0.0);
  for (uint64_t i = 0; i < q; ++i) qt[i * q + i] = 1.0;
  std::vector<double> v(q), w(q), u(q);
  for (uint64_t k = 0; k + 2 < q; ++k) {
    const uint64_t lo = k + 1, m = q - lo;
    double* x = a.data() + k * q + lo;  // A(k, lo:) = A(lo:, k)
    double tail = 0.0;
    for (uint64_t i = 1; i < m; ++i) tail += x[i] * x[i];
    if (tail == 0.0) continue;  // column k is already tridiagonal
    // H = I - beta v v^T maps x to -alpha e1.
    const double alpha = std::copysign(std::sqrt(x[0] * x[0] + tail), x[0]);
    std::copy(x, x + m, v.begin());
    v[0] += alpha;
    const double beta = 1.0 / (alpha * v[0]);  // 2 / v^T v
    x[0] = -alpha;
    // A(lo:, lo:) <- H A H = A - v w^T - w v^T for p = beta A v and
    // w = p - (beta p^T v / 2) v.
    double pv = 0.0;
    for (uint64_t i = 0; i < m; ++i) {
      const double* ai = a.data() + (lo + i) * q + lo;
      w[i] = beta * std::inner_product(ai, ai + m, v.begin(), 0.0);
      pv += w[i] * v[i];
    }
    for (uint64_t i = 0; i < m; ++i) w[i] -= 0.5 * beta * pv * v[i];
    for (uint64_t i = 0; i < m; ++i) {
      double* ai = a.data() + (lo + i) * q + lo;
      for (uint64_t j = 0; j < m; ++j) ai[j] -= v[i] * w[j] + w[i] * v[j];
    }
    // Q^T <- H Q^T, on the rows lo.. that H touches.
    std::fill(u.begin(), u.end(), 0.0);
    for (uint64_t i = 0; i < m; ++i) {
      const double* row = qt.data() + (lo + i) * q;
      for (uint64_t c = 0; c < q; ++c) u[c] += v[i] * row[c];
    }
    for (uint64_t i = 0; i < m; ++i) {
      double* row = qt.data() + (lo + i) * q;
      for (uint64_t c = 0; c < q; ++c) row[c] -= beta * v[i] * u[c];
    }
  }
  d.resize(q);
  e.assign(q, 0.0);
  for (uint64_t i = 0; i < q; ++i) {
    d[i] = a[i * q + i];
    if (i + 1 < q) e[i] = a[i * q + i + 1];
  }
}

// Diagonalizes the tridiagonal (d, e) by implicit-shift QL steps (Golub &
// Van Loan §8.3.3 in its QL orientation), rotating the rows of vt along:
// then d[j] is an eigenvalue and row j of vt its eigenvector. False when an
// eigenvalue is still coupled after kMaxIterations.
bool DiagonalizeTridiagonal(std::vector<double>& d, std::vector<double>& e,
                            uint64_t q, std::vector<double>& vt) {
  double norm = 0.0;
  for (uint64_t i = 0; i < q; ++i) {
    norm = std::max(norm, std::fabs(d[i]) + std::fabs(e[i]));
  }
  for (uint64_t l = 0; l < q; ++l) {
    for (int iter = 0;; ++iter) {
      // The first negligible coupling at or after l closes the block l..m.
      uint64_t m = l;
      while (m + 1 < q && std::fabs(e[m]) > DBL_EPSILON * norm) ++m;
      if (m == l) break;
      if (iter == kMaxIterations) return false;
      // Shift: the eigenvalue of T(l:l+1, l:l+1) nearer d[l].
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      bool split = false;
      // Chase the bulge from m up to l with Givens rotations.
      for (uint64_t i = m; i-- > l;) {
        const double f = s * e[i], b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {  // the block split at i + 1: deflate and restart
          d[i + 1] -= p;
          e[m] = 0.0;
          split = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        double* top = vt.data() + i * q;
        double* bottom = top + q;
        for (uint64_t k = 0; k < q; ++k) {
          const double t = top[k];
          top[k] = c * t - s * bottom[k];
          bottom[k] = s * t + c * bottom[k];
        }
      }
      if (split) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
  return true;
}

}  // namespace

Result<SymmetricEigenResult> SymmetricEigen(const std::vector<double>& g,
                                            uint64_t q) {
  if (q == 0 || g.size() != q * q ||
      !std::all_of(g.begin(), g.end(),
                   [](double x) { return std::isfinite(x); })) {
    return Status::InvalidArgument(
        "SymmetricEigen needs a finite q x q matrix (q = " +
        std::to_string(q) + ", " + std::to_string(g.size()) + " entries)");
  }
  std::vector<double> a = g, d, e, vt;
  Tridiagonalize(a, q, d, e, vt);
  bool converged = DiagonalizeTridiagonal(d, e, q, vt);
  // Fault point: pretend the iteration cap was hit so callers exercise
  // their non-convergence path.
  if (LIGHTNE_FAULT_POINT("svd/converge")) converged = false;
  if (!converged) {
    return Status::Internal("symmetric eigensolve did not converge within " +
                            std::to_string(kMaxIterations) +
                            " QL iterations per eigenvalue (q = " +
                            std::to_string(q) + ")");
  }
  std::vector<uint64_t> order(q);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint64_t x, uint64_t y) { return d[x] > d[y]; });
  SymmetricEigenResult out{std::vector<double>(q), std::vector<double>(q * q)};
  for (uint64_t j = 0; j < q; ++j) {
    out.values[j] = d[order[j]];
    for (uint64_t k = 0; k < q; ++k) {
      out.vectors[k * q + j] = vt[order[j] * q + k];
    }
  }
  return out;
}

}  // namespace lightne
