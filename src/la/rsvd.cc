#include "la/rsvd.h"

#include <cmath>
#include <utility>

#include "la/kernels.h"
#include "la/qr.h"
#include "la/svd.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace lightne {

Result<RandomizedSvdResult> RandomizedSvd(const SparseMatrix& a,
                                          const RandomizedSvdOptions& opt) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument(
        "RandomizedSvd needs a square matrix (got " +
        std::to_string(a.rows()) + " x " + std::to_string(a.cols()) + ")");
  }
  const uint64_t n = a.rows();
  if (opt.rank == 0 || opt.rank > n) {
    return Status::InvalidArgument(
        "RandomizedSvd rank " + std::to_string(opt.rank) +
        " outside [1, " + std::to_string(n) + "]");
  }
  uint64_t q = opt.rank + opt.oversample;
  if (q > n) q = n;

  const SparseMatrix* at = &a;
  SparseMatrix at_storage;
  if (!opt.symmetric) {
    at_storage = a.Transposed();
    at = &at_storage;
  }

  TraceSpan sketch_span("rsvd/sketch");
  // Line 2: sample a Gaussian random matrix O.          // vsRngGaussian
  // Line 3: Y = A^T O.                                  // mkl_sparse_s_mm
  Matrix y = at->Multiply(Matrix::Gaussian(n, q, opt.seed));
  // Line 4: orthonormalize Y.         // LAPACKE_sgeqrf, LAPACKE_sorgqr
  Orthonormalize(&y);
  sketch_span.End();

  // Optional subspace (power) iterations for tougher spectra.
  for (uint64_t it = 0; it < opt.power_iters; ++it) {
    TraceSpan iter_span("rsvd/power_iter");
    Matrix z = a.Multiply(y);
    y = Matrix();
    Orthonormalize(&z);
    y = at->Multiply(z);
    z = Matrix();
    Orthonormalize(&y);
  }
  MetricsRegistry::Global().GetCounter("rsvd/power_iters")
      ->Add(opt.power_iters);

  TraceSpan project_span("rsvd/project");
  // Line 5: B = A Y.                                    // mkl_sparse_s_mm
  Matrix b = a.Multiply(y);
  y = Matrix();
  // Lines 6-10 as eigSVD (la/rsvd.h): B's Gram in double.
  const std::vector<double> gram = kernels::GemmTnDouble(b, b);
  project_span.End();
  TraceSpan small_span("rsvd/small_svd");
  Result<SymmetricEigenResult> eig = SymmetricEigen(gram, q);
  small_span.End();
  if (!eig.ok()) return eig.status();

  // U = B W with W = V_d S_d^-1; a column below the floor stays zero.
  TraceSpan recover_span("rsvd/recover");
  const uint64_t d = opt.rank;
  RandomizedSvdResult out;
  out.sigma.assign(d, 0.0f);
  Matrix w(q, d);
  uint64_t floored = 0;
  for (uint64_t j = 0; j < d; ++j) {
    const double lambda = eig->values[j];
    if (!(lambda > 1e-8 * eig->values[0])) {
      ++floored;
      continue;
    }
    const double sigma = std::sqrt(lambda);
    out.sigma[j] = static_cast<float>(sigma);
    for (uint64_t k = 0; k < q; ++k) {
      w.At(k, j) = static_cast<float>(eig->vectors[k * q + j] / sigma);
    }
  }
  MetricsRegistry::Global().GetCounter("rsvd/floored_columns")->Add(floored);
  out.u = Gemm(b, w);
  return out;
}

Matrix EmbeddingFromSvd(RandomizedSvdResult svd) {
  Matrix x = std::move(svd.u);
  std::vector<float> scale(svd.sigma.size());
  for (size_t j = 0; j < scale.size(); ++j) {
    scale[j] = svd.sigma[j] > 0 ? std::sqrt(svd.sigma[j]) : 0.0f;
  }
  x.ScaleColumns(scale);
  return x;
}

}  // namespace lightne
