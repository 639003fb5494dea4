#include "la/rsvd.h"

#include <cmath>

#include "la/qr.h"
#include "la/svd.h"
#include "parallel/parallel_for.h"
#include "util/check.h"
#include "util/logging.h"
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
  // Line 2: sample Gaussian random matrices O and P.   // vsRngGaussian
  Matrix o = Matrix::Gaussian(n, q, opt.seed);
  Matrix p = Matrix::Gaussian(q, q, opt.seed + 1);

  // Line 3: Y = A^T O.                                  // mkl_sparse_s_mm
  Matrix y = at->Multiply(o);
  // Line 4: orthonormalize Y.         // LAPACKE_sgeqrf, LAPACKE_sorgqr
  Orthonormalize(&y);
  sketch_span.End();

  // Optional subspace (power) iterations for tougher spectra.
  for (uint64_t it = 0; it < opt.power_iters; ++it) {
    TraceSpan iter_span("rsvd/power_iter");
    Matrix z = a.Multiply(y);
    Orthonormalize(&z);
    y = at->Multiply(z);
    Orthonormalize(&y);
  }
  MetricsRegistry::Global().GetCounter("rsvd/power_iters")
      ->Add(opt.power_iters);

  TraceSpan project_span("rsvd/project");
  // Line 5: B = A Y.                                    // mkl_sparse_s_mm
  Matrix b = a.Multiply(y);
  // Line 6: Z = B P.                                    // cblas_sgemm
  Matrix z = Gemm(b, p);
  // Line 7: orthonormalize Z.         // LAPACKE_sgeqrf, LAPACKE_sorgqr
  Orthonormalize(&z);
  // Line 8: C = Z^T B.                                  // cblas_sgemm
  Matrix c = GemmTN(z, b);
  project_span.End();
  // Line 9: SVD of the small matrix C = U S V^T.        // LAPACKE_sgesvd
  TraceSpan small_span("rsvd/small_svd");
  Result<SvdResult> small_result = JacobiSvd(c);
  small_span.End();
  if (!small_result.ok()) return small_result.status();
  SvdResult& small = *small_result;
  // Line 10: return (Z U, S, Y V).                      // cblas_sgemm
  TraceSpan recover_span("rsvd/recover");
  Matrix zu = Gemm(z, small.u);
  Matrix yv = Gemm(y, small.v);

  RandomizedSvdResult out;
  out.u = zu.FirstColumns(opt.rank);
  out.v = yv.FirstColumns(opt.rank);
  out.sigma.assign(small.sigma.begin(), small.sigma.begin() + opt.rank);
  return out;
}

Matrix EmbeddingFromSvd(const RandomizedSvdResult& svd) {
  Matrix x = svd.u;
  std::vector<float> scale(svd.sigma.size());
  for (size_t j = 0; j < scale.size(); ++j) {
    scale[j] = svd.sigma[j] > 0 ? std::sqrt(svd.sigma[j]) : 0.0f;
  }
  x.ScaleColumns(scale);
  return x;
}

}  // namespace lightne
