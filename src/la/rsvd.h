// Randomized SVD following Algorithm 3 of the paper (Halko–Martinsson–Tropp
// with a two-sided projection). Lines 2-5 run call-for-call; the comments
// name the MKL routine each replaces. Lines 6-10 (Z = orth(B P) for a random
// P, the SVD Z^T B = U' S V'^T, return (Z U', S, Y V')) run as one Gram
// eigensolve, the eigSVD of SketchNE / NetMF+: P is invertible, so
// Z Z^T B = B and the result is exactly the SVD of B Y^T, whatever P is,
// that is B's own U and S (Y is orthonormal). B^T B = V' S^2 V'^T gives
// S and U = B V' S^-1. The Gram squares B's condition number, so a kept
// column with sigma_j <= 1e-4 sigma_1, mostly rounding in float, comes back
// zero with sigma_j = 0 and counts under `rsvd/floored_columns`.
#ifndef LIGHTNE_LA_RSVD_H_
#define LIGHTNE_LA_RSVD_H_

#include <vector>

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/status.h"

namespace lightne {

struct RandomizedSvdOptions {
  uint64_t rank = 128;        // d: number of singular pairs to return
  uint64_t oversample = 10;   // extra projection columns
  uint64_t power_iters = 0;   // extra subspace iterations (0 = Algo 3 as-is)
  bool symmetric = false;     // skip the explicit transpose when A = A^T
  uint64_t seed = 1;
};

struct RandomizedSvdResult {
  Matrix u;                  // n x rank
  std::vector<float> sigma;  // rank, descending
};

/// Approximate truncated SVD of a sparse n x n matrix: A ~ U diag(sigma) V^T
/// (V is not formed). Fails with kInvalidArgument on a non-square input or
/// a rank that exceeds its dimension, and propagates the eigensolve's
/// kInvalidArgument (non-finite input) and kInternal (non-convergence).
/// At most three dense n x (rank + oversample) float panels' worth is alive
/// at a time: two panels, or one panel and the n x q double workspace of a
/// HouseholderQr fallback.
Result<RandomizedSvdResult> RandomizedSvd(const SparseMatrix& a,
                                          const RandomizedSvdOptions& opt);

/// The network-embedding convention: X = U * diag(sqrt(sigma)).
Matrix EmbeddingFromSvd(RandomizedSvdResult svd);

}  // namespace lightne

#endif  // LIGHTNE_LA_RSVD_H_
