// QR factorization / orthonormalization — the LAPACKE_sgeqrf +
// LAPACKE_sorgqr counterpart used by Algo 3 (line 4 and the power
// iterations).
//
// Orthonormalize runs CholeskyQR2 (Fukaya et al., 2014): twice, the Gram
// G = Y^T Y in double through kernels::GemmTnDouble, a q x q Cholesky
// G = R^T R and R^-1 in double, then Y <- Y R^-1 through Gemm —
// bit-identical at any worker count (DESIGN.md §8). A rank-deficient or
// badly conditioned panel falls back to HouseholderQr, which is also the
// test oracle.
#ifndef LIGHTNE_LA_QR_H_
#define LIGHTNE_LA_QR_H_

#include "la/matrix.h"

namespace lightne {

/// Sequential Householder thin QR of an n x q matrix with n >= q.
/// On return *a holds the orthonormal Q (n x q); the returned matrix is the
/// upper-triangular R (q x q). Rank-deficient columns yield zero rows in R
/// and identity-like columns in Q; Q is always orthonormal.
Matrix HouseholderQr(Matrix* a);

/// Replaces *a (n x q, n >= q) by an orthonormal basis of its column span.
/// Traced as `rsvd/orthonormalize`; each panel that falls back to
/// HouseholderQr adds 1 to the `rsvd/qr_fallbacks` counter.
void Orthonormalize(Matrix* a);

}  // namespace lightne

#endif  // LIGHTNE_LA_QR_H_
