// The q x q eigensolve behind the rSVD's eigSVD tail (la/rsvd.h) and ProNE's
// smoothing: B^T B = V L V^T gives a tall panel B's right singular vectors
// V and singular values sqrt(L). Householder tridiagonalization plus the
// implicit-shift symmetric QL step (Golub & Van Loan §8.3), in double.
#ifndef LIGHTNE_LA_SVD_H_
#define LIGHTNE_LA_SVD_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace lightne {

struct SymmetricEigenResult {
  std::vector<double> values;   // q eigenvalues, descending
  std::vector<double> vectors;  // q x q row-major; column j pairs values[j]
};

/// G = V diag(values) V^T for a symmetric q x q row-major matrix g, with V
/// orthogonal. Fails with kInvalidArgument when q is 0, g does not hold
/// q * q entries or an entry is non-finite, and with kInternal ("did not
/// converge") when an eigenvalue is still coupled after the iteration cap.
/// Fault point: "svd/converge".
Result<SymmetricEigenResult> SymmetricEigen(const std::vector<double>& g,
                                            uint64_t q);

}  // namespace lightne

#endif  // LIGHTNE_LA_SVD_H_
