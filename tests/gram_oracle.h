// Shared by the Gram tests in la_test.cc: the sum kernels::GemmTnDouble
// must reproduce byte for byte, written as plain loops.
#ifndef LIGHTNE_TESTS_GRAM_ORACLE_H_
#define LIGHTNE_TESTS_GRAM_ORACLE_H_

#include <cstdint>
#include <vector>

#include "la/kernels.h"
#include "la/matrix.h"

namespace lightne::gram_oracle {

/// A^T A as an m x m row-major double buffer: A's rows split into
/// kernels::GemmTnBlocks(rows, m) contiguous blocks, each block's
/// products a_ri * a_rj added to +0 in row order, and the block sums added
/// to +0 block-ascending. With one block it is NaiveGemmTN(a, a).
inline std::vector<double> BlockedRowOrderGram(const Matrix& a) {
  const uint64_t rows = a.rows();
  const uint64_t m = a.cols();
  std::vector<double> g(m * m, 0.0);
  if (rows == 0 || m == 0) return g;
  const uint64_t blocks = kernels::GemmTnBlocks(rows, m);
  for (uint64_t i = 0; i < m; ++i) {
    for (uint64_t j = 0; j < m; ++j) {
      double total = 0.0;
      for (uint64_t b = 0; b < blocks; ++b) {
        double sum = 0.0;
        for (uint64_t r = rows * b / blocks; r < rows * (b + 1) / blocks; ++r) {
          sum += static_cast<double>(a.At(r, i)) * a.At(r, j);
        }
        total += sum;
      }
      g[i * m + j] = total;
    }
  }
  return g;
}

}  // namespace lightne::gram_oracle

#endif  // LIGHTNE_TESTS_GRAM_ORACLE_H_
