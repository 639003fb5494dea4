// Cache-blocked dense/sparse kernel layer (DESIGN.md §8).
//
// The paper runs Algorithm 3 through MKL (cblas_sgemm, mkl_sparse_s_mm,
// LAPACKE); this layer is the tuned from-scratch substitute. Every hot
// kernel exists twice:
//
//  - Naive* reference kernels: textbook triple loops. Kept compiled
//    permanently — they are the accuracy oracle for the blocked kernels and
//    the denominator of the recorded perf baseline
//    (bench/bench_kernels_baseline.cc → BENCH_kernels.json).
//  - Blocked kernels, reached through the public Gemm / GemmTN / Transpose
//    entry points (la/matrix.h) and SparseMatrix::Multiply: L1/L2 cache
//    blocking with packed B panels, __restrict-qualified inner loops the
//    compiler auto-vectorizes, parallelized over row panels.
//
// Determinism contract (relied on by the 1-vs-N-worker tests): every
// blocked kernel accumulates each output element in exactly the same order
// and precision as its naive reference, and partitions work as a function
// of the problem shape only — never the worker count. Gemm, Transpose and
// Spmm are therefore bit-identical to their references and across worker
// counts. GemmTN reduces per-element in double through a shape-determined
// block partition: still bit-identical across worker counts, and equal to
// its reference to ~1 float ulp after the final double→float rounding
// (tested at 1e-12 relative Frobenius, far below that ulp). "Same order and
// precision" includes no fused multiply-add: the root CMakeLists.txt builds
// with -ffp-contract=off, so a wider target (-march=native) rounds every
// product before it is added, as the references do.
#ifndef LIGHTNE_LA_KERNELS_H_
#define LIGHTNE_LA_KERNELS_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "la/sparse.h"

namespace lightne {

// --------------------------------------------------------- naive references

/// C = A * B, i-j-k triple loop, float accumulator, k ascending.
Matrix NaiveGemm(const Matrix& a, const Matrix& b);

/// C = A^T * B, one double accumulator per output element, rows ascending.
Matrix NaiveGemmTN(const Matrix& a, const Matrix& b);

/// B = A^T, element-at-a-time.
Matrix NaiveTranspose(const Matrix& a);

/// Y = A * X for CSR A: row-at-a-time, nnz ascending, float accumulator.
Matrix NaiveSpmm(const SparseMatrix& a, const Matrix& x);

namespace kernels {

// Blocking parameters shared by the blocked kernels (DESIGN.md §8 explains
// the working-set arithmetic).
inline constexpr uint64_t kMc = 64;   ///< A/C row panel handed to one task
inline constexpr uint64_t kKc = 256;  ///< k-panel depth of a packed B tile
inline constexpr uint64_t kNc = 64;   ///< column strip (256 B of a C row)
inline constexpr uint64_t kTransposeTile = 32;  ///< square copy tile

/// C = A^T * B as an m x n row-major double buffer (m = a.cols(),
/// n = b.cols()): the shape-partitioned reduction GemmTN rounds to float.
/// The CholeskyQR Gram in la/qr.cc keeps it in double. When a and b are the
/// same object (a Gram), only j >= i is accumulated and mirrored: the result
/// is bit-identical to passing a copy of a as b.
std::vector<double> GemmTnDouble(const Matrix& a, const Matrix& b);

/// C = A * U for a square upper-triangular U: Gemm's loop nest with the
/// products of U's zero triangle skipped (CholeskyQR2's Y * R^-1).
/// Precondition: U(k, j) is +0 or -0 for every k > j, and A is finite. Then
/// each skipped product is +-0 and cannot change the float accumulator,
/// which starts at +0 and never becomes -0, so the result is bit-identical
/// to NaiveGemm(a, u), its oracle. A non-finite A (0 * inf is NaN) breaks
/// that equality.
Matrix GemmUpper(const Matrix& a, const Matrix& u);

/// Number of row blocks GemmTN partitions its reduction into. Depends only
/// on the shape (rows, m, n) — never the worker count — so the blockwise
/// double reduction is deterministic for any pool size. Exposed for tests.
uint64_t GemmTnBlocks(uint64_t rows, uint64_t m, uint64_t n);

}  // namespace kernels
}  // namespace lightne

#endif  // LIGHTNE_LA_KERNELS_H_
