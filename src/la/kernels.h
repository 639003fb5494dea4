// Cache-blocked dense/sparse kernel layer (DESIGN.md §8).
//
// The paper runs Algorithm 3 through MKL (cblas_sgemm, mkl_sparse_s_mm,
// LAPACKE); this layer is the tuned from-scratch substitute. Every hot
// kernel is a naive reference plus a blocked kernel compiled in two arms:
//
//  - Naive* reference kernels: textbook triple loops. Kept compiled
//    permanently — they are the accuracy oracle for the blocked kernels and
//    the denominator of the recorded perf baseline
//    (bench/bench_kernels_baseline.cc → BENCH_kernels.json).
//  - Blocked kernels, reached through Gemm (la/matrix.h), GemmUpper,
//    kernels::GemmTnDouble and SparseMatrix::Multiply (and the propagation
//    sweeps in core/spectral_propagation.cc): L1/L2 cache blocking with
//    packed B panels, __restrict-qualified inner loops the compiler
//    auto-vectorizes, parallelized over row panels. Each hot loop body is
//    compiled twice through SimdArms below, for baseline x86-64 and under
//    target("avx2"), and ActiveSimdArm() picks one at run time, as MKL
//    picks its code path.
//
// Determinism contract (relied on by the 1-vs-N-worker tests): every
// blocked kernel accumulates each output element in exactly the same order
// and precision as its naive reference, and partitions work as a function
// of the problem shape only — never the worker count or the SIMD arm. Gemm
// and Spmm are therefore bit-identical to their references, across worker
// counts and across arms. GemmTnDouble reduces per-element in double
// through a shape-determined block partition: still bit-identical across
// worker counts and arms, and equal to its row-order reference up to the
// double rounding of the block merge (tested at 1e-12 relative Frobenius).
// "Same order and precision" includes no fused multiply-add: the AVX2 arm's
// target carries no fma, and the root CMakeLists.txt builds with
// -ffp-contract=off, so a wider target (-march=native) rounds every product
// before it is added, as the references do.
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

/// C = A^T * B as an m x n row-major double buffer (m = a.cols(),
/// n = b.cols()): one double accumulator per element, rows ascending.
std::vector<double> NaiveGemmTN(const Matrix& a, const Matrix& b);

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

/// C = A^T * B as an m x n row-major double buffer (m = a.cols(),
/// n = b.cols()): the Grams of CholeskyQR2, the rSVD tail and the smoothing.
/// When a and b are the same object (a Gram), only j >= i is accumulated
/// and mirrored: the result is bit-identical to passing a copy of a as b.
std::vector<double> GemmTnDouble(const Matrix& a, const Matrix& b);

/// C = A * U for a square upper-triangular U: Gemm's loop nest with the
/// products of U's zero triangle skipped (CholeskyQR2's Y * R^-1).
/// Precondition: U(k, j) is +0 or -0 for every k > j, and A is finite. Then
/// each skipped product is +-0 and cannot change the float accumulator,
/// which starts at +0 and never becomes -0, so the result is bit-identical
/// to NaiveGemm(a, u), its oracle. A non-finite A (0 * inf is NaN) breaks
/// that equality.
Matrix GemmUpper(const Matrix& a, const Matrix& u);

/// Number of row blocks GemmTnDouble partitions its reduction into: a
/// function of the shape (rows, m, n) only — never the worker count — so the
/// blockwise double reduction is deterministic for any pool size. Exposed
/// for tests.
uint64_t GemmTnBlocks(uint64_t rows, uint64_t m, uint64_t n);

// ------------------------------------------------------------- SIMD arms

/// The instruction sets a two-arm kernel is compiled for.
enum class SimdArm { kGeneric, kAvx2 };

/// The arm the two-arm kernels run when called on this thread: kAvx2 when
/// the CPU has AVX2 (asked once per process) and no GenericSimdRegion is
/// open on this thread; kGeneric otherwise, and on every non-x86-64 build.
SimdArm ActiveSimdArm();

/// "generic" or "avx2".
const char* SimdArmName(SimdArm arm);

/// Forces ActiveSimdArm() to kGeneric on the calling thread for the guard's
/// lifetime, as SequentialRegion forces one worker: lets the arm tests and
/// the kernel baseline run the generic arm on an AVX2 host. A kernel picks
/// its arm on the calling thread before its ParallelFor, so the guard
/// covers the pool's workers too; a kernel called from inside a pool task
/// picks on that worker, which the guard does not reach.
class GenericSimdRegion {
 public:
  GenericSimdRegion();
  ~GenericSimdRegion();
  GenericSimdRegion(const GenericSimdRegion&) = delete;
  GenericSimdRegion& operator=(const GenericSimdRegion&) = delete;

 private:
  bool saved_;
};

/// Two compilations of one loop body. kBody must be declared
/// [[gnu::always_inline]] inline and hold its loops itself: SimdArms::Avx2
/// inlines it under target("avx2"), but a lambda defined inside either
/// function is a function of its own, compiled for the baseline target.
/// So a kernel takes Pick() on the calling thread and calls the result from
/// inside its ParallelFor lambda. Both arms run the same C++ with each
/// element's operations in the same order, and the avx2 target carries no
/// fma, so their results are byte-identical.
template <auto kBody>
struct SimdArms;

template <typename... Args, void (*kBody)(Args...)>
struct SimdArms<kBody> {
  static void Generic(Args... args) { kBody(args...); }
#if defined(__x86_64__)
  __attribute__((target("avx2"))) static void Avx2(Args... args) {
    kBody(args...);
  }
#endif
  /// The arm ActiveSimdArm() names.
  static auto Pick() -> void (*)(Args...) {
#if defined(__x86_64__)
    if (ActiveSimdArm() == SimdArm::kAvx2) return &Avx2;
#endif
    return &Generic;
  }
};

}  // namespace kernels
}  // namespace lightne

#endif  // LIGHTNE_LA_KERNELS_H_
