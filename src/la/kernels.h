// Register-tiled dense/sparse kernel layer (DESIGN.md §8).
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
//    sweeps in core/spectral_propagation.cc). Gemm and the Gram pack their
//    operand into narrow panels and keep a kMr-row tile of C in GCC
//    vector-extension registers (32-byte under AVX2, 16-byte otherwise) for
//    the whole reduction, as the GotoBLAS micro-kernel behind MKL's GEMM
//    and SYRK does; SPMM and the sweeps are
//    __restrict-qualified loops the compiler auto-vectorizes. Work is
//    parallelized over row panels or row blocks. Each hot loop body is
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
// double rounding of the block merge (byte for byte equal to a row-order
// sum per block, merged block-ascending).
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

// Blocking parameters of the register-tiled kernels (DESIGN.md §8 explains
// the register and cache arithmetic).
inline constexpr uint64_t kMc = 64;  ///< A/C row panel handed to one Gemm task
inline constexpr uint64_t kMr = 4;   ///< rows of a C tile, Gemm and Gram alike
inline constexpr uint64_t kNr = 16;  ///< columns of a packed B panel / C tile
inline constexpr uint64_t kGramNr = 8;  ///< columns of a widened Gram panel
inline constexpr uint64_t kGramSubRows = 64;  ///< most rows widened at once

/// G = A^T A as an m x m row-major double buffer (m = a.cols()): the Grams
/// of CholeskyQR2, the rSVD tail and the smoothing. Only j >= i is
/// accumulated; the merge mirrors each sum to (j, i).
std::vector<double> GemmTnDouble(const Matrix& a);

/// C = A * U for a square upper-triangular U: Gemm's tiles with each packed
/// panel's k loop ending at its last column (CholeskyQR2's Y * R^-1).
/// Precondition: U(k, j) is +0 or -0 for every k > j, and A is finite. Then
/// each skipped product is +-0 and cannot change the float accumulator,
/// which starts at +0 and never becomes -0, so the result is bit-identical
/// to NaiveGemm(a, u), its oracle. A non-finite A (0 * inf is NaN) breaks
/// that equality.
Matrix GemmUpper(const Matrix& a, const Matrix& u);

/// Number of row blocks GemmTnDouble partitions its reduction into: a
/// function of the shape (rows, m) only — never the worker count — so the
/// blockwise double reduction is deterministic for any pool size. Exposed
/// for tests.
uint64_t GemmTnBlocks(uint64_t rows, uint64_t m);

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
///
/// A register-tiled body written with GCC vector extensions is a template
/// on its vector bytes, and the AVX2 arm names its own instantiation,
/// kAvx2Body: 16-byte vectors for the baseline target and 32-byte ones
/// under AVX2. A 32-byte GCC vector on a target without AVX is a memory
/// object, so the same tile would leave the generic arm's accumulators and
/// broadcasts on the stack.
template <auto kBody, auto kAvx2Body = kBody>
struct SimdArms;

/// The vector bytes of those two instantiations.
constexpr uint64_t kGenericBytes = 16;
constexpr uint64_t kAvx2Bytes = 32;

template <typename... Args, void (*kBody)(Args...),
          void (*kAvx2Body)(Args...)>
struct SimdArms<kBody, kAvx2Body> {
  static void Generic(Args... args) { kBody(args...); }
#if defined(__x86_64__)
  __attribute__((target("avx2"))) static void Avx2(Args... args) {
    kAvx2Body(args...);
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
