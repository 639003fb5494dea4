#include "la/kernels.h"

#include <algorithm>
#include <cstring>

#include "parallel/parallel_for.h"
#include "parallel/scratch.h"

namespace lightne {

// --------------------------------------------------------- naive references

Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (uint64_t i = 0; i < a.rows(); ++i) {
    for (uint64_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (uint64_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c.At(i, j) = acc;
    }
  }
  return c;
}

std::vector<double> NaiveGemmTN(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.rows(), b.rows());
  std::vector<double> c(a.cols() * b.cols());
  for (uint64_t i = 0; i < a.cols(); ++i) {
    for (uint64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (uint64_t r = 0; r < a.rows(); ++r) {
        acc += static_cast<double>(a.At(r, i)) * b.At(r, j);
      }
      c[i * b.cols() + j] = acc;
    }
  }
  return c;
}

Matrix NaiveTranspose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (uint64_t i = 0; i < a.rows(); ++i) {
    for (uint64_t j = 0; j < a.cols(); ++j) t.At(j, i) = a.At(i, j);
  }
  return t;
}

Matrix NaiveSpmm(const SparseMatrix& a, const Matrix& x) {
  LIGHTNE_CHECK_EQ(a.cols(), x.rows());
  Matrix y(a.rows(), x.cols());
  const uint64_t d = x.cols();
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  for (uint64_t i = 0; i < a.rows(); ++i) {
    float* yi = y.Row(i);
    for (uint64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const float v = vals[k];
      const float* xr = x.Row(cols[k]);
      for (uint64_t j = 0; j < d; ++j) yi[j] += v * xr[j];
    }
  }
  return y;
}

// ------------------------------------------------------- shared primitives

namespace {

// Copies a rows x cols row-major block (leading dims lds -> ldd).
void CopyBlock(const float* __restrict src, uint64_t lds,
               float* __restrict dst, uint64_t ldd, uint64_t rows,
               uint64_t cols) {
  for (uint64_t i = 0; i < rows; ++i) {
    std::memcpy(dst + i * ldd, src + i * lds, cols * sizeof(float));
  }
}

}  // namespace

namespace kernels {

uint64_t GemmTnBlocks(uint64_t rows, uint64_t m, uint64_t n) {
  // One block per ~1K rows caps the per-element reduction tree while giving
  // the pool parallelism on the tall-skinny inputs GemmTnDouble is built
  // for; the byte budget caps the m*n*8-byte partial buffers when m, n are
  // not small.
  constexpr uint64_t kBlockRows = 1024;
  constexpr uint64_t kMaxBlocks = 128;
  constexpr uint64_t kPartialBudgetBytes = 32ull << 20;
  uint64_t blocks = rows / kBlockRows;
  if (blocks > kMaxBlocks) blocks = kMaxBlocks;
  const uint64_t partial_bytes = m * n * sizeof(double);
  if (partial_bytes > 0) {
    const uint64_t mem_cap = kPartialBudgetBytes / partial_bytes;
    if (blocks > mem_cap) blocks = mem_cap;
  }
  return blocks == 0 ? 1 : blocks;
}

namespace {

// Set while a GenericSimdRegion is open on this thread.
thread_local bool tl_generic_simd = false;

SimdArm HostSimdArm() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return SimdArm::kAvx2;
#endif
  return SimdArm::kGeneric;
}

}  // namespace

SimdArm ActiveSimdArm() {
  // Resolved once, on first use (thread-safe static initialization).
  static const SimdArm host = HostSimdArm();
  return tl_generic_simd ? SimdArm::kGeneric : host;
}

const char* SimdArmName(SimdArm arm) {
  return arm == SimdArm::kAvx2 ? "avx2" : "generic";
}

GenericSimdRegion::GenericSimdRegion() : saved_(tl_generic_simd) {
  tl_generic_simd = true;
}

GenericSimdRegion::~GenericSimdRegion() { tl_generic_simd = saved_; }

}  // namespace kernels

// ---------------------------------------------------------- blocked kernels

using kernels::kKc;
using kernels::kMc;
using kernels::kNc;

namespace {

// First column of a strip starting at j_lo that an upper-triangular B row k
// can touch: U(k, j) = 0 for j < k.
inline uint64_t FirstUpperColumn(uint64_t k, uint64_t j_lo) {
  return k > j_lo ? k - j_lo : 0;
}

// What one kMc-row panel of C = A * B reads and writes.
struct GemmPanels {
  const Matrix* a;
  const float* packed;  // B as (kb, jb) tiles of at most kKc x kNc
  Matrix* c;
  uint64_t kb_count;
  uint64_t jb_count;
};

// C = A * B via packed B tiles. B is packed once into (kb, jb) tiles of at
// most kKc x kNc, each stored row-major with its real strip width, so the
// innermost loop streams contiguous panel rows while the C strip (<= 256 B)
// stays in L1. The k loop adds four products to each C element per load and
// store of the strip, left to right in ascending k, then one at a time for
// the remainder: the same sum, rounding for rounding, as NaiveGemm's. Parallel
// over kMc-row panels of A/C; every output element is produced by exactly
// one task, so the result is bit-identical to NaiveGemm and independent of
// the worker count.
//
// kUpperB: B is upper triangular (B(k, j) = 0 for k > j). Tiles and strip
// columns left of row k's diagonal are skipped; a four-row group starts at
// its first row's diagonal, so at most three of its products per strip are
// known zeros. Skipping a product a * 0 is exact when a is finite: the
// accumulator starts at +0.0f and never becomes -0, and x + (+-0) == x.
template <bool kUpperB>
[[gnu::always_inline]] inline void GemmPanel(const GemmPanels& g,
                                             uint64_t ip) {
  const Matrix& a = *g.a;
  const uint64_t m = a.rows();
  const uint64_t k = a.cols();
  const uint64_t n = g.c->cols();
  const uint64_t i_lo = ip * kMc;
  const uint64_t i_hi = std::min(m, i_lo + kMc);
  for (uint64_t kb = 0; kb < g.kb_count; ++kb) {
    const uint64_t k_lo = kb * kKc;
    const uint64_t k_len = std::min(kKc, k - k_lo);
    for (uint64_t i = i_lo; i < i_hi; ++i) {
      const float* __restrict ai = a.Row(i) + k_lo;
      for (uint64_t jb = 0; jb < g.jb_count; ++jb) {
        const uint64_t j_lo = jb * kNc;
        const uint64_t j_len = std::min(kNc, n - j_lo);
        uint64_t p_end = k_len;
        if constexpr (kUpperB) {
          // Rows at or past the strip's end are zero in it.
          if (k_lo >= j_lo + j_len) continue;
          p_end = std::min(k_len, j_lo + j_len - k_lo);
        }
        float* __restrict ci = g.c->Row(i) + j_lo;
        const float* __restrict tile =
            g.packed + (kb * g.jb_count + jb) * kKc * kNc;
        uint64_t p = 0;
        for (; p + 4 <= p_end; p += 4) {
          const float a0 = ai[p], a1 = ai[p + 1];
          const float a2 = ai[p + 2], a3 = ai[p + 3];
          const float* __restrict b0 = tile + p * j_len;
          const float* __restrict b1 = b0 + j_len;
          const float* __restrict b2 = b1 + j_len;
          const float* __restrict b3 = b2 + j_len;
          const uint64_t j0 = kUpperB ? FirstUpperColumn(k_lo + p, j_lo) : 0;
          for (uint64_t j = j0; j < j_len; ++j) {
            ci[j] = ci[j] + a0 * b0[j] + a1 * b1[j] + a2 * b2[j] +
                    a3 * b3[j];
          }
        }
        for (; p < p_end; ++p) {
          const float aip = ai[p];
          const float* __restrict bp = tile + p * j_len;
          const uint64_t j0 = kUpperB ? FirstUpperColumn(k_lo + p, j_lo) : 0;
          for (uint64_t j = j0; j < j_len; ++j) ci[j] += aip * bp[j];
        }
      }
    }
  }
}

template <bool kUpperB>
Matrix BlockedGemm(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.cols(), b.rows());
  const uint64_t m = a.rows();
  const uint64_t k = a.cols();
  const uint64_t n = b.cols();
  Matrix c(m, n);
  if (m == 0 || k == 0 || n == 0) return c;

  const uint64_t kb_count = (k + kKc - 1) / kKc;
  const uint64_t jb_count = (n + kNc - 1) / kNc;
  ScratchArena::Scope scope(ScratchArena::ForCurrentThread());
  float* packed = scope.AllocArray<float>(kb_count * jb_count * kKc * kNc);
  ParallelFor(
      0, kb_count * jb_count,
      [&](uint64_t t) {
        const uint64_t kb = t / jb_count;
        const uint64_t jb = t % jb_count;
        const uint64_t k_lo = kb * kKc;
        const uint64_t k_len = std::min(kKc, k - k_lo);
        const uint64_t j_lo = jb * kNc;
        const uint64_t j_len = std::min(kNc, n - j_lo);
        CopyBlock(b.Row(k_lo) + j_lo, n, packed + t * kKc * kNc, j_len,
                  k_len, j_len);
      },
      /*grain=*/1);

  const GemmPanels panels{&a, packed, &c, kb_count, jb_count};
  const auto panel = kernels::SimdArms<&GemmPanel<kUpperB>>::Pick();
  ParallelFor(
      0, (m + kMc - 1) / kMc, [&](uint64_t ip) { panel(panels, ip); },
      /*grain=*/1);
  return c;
}

}  // namespace

Matrix Gemm(const Matrix& a, const Matrix& b) {
  return BlockedGemm</*kUpperB=*/false>(a, b);
}

Matrix kernels::GemmUpper(const Matrix& a, const Matrix& u) {
  LIGHTNE_CHECK_EQ(u.rows(), u.cols());
  return BlockedGemm</*kUpperB=*/true>(a, u);
}

namespace {

constexpr uint64_t kTnRows = 4;  // rows widened to double per step

// One GemmTnDouble block: acc (m x n) = the sum over rows [lo, hi) of A^T B,
// kTnRows rows at a time; acc is followed by the kTnRows x (m + n) widening
// buffers. kGram: b is a, so only A is widened and only j >= i is summed.
template <bool kGram>
[[gnu::always_inline]] inline void GemmTnBlock(const Matrix& a,
                                               const Matrix& b, uint64_t lo,
                                               uint64_t hi,
                                               double* __restrict acc) {
  const uint64_t m = a.cols();
  const uint64_t n = b.cols();
  double* __restrict aw = acc + m * n;
  double* __restrict bw = aw + kTnRows * m;
  for (uint64_t e = 0; e < m * n; ++e) acc[e] = 0.0;
  for (uint64_t r = lo; r < hi; r += kTnRows) {
    for (uint64_t t = 0; t < kTnRows; ++t) {
      const bool in = r + t < hi;
      for (uint64_t i = 0; i < m; ++i) {
        aw[t * m + i] = in ? a.At(r + t, i) : 0.0;
      }
      if constexpr (!kGram) {
        for (uint64_t j = 0; j < n; ++j) {
          bw[t * n + j] = in ? b.At(r + t, j) : 0.0;
        }
      }
    }
    const double* __restrict bt = kGram ? aw : bw;
    for (uint64_t i = 0; i < m; ++i) {
      double* __restrict acc_row = acc + i * n;
      for (uint64_t j = kGram ? i : 0; j < n; ++j) {
        double sum = acc_row[j];
        for (uint64_t t = 0; t < kTnRows; ++t) {
          sum += aw[t * m + i] * bt[t * n + j];
        }
        acc_row[j] = sum;
      }
    }
  }
}

}  // namespace

// C = A^T * B for tall-skinny A, B. Rows are partitioned into
// GemmTnBlocks(...) contiguous blocks — a function of the shape only — each
// reduced into its own double-precision partial buffer, then merged
// block-ascending. A block widens kTnRows rows at a time to double, zero
// past its end, and adds them to each element in row order: the
// row-at-a-time sum bit for bit (it starts at +0, so never turns -0, and
// x + 0*0 == x). The buffers come from the calling thread's scratch arena,
// so repeated calls of one shape (the rSVD power iterations) reuse warm
// memory.
//
// A Gram (a and b the same object) accumulates only j >= i and the merge
// mirrors each sum to (j, i). Element (j, i) of the general path adds the
// same products, a_ri * a_rj == a_rj * a_ri, in the same row order, so the
// mirrored result is bit-identical to GemmTnDouble(a, copy_of_a). The
// blocks, row order and scratch layout are the general path's.
std::vector<double> kernels::GemmTnDouble(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.rows(), b.rows());
  const bool gram = &a == &b;
  const uint64_t rows = a.rows();
  const uint64_t m = a.cols();
  const uint64_t n = b.cols();
  std::vector<double> c(m * n, 0.0);
  if (rows == 0 || m == 0 || n == 0) return c;
  const uint64_t blocks = kernels::GemmTnBlocks(rows, m, n);
  const uint64_t stride = m * n + kTnRows * (m + n);
  ScratchArena::Scope scope(ScratchArena::ForCurrentThread());
  double* scratch = scope.AllocArray<double>(blocks * stride);
  const auto block = gram ? SimdArms<&GemmTnBlock</*kGram=*/true>>::Pick()
                          : SimdArms<&GemmTnBlock</*kGram=*/false>>::Pick();
  ParallelFor(
      0, blocks,
      [&](uint64_t bidx) {
        block(a, b, rows * bidx / blocks, rows * (bidx + 1) / blocks,
              scratch + bidx * stride);
      },
      /*grain=*/1);
  ParallelFor(0, m * n, [&](uint64_t e) {
    const uint64_t i = e / n;
    const uint64_t j = e % n;
    if (gram && j < i) return;  // written by (j, i)'s mirror
    double sum = 0.0;
    for (uint64_t bidx = 0; bidx < blocks; ++bidx) {
      sum += scratch[bidx * stride + e];
    }
    c[e] = sum;
    if (gram) c[j * n + i] = sum;
  });
  return c;
}

}  // namespace lightne
