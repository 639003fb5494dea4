#include "la/kernels.h"

#include <algorithm>

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

namespace kernels {

uint64_t GemmTnBlocks(uint64_t rows, uint64_t m) {
  // One block per ~1K rows caps the per-element reduction tree while giving
  // the pool parallelism on the tall-skinny inputs GemmTnDouble is built
  // for; the byte budget caps the m*m*8-byte partial buffers when m is not
  // small.
  constexpr uint64_t kBlockRows = 1024;
  constexpr uint64_t kMaxBlocks = 128;
  constexpr uint64_t kPartialBudgetBytes = 32ull << 20;
  uint64_t blocks = rows / kBlockRows;
  if (blocks > kMaxBlocks) blocks = kMaxBlocks;
  const uint64_t partial_bytes = m * m * sizeof(double);
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

using kernels::kAvx2Bytes;
using kernels::kGenericBytes;
using kernels::kGramNr;
using kernels::kGramSubRows;
using kernels::kMc;
using kernels::kMr;
using kernels::kNr;

namespace {

// What one kMc-row panel of C = A * B reads and writes.
struct GemmPanels {
  const Matrix* a;
  const float* packed;  // B as ceil(n / kNr) panels of k x kNr, zero past n
  Matrix* c;
};

// One kMc-row panel of C = A * B, as tiles of kMr rows by two vectors of
// kVecBytes (4 x 16 floats under AVX2, 4 x 8 on the baseline target, which
// walks a panel in two halves). A tile's eight vectors stay in registers
// for the whole k loop, each step adding one A element times one packed B
// row, and are stored once. Every C element starts at +0 and adds its
// products in ascending k, as NaiveGemm's float accumulator does, so the
// result is bit-identical to it on either arm. A tile past the panel's last
// row repeats that row and drops the copies; the packed zeros past n are
// never stored.
//
// kUpperB: B is upper triangular (B(k, j) = 0 for k > j), so a tile's k
// loop ends at its last column. Skipping a product a * 0 is exact when a is
// finite: the accumulator starts at +0.0f and never becomes -0, and
// x + (+-0) == x.
template <bool kUpperB, uint64_t kVecBytes>
[[gnu::always_inline]] inline void GemmPanel(const GemmPanels& g,
                                             uint64_t ip) {
  // typedef, not using: GCC 12 drops a dependent vector_size on an alias.
  typedef float Floats __attribute__((vector_size(kVecBytes)));
  typedef float FloatsU
      __attribute__((vector_size(kVecBytes), aligned(4), may_alias));
  static_assert(sizeof(Floats) == kVecBytes);
  constexpr uint64_t kVec = kVecBytes / sizeof(float);
  constexpr uint64_t kVecs = 2;
  constexpr uint64_t kCols = kVecs * kVec;
  static_assert(kNr % kCols == 0);
  const Matrix& a = *g.a;
  const uint64_t k = a.cols();
  const uint64_t n = g.c->cols();
  const uint64_t i_lo = ip * kMc;
  const uint64_t i_hi = std::min(a.rows(), i_lo + kMc);
  for (uint64_t j_lo = 0; j_lo < n; j_lo += kNr) {
    const float* __restrict panel = g.packed + j_lo * k;
    for (uint64_t i = i_lo; i < i_hi; i += kMr) {
      const float* __restrict ai[kMr];
      for (uint64_t t = 0; t < kMr; ++t) {
        ai[t] = a.Row(std::min(i + t, i_hi - 1));
      }
      for (uint64_t jt = 0; jt < kNr && j_lo + jt < n; jt += kCols) {
        const uint64_t j = j_lo + jt;
        const uint64_t p_end = kUpperB ? std::min(k, j + kCols) : k;
        Floats tile[kMr][kVecs] = {};
        for (uint64_t p = 0; p < p_end; ++p) {
          Floats bp[kVecs];
          for (uint64_t v = 0; v < kVecs; ++v) {
            bp[v] = *reinterpret_cast<const FloatsU*>(panel + p * kNr + jt +
                                                      v * kVec);
          }
          for (uint64_t t = 0; t < kMr; ++t) {
            for (uint64_t v = 0; v < kVecs; ++v) {
              tile[t][v] += ai[t][p] * bp[v];
            }
          }
        }
        // A tile on C's right edge is stored through a row buffer.
        const uint64_t cols = std::min(kCols, n - j);
        const bool whole = cols == kCols;
        for (uint64_t t = 0; t < kMr && i + t < i_hi; ++t) {
          float* ci = g.c->Row(i + t) + j;
          float row[kCols];
          float* out = whole ? ci : row;
          for (uint64_t v = 0; v < kVecs; ++v) {
            *reinterpret_cast<FloatsU*>(out + v * kVec) = tile[t][v];
          }
          if (!whole) std::copy(row, row + cols, ci);
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

  // B is packed once: panel jp holds columns [jp * kNr, jp * kNr + kNr) of
  // every row, k x kNr floats, zero past n.
  const uint64_t panels = (n + kNr - 1) / kNr;
  ScratchArena::Scope scope(ScratchArena::ForCurrentThread());
  float* packed = scope.AllocArray<float>(panels * k * kNr);
  ParallelFor(
      0, panels,
      [&](uint64_t jp) {
        const uint64_t j_lo = jp * kNr;
        const uint64_t j_len = std::min(kNr, n - j_lo);
        float* __restrict dst = packed + j_lo * k;
        for (uint64_t p = 0; p < k; ++p, dst += kNr) {
          std::copy(b.Row(p) + j_lo, b.Row(p) + j_lo + j_len, dst);
          std::fill(dst + j_len, dst + kNr, 0.0f);
        }
      },
      /*grain=*/1);

  const GemmPanels panels_in{&a, packed, &c};
  const auto panel =
      kernels::SimdArms<&GemmPanel<kUpperB, kGenericBytes>,
                        &GemmPanel<kUpperB, kAvx2Bytes>>::Pick();
  ParallelFor(
      0, (m + kMc - 1) / kMc, [&](uint64_t ip) { panel(panels_in, ip); },
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

// Rows [lo, hi) of A's Gram, into the block's m x m partial acc. A
// sub-block of at most sub_rows rows is widened into pack as
// ceil(m / kGramNr) panels of rows x kGramNr doubles, zero past m. Each
// tile of acc — kMr rows by two vectors of kVecBytes, 4 x 8 doubles under
// AVX2 and 4 x 4 on the baseline target — whose columns reach its first
// row then stays in registers across the sub-block's rows, ascending, and
// is stored once. Every element starts at +0 and adds a_ri * a_rj row by
// row: the row-order sum bit for bit, on either arm. Tiles straddling the
// diagonal also write some j < i elements, which the merge never reads.
template <uint64_t kVecBytes>
[[gnu::always_inline]] inline void GramBlock(const Matrix& a, uint64_t lo,
                                             uint64_t hi, uint64_t sub_rows,
                                             double* __restrict pack,
                                             double* __restrict acc) {
  typedef double Doubles __attribute__((vector_size(kVecBytes)));
  typedef double DoublesU
      __attribute__((vector_size(kVecBytes), aligned(8), may_alias));
  static_assert(sizeof(Doubles) == kVecBytes);
  constexpr uint64_t kVec = kVecBytes / sizeof(double);
  constexpr uint64_t kVecs = 2;
  constexpr uint64_t kCols = kVecs * kVec;
  static_assert(kGramNr % kCols == 0 && kCols % kMr == 0);
  const uint64_t m = a.cols();
  const uint64_t width = (m + kGramNr - 1) / kGramNr * kGramNr;
  for (uint64_t r0 = lo; r0 < hi; r0 += sub_rows) {
    const uint64_t rows = std::min(sub_rows, hi - r0);
    for (uint64_t r = 0; r < rows; ++r) {
      const float* __restrict src = a.Row(r0 + r);
      for (uint64_t j = 0; j < width; ++j) {
        pack[(j / kGramNr * rows + r) * kGramNr + j % kGramNr] =
            j < m ? src[j] : 0.0;
      }
    }
    // Column c of row r sits at pack[c / kGramNr * rows * kGramNr +
    // r * kGramNr + c % kGramNr].
    for (uint64_t i = 0; i < m; i += kMr) {
      const double* __restrict ap =
          pack + i / kGramNr * rows * kGramNr + i % kGramNr;
      for (uint64_t j = i / kCols * kCols; j < m; j += kCols) {
        const double* __restrict bp =
            pack + j / kGramNr * rows * kGramNr + j % kGramNr;
        // A tile inside acc moves as whole vectors; one on its bottom or
        // right edge goes through a row buffer, zero past m.
        const bool whole = i + kMr <= m && j + kCols <= m;
        const uint64_t cols = std::min(kCols, m - j);
        Doubles tile[kMr][kVecs] = {};
        for (uint64_t t = 0; t < kMr && i + t < m && r0 > lo; ++t) {
          const double* src = acc + (i + t) * m + j;
          double row[kCols] = {};
          if (!whole) {
            std::copy(src, src + cols, row);
            src = row;
          }
          for (uint64_t v = 0; v < kVecs; ++v) {
            tile[t][v] = *reinterpret_cast<const DoublesU*>(src + v * kVec);
          }
        }
        for (uint64_t r = 0; r < rows; ++r) {
          Doubles br[kVecs];
          for (uint64_t v = 0; v < kVecs; ++v) {
            br[v] = *reinterpret_cast<const DoublesU*>(bp + r * kGramNr +
                                                       v * kVec);
          }
          for (uint64_t t = 0; t < kMr; ++t) {
            const double art = ap[r * kGramNr + t];
            for (uint64_t v = 0; v < kVecs; ++v) tile[t][v] += art * br[v];
          }
        }
        for (uint64_t t = 0; t < kMr && i + t < m; ++t) {
          double* dst = acc + (i + t) * m + j;
          double row[kCols];
          double* out = whole ? dst : row;
          for (uint64_t v = 0; v < kVecs; ++v) {
            *reinterpret_cast<DoublesU*>(out + v * kVec) = tile[t][v];
          }
          if (!whole) std::copy(row, row + cols, dst);
        }
      }
    }
  }
}

}  // namespace

// G = A^T A for tall-skinny A. Rows are partitioned into GemmTnBlocks(...)
// contiguous blocks — a function of the shape only — each reduced into its
// own m x m double partial by GramBlock, then merged block-ascending, j >= i
// summed and mirrored to (j, i).
//
// Scratch: the partials plus kGramNr * m doubles per block that the packs
// share (eight widened rows' worth). Each worker takes a fixed set of
// blocks and one pack, whose size sets the sub-block rows; neither changes
// a sum, so the result does not depend on the worker count. The scratch
// comes from the calling thread's arena, so repeated calls of one shape
// (the rSVD power iterations) reuse warm memory; DESIGN.md §8 explains why
// it is not larger.
std::vector<double> kernels::GemmTnDouble(const Matrix& a) {
  const uint64_t rows = a.rows();
  const uint64_t m = a.cols();
  std::vector<double> c(m * m, 0.0);
  if (rows == 0 || m == 0) return c;
  const uint64_t blocks = kernels::GemmTnBlocks(rows, m);
  const uint64_t width = (m + kGramNr - 1) / kGramNr * kGramNr;
  const uint64_t pack_area = blocks * kGramNr * m;
  ScratchArena::Scope scope(ScratchArena::ForCurrentThread());
  double* partials = scope.AllocArray<double>(blocks * m * m + pack_area);
  double* packs = partials + blocks * m * m;
  const auto block =
      SimdArms<&GramBlock<kGenericBytes>, &GramBlock<kAvx2Bytes>>::Pick();
  ParallelForWorkers([&](int worker, int workers) {
    const uint64_t packers = std::min<uint64_t>(workers, blocks);
    const uint64_t w = static_cast<uint64_t>(worker);
    if (w >= packers) return;
    const uint64_t pack_len = pack_area / packers;
    const uint64_t sub_rows = std::min(kGramSubRows, pack_len / width);
    for (uint64_t bidx = w; bidx < blocks; bidx += packers) {
      block(a, rows * bidx / blocks, rows * (bidx + 1) / blocks, sub_rows,
            packs + w * pack_len, partials + bidx * m * m);
    }
  });
  ParallelFor(0, m * m, [&](uint64_t e) {
    const uint64_t i = e / m;
    const uint64_t j = e % m;
    if (j < i) return;  // written by (j, i)'s mirror
    double sum = 0.0;
    for (uint64_t bidx = 0; bidx < blocks; ++bidx) {
      sum += partials[bidx * m * m + e];
    }
    c[e] = sum;
    c[j * m + i] = sum;
  });
  return c;
}

}  // namespace lightne
