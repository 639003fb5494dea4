#include "la/sparse.h"

#include <algorithm>
#include <functional>

#include "la/kernels.h"
#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "parallel/sort.h"

namespace lightne {

namespace {

// Builds row offsets from sorted row ids accessed through `row_of`.
std::vector<uint64_t> OffsetsFromSortedRows(
    uint64_t rows, uint64_t nnz,
    const std::function<uint64_t(uint64_t)>& row_of) {
  std::vector<uint64_t> offsets(rows + 1, 0);
  // offsets[r+1] = first index with row > r, found per row by binary search
  // boundaries; cheaper: count occurrences then scan.
  std::vector<std::atomic<uint64_t>> count(rows);
  ParallelFor(0, rows, [&](uint64_t r) {
    count[r].store(0, std::memory_order_relaxed);
  });
  ParallelFor(0, nnz, [&](uint64_t k) {
    count[row_of(k)].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t r = 0; r < rows; ++r) {
    offsets[r + 1] =
        offsets[r] + count[r].load(std::memory_order_relaxed);
  }
  return offsets;
}

}  // namespace

SparseMatrix SparseMatrix::FromSortedTriplets(
    uint64_t rows, uint64_t cols,
    const std::vector<std::pair<uint64_t, float>>& keyed_values) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  const uint64_t nnz = keyed_values.size();
  m.col_indices_.resize(nnz);
  m.values_.resize(nnz);
  ParallelFor(0, nnz, [&](uint64_t k) {
    const uint64_t key = keyed_values[k].first;
    LIGHTNE_CHECK(k == 0 || keyed_values[k - 1].first < key);
    const uint64_t row = key >> 32;
    LIGHTNE_CHECK_LT(row, rows);
    const uint32_t col = static_cast<uint32_t>(key & 0xffffffffull);
    LIGHTNE_CHECK_LT(col, cols);
    m.col_indices_[k] = col;
    m.values_[k] = keyed_values[k].second;
  });
  m.row_offsets_ = OffsetsFromSortedRows(
      rows, nnz, [&](uint64_t k) { return keyed_values[k].first >> 32; });
  return m;
}

SparseMatrix SparseMatrix::FromEntries(
    uint64_t rows, uint64_t cols,
    std::vector<std::pair<uint64_t, double>> entries) {
  ParallelSort(entries.data(), entries.size(),
               [](const auto& a, const auto& b) { return a.first < b.first; });
  // Sum runs of equal keys: keep the first element of each run, accumulate.
  const uint64_t n = entries.size();
  std::vector<uint64_t> head_flag(n);
  ParallelFor(0, n, [&](uint64_t k) {
    head_flag[k] = (k == 0 || entries[k].first != entries[k - 1].first) ? 1 : 0;
  });
  // Sequential-friendly accumulation per run head (runs are contiguous).
  std::vector<std::pair<uint64_t, float>> unique;
  unique.reserve(n);
  // Collect run heads with a pack, then sum each run in parallel.
  std::vector<uint64_t> heads;
  heads.reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    if (head_flag[k]) heads.push_back(k);
  }
  unique.resize(heads.size());
  ParallelFor(
      0, heads.size(),
      [&](uint64_t h) {
        const uint64_t lo = heads[h];
        const uint64_t hi = (h + 1 < heads.size()) ? heads[h + 1] : n;
        double sum = 0;
        for (uint64_t k = lo; k < hi; ++k) sum += entries[k].second;
        unique[h] = {entries[lo].first, static_cast<float>(sum)};
      },
      /*grain=*/1024);
  return FromSortedTriplets(rows, cols, unique);
}

float SparseMatrix::At(uint64_t i, uint32_t j) const {
  auto cols = RowCols(i);
  auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0.0f;
  return values_[row_offsets_[i] + (it - cols.begin())];
}

void SparseMatrix::Prune(float threshold_exclusive) {
  std::vector<uint64_t> new_count(rows_ + 1, 0);
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        uint64_t kept = 0;
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          if (values_[k] > threshold_exclusive) ++kept;
        }
        new_count[i + 1] = kept;
      },
      /*grain=*/512);
  std::vector<uint64_t> new_offsets(rows_ + 1, 0);
  for (uint64_t i = 0; i < rows_; ++i) {
    new_offsets[i + 1] = new_offsets[i] + new_count[i + 1];
  }
  std::vector<uint32_t> new_cols(new_offsets[rows_]);
  std::vector<float> new_vals(new_offsets[rows_]);
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        uint64_t w = new_offsets[i];
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          if (values_[k] > threshold_exclusive) {
            new_cols[w] = col_indices_[k];
            new_vals[w] = values_[k];
            ++w;
          }
        }
      },
      /*grain=*/512);
  row_offsets_ = std::move(new_offsets);
  col_indices_ = std::move(new_cols);
  values_ = std::move(new_vals);
}

namespace {

// Row i of Y = A * X: one full-width pass over the row's nnz, in ascending
// order, into a row only this call writes.
[[gnu::always_inline]] inline void SpmmRow(const SparseMatrix& a,
                                           const Matrix& x, Matrix* y,
                                           uint64_t i) {
  const uint64_t d = x.cols();
  const uint64_t lo = a.row_offsets()[i];
  const uint64_t hi = a.row_offsets()[i + 1];
  const uint32_t* cols = a.col_indices().data();
  const float* vals = a.values().data();
  float* __restrict yi = y->Row(i);
  for (uint64_t k = lo; k < hi; ++k) {
    const float v = vals[k];
    const float* __restrict xk = x.Row(cols[k]);
    for (uint64_t j = 0; j < d; ++j) yi[j] += v * xk[j];
  }
}

}  // namespace

// Row-parallel SPMM (the mkl_sparse_s_mm substitute, DESIGN.md §8). Each
// output row is one full-width pass over the row's nnz: the accumulator row
// is touched on every nnz iteration, so at the RHS widths the pipeline runs
// (a few hundred columns at most) it stays L1-resident however the gathered
// X rows stream. Each output row is owned by one task and written
// flat (no atomic adds), and each element sums its nnz in ascending order,
// so the result is bit-identical to NaiveSpmm for any worker count and
// either SIMD arm.
Matrix SparseMatrix::Multiply(const Matrix& x) const {
  LIGHTNE_CHECK_EQ(cols_, x.rows());
  Matrix y(rows_, x.cols());
  const auto row = kernels::SimdArms<&SpmmRow>::Pick();
  ParallelFor(
      0, rows_, [&](uint64_t i) { row(*this, x, &y, i); }, /*grain=*/64);
  return y;
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  const uint64_t nnz = values_.size();
  // Count per target row (= source column), scan, scatter.
  std::vector<std::atomic<uint64_t>> count(cols_);
  ParallelFor(0, cols_, [&](uint64_t c) {
    count[c].store(0, std::memory_order_relaxed);
  });
  ParallelFor(0, nnz, [&](uint64_t k) {
    count[col_indices_[k]].fetch_add(1, std::memory_order_relaxed);
  });
  t.row_offsets_.assign(cols_ + 1, 0);
  for (uint64_t c = 0; c < cols_; ++c) {
    t.row_offsets_[c + 1] =
        t.row_offsets_[c] + count[c].load(std::memory_order_relaxed);
  }
  t.col_indices_.resize(nnz);
  t.values_.resize(nnz);
  std::vector<std::atomic<uint64_t>> cursor(cols_);
  ParallelFor(0, cols_, [&](uint64_t c) {
    cursor[c].store(t.row_offsets_[c], std::memory_order_relaxed);
  });
  // Scatter by source row so each target row receives sources in ascending
  // order only under sequential execution; sort rows afterward for a
  // deterministic canonical form.
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          const uint64_t slot = cursor[col_indices_[k]].fetch_add(
              1, std::memory_order_relaxed);
          t.col_indices_[slot] = static_cast<uint32_t>(i);
          t.values_[slot] = values_[k];
        }
      },
      /*grain=*/256);
  ParallelFor(
      0, cols_,
      [&](uint64_t c) {
        const uint64_t lo = t.row_offsets_[c], hi = t.row_offsets_[c + 1];
        // Sort (col, value) pairs of this row by col.
        std::vector<std::pair<uint32_t, float>> row(hi - lo);
        for (uint64_t k = lo; k < hi; ++k) {
          row[k - lo] = {t.col_indices_[k], t.values_[k]};
        }
        std::sort(row.begin(), row.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (uint64_t k = lo; k < hi; ++k) {
          t.col_indices_[k] = row[k - lo].first;
          t.values_[k] = row[k - lo].second;
        }
      },
      /*grain=*/256);
  return t;
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        double s = 0;
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          s += values_[k];
        }
        sums[i] = s;
      },
      /*grain=*/512);
  return sums;
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  ParallelFor(0, rows_, [&](uint64_t i) {
    for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
      d.At(i, col_indices_[k]) = values_[k];
    }
  });
  return d;
}

}  // namespace lightne
