#include "la/sparse.h"

#include <algorithm>

#include "la/kernels.h"
#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "parallel/sort.h"

namespace lightne {

SparseMatrix SparseMatrix::FromCsr(uint64_t rows, uint64_t cols,
                                   std::vector<uint64_t> row_offsets,
                                   std::vector<uint32_t> col_indices,
                                   std::vector<float> values) {
  LIGHTNE_CHECK_EQ(row_offsets.size(), rows + 1);
  LIGHTNE_CHECK_EQ(col_indices.size(), values.size());
  LIGHTNE_CHECK_EQ(row_offsets.back(), values.size());
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_ = std::move(row_offsets);
  m.col_indices_ = std::move(col_indices);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::FromEntries(
    uint64_t rows, uint64_t cols,
    std::vector<std::pair<uint64_t, double>> entries) {
  const std::vector<std::pair<uint64_t, double>> sums =
      SortHistogram(std::move(entries));
  const uint64_t nnz = sums.size();
  std::vector<uint32_t> col_indices(nnz);
  std::vector<float> values(nnz);
  ParallelFor(0, nnz, [&](uint64_t k) {
    col_indices[k] = static_cast<uint32_t>(sums[k].first & 0xffffffffull);
    LIGHTNE_CHECK_LT(col_indices[k], cols);
    values[k] = static_cast<float>(sums[k].second);
  });
  return FromCsr(
      rows, cols,
      RowOffsets(rows, nnz, [&](uint64_t k) { return sums[k].first >> 32; }),
      std::move(col_indices), std::move(values));
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

// Counting transpose: count each column's entries, scan, then scatter the
// rows in order, so every output row receives its columns ascending.
SparseMatrix SparseMatrix::Transposed() const {
  std::vector<uint64_t> offsets(cols_ + 1, 0);
  for (const uint32_t c : col_indices_) ++offsets[c + 1];
  for (uint64_t c = 0; c < cols_; ++c) offsets[c + 1] += offsets[c];
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<uint32_t> col_indices(nnz());
  std::vector<float> values(nnz());
  for (uint64_t i = 0; i < rows_; ++i) {
    for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
      const uint64_t at = cursor[col_indices_[k]]++;
      col_indices[at] = static_cast<uint32_t>(i);
      values[at] = values_[k];
    }
  }
  return FromCsr(cols_, rows_, std::move(offsets), std::move(col_indices),
                 std::move(values));
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
