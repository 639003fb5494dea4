// CSR sparse matrix with single-precision values — the MKL Sparse BLAS
// counterpart. Holds the sparsifier, the NetMF matrix after the entrywise
// truncated logarithm, and the propagation Laplacian.
#ifndef LIGHTNE_LA_SPARSE_H_
#define LIGHTNE_LA_SPARSE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "la/matrix.h"
#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "util/check.h"

namespace lightne {

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from triplets sorted by (row, col) with no duplicates.
  static SparseMatrix FromSortedTriplets(
      uint64_t rows, uint64_t cols,
      const std::vector<std::pair<uint64_t, float>>& keyed_values);

  /// Builds from unsorted (packed_key, value) pairs, summing duplicates.
  /// packed_key = (row << 32) | col (see PackEdge). Sorts in parallel.
  static SparseMatrix FromEntries(
      uint64_t rows, uint64_t cols,
      std::vector<std::pair<uint64_t, double>> entries);

  /// Marks an unused slot for FromCanonicalSlots.
  static constexpr uint64_t kNoKey = ~0ull;

  /// Builds the symmetric n x n matrix whose upper triangle is held in
  /// `slots` array slots: key_at(i) is a distinct canonical packed key
  /// (row <= col) or kNoKey, value_at(i) its value. Off-diagonal entries are
  /// mirrored. No global sort: count each row's entries from both endpoints,
  /// scan the counts, scatter, then sort each row by column, so the result
  /// depends neither on the slot order nor on the worker count.
  template <typename KeyAt, typename ValueAt>
  static SparseMatrix FromCanonicalSlots(uint64_t n, uint64_t slots,
                                         KeyAt&& key_at, ValueAt&& value_at);

  uint64_t rows() const { return rows_; }
  uint64_t cols() const { return cols_; }
  uint64_t nnz() const { return values_.size(); }

  const std::vector<uint64_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<float>& values() const { return values_; }

  std::span<const uint32_t> RowCols(uint64_t i) const {
    return {col_indices_.data() + row_offsets_[i],
            static_cast<size_t>(row_offsets_[i + 1] - row_offsets_[i])};
  }
  std::span<const float> RowValues(uint64_t i) const {
    return {values_.data() + row_offsets_[i],
            static_cast<size_t>(row_offsets_[i + 1] - row_offsets_[i])};
  }

  /// Entry (i, j) by binary search over row i; 0 if absent.
  float At(uint64_t i, uint32_t j) const;

  /// Applies value = fn(row, col, value) to every entry in parallel.
  template <typename F>
  void TransformEntries(F&& fn);

  /// Removes entries for which keep(value) is false, in parallel. Used to
  /// drop the zeros produced by the truncated logarithm.
  void Prune(float threshold_exclusive = 0.0f);

  /// Y = this * X (mkl_sparse_s_mm counterpart). Parallel over rows, one
  /// full-width pass per row; bit-identical to NaiveSpmm for any worker
  /// count (la/kernels.h).
  Matrix Multiply(const Matrix& x) const;

  /// Returns this^T (parallel counting transpose).
  SparseMatrix Transposed() const;

  /// max_i |sum_j this_ij - target_i|-style row sums, used in tests.
  std::vector<double> RowSums() const;

  /// Approximate memory footprint in bytes.
  uint64_t SizeBytes() const {
    return row_offsets_.size() * sizeof(uint64_t) +
           col_indices_.size() * sizeof(uint32_t) +
           values_.size() * sizeof(float);
  }

  /// Dense copy (tests / tiny matrices only).
  Matrix ToDense() const;

 private:
  uint64_t rows_ = 0;
  uint64_t cols_ = 0;
  std::vector<uint64_t> row_offsets_;  // rows_ + 1
  std::vector<uint32_t> col_indices_;
  std::vector<float> values_;
};

template <typename F>
void SparseMatrix::TransformEntries(F&& fn) {
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          values_[k] = fn(i, col_indices_[k], values_[k]);
        }
      },
      /*grain=*/256);
}

template <typename KeyAt, typename ValueAt>
SparseMatrix SparseMatrix::FromCanonicalSlots(uint64_t n, uint64_t slots,
                                              KeyAt&& key_at,
                                              ValueAt&& value_at) {
  SparseMatrix m;
  m.rows_ = n;
  m.cols_ = n;
  // Each worker takes one contiguous block of slots and keeps its own count,
  // then cursor, per row. Worker w's entries of row r thus fill a sub-range
  // of the row that no other worker writes: no atomics, and no two workers
  // interleaving writes within one row's cache lines.
  std::vector<std::vector<uint64_t>> cursor(
      static_cast<size_t>(NumWorkers()));
  int blocks = 0;
  auto for_each_entry = [&](int worker, int workers, auto&& fn) {
    const uint64_t lo = slots * static_cast<uint64_t>(worker) /
                        static_cast<uint64_t>(workers);
    const uint64_t hi = slots * static_cast<uint64_t>(worker + 1) /
                        static_cast<uint64_t>(workers);
    for (uint64_t i = lo; i < hi; ++i) {
      const uint64_t key = key_at(i);
      if (key == kNoKey) continue;
      fn(i, static_cast<uint32_t>(key >> 32),
         static_cast<uint32_t>(key & 0xffffffffull));
    }
  };
  // 1. Count each row's entries from both endpoints.
  ParallelForWorkers([&](int worker, int workers) {
    if (worker == 0) blocks = workers;
    std::vector<uint64_t>& count = cursor[static_cast<size_t>(worker)];
    count.assign(n, 0);
    for_each_entry(worker, workers, [&](uint64_t, uint32_t row, uint32_t col) {
      LIGHTNE_CHECK_LE(row, col);
      LIGHTNE_CHECK_LT(col, n);
      ++count[row];
      if (row != col) ++count[col];
    });
  });
  // 2. Scan: rows in order, and within a row the workers in order.
  m.row_offsets_.assign(n + 1, 0);
  ParallelFor(0, n, [&](uint64_t r) {
    uint64_t total = 0;
    for (int w = 0; w < blocks; ++w) total += cursor[static_cast<size_t>(w)][r];
    m.row_offsets_[r] = total;
  });
  const uint64_t nnz = ParallelScanExclusive(m.row_offsets_.data(), n + 1);
  ParallelFor(0, n, [&](uint64_t r) {
    uint64_t at = m.row_offsets_[r];
    for (int w = 0; w < blocks; ++w) {
      const uint64_t count = cursor[static_cast<size_t>(w)][r];
      cursor[static_cast<size_t>(w)][r] = at;
      at += count;
    }
  });
  // 3. Scatter, each worker over the same block it counted.
  m.col_indices_.resize(nnz);
  m.values_.resize(nnz);
  ParallelForWorkers([&](int worker, int workers) {
    LIGHTNE_CHECK_EQ(workers, blocks);
    std::vector<uint64_t>& at = cursor[static_cast<size_t>(worker)];
    for_each_entry(worker, workers, [&](uint64_t i, uint32_t row, uint32_t col) {
      const float value = value_at(i);
      m.col_indices_[at[row]] = col;
      m.values_[at[row]++] = value;
      if (row != col) {
        m.col_indices_[at[col]] = row;
        m.values_[at[col]++] = value;
      }
    });
  });
  cursor.clear();
  // 4. Sort each row by column. The slot order within a row is the hash
  // order; columns are distinct, so sorting (column, value bits) words by
  // value sorts by column and makes the layout canonical.
  constexpr uint64_t kRowsPerTask = 256;
  ParallelFor(
      0, (n + kRowsPerTask - 1) / kRowsPerTask,
      [&](uint64_t task) {
        std::vector<uint64_t> row;
        const uint64_t last = std::min(n, (task + 1) * kRowsPerTask);
        for (uint64_t r = task * kRowsPerTask; r < last; ++r) {
          const uint64_t lo = m.row_offsets_[r];
          const uint64_t hi = m.row_offsets_[r + 1];
          row.resize(hi - lo);
          for (uint64_t k = lo; k < hi; ++k) {
            row[k - lo] = uint64_t{m.col_indices_[k]} << 32 |
                          std::bit_cast<uint32_t>(m.values_[k]);
          }
          std::sort(row.begin(), row.end());
          for (uint64_t k = lo; k < hi; ++k) {
            m.col_indices_[k] = static_cast<uint32_t>(row[k - lo] >> 32);
            m.values_[k] = std::bit_cast<float>(
                static_cast<uint32_t>(row[k - lo] & 0xffffffffull));
          }
        }
      },
      /*grain=*/1);
  return m;
}

}  // namespace lightne

#endif  // LIGHTNE_LA_SPARSE_H_
