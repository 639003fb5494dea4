// CSR sparse matrix with single-precision values — the MKL Sparse BLAS
// counterpart. Holds the sparsifier, the NetMF matrix after the entrywise
// truncated logarithm, and the propagation Laplacian.
#ifndef LIGHTNE_LA_SPARSE_H_
#define LIGHTNE_LA_SPARSE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "la/matrix.h"
#include "parallel/parallel_for.h"
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

}  // namespace lightne

#endif  // LIGHTNE_LA_SPARSE_H_
