// Dense row-major single-precision matrix. The paper performs all dense
// linear algebra in float via Intel MKL; this module is the from-scratch
// substitute (see DESIGN.md §1). Accumulations use double internally.
#ifndef LIGHTNE_LA_MATRIX_H_
#define LIGHTNE_LA_MATRIX_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace lightne {

class Matrix {
 public:
  Matrix() = default;
  Matrix(uint64_t rows, uint64_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// i.i.d. standard Gaussian entries (the vsRngGaussian counterpart in
  /// Algo 3 of the paper). Deterministic in seed, parallel over rows.
  static Matrix Gaussian(uint64_t rows, uint64_t cols, uint64_t seed);

  /// Identity (rows == cols).
  static Matrix Identity(uint64_t n);

  uint64_t rows() const { return rows_; }
  uint64_t cols() const { return cols_; }

  float& At(uint64_t i, uint64_t j) { return data_[i * cols_ + j]; }
  float At(uint64_t i, uint64_t j) const { return data_[i * cols_ + j]; }

  float* Row(uint64_t i) { return data_.data() + i * cols_; }
  const float* Row(uint64_t i) const { return data_.data() + i * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  uint64_t SizeBytes() const { return data_.size() * sizeof(float); }

  /// Frobenius norm (double accumulation).
  double FrobeniusNorm() const;

  /// Euclidean norm of row i.
  double RowNorm(uint64_t i) const;

  /// Scales every entry in place, in parallel.
  void Scale(float factor);

  /// Scales column j by factor[j] in place, in parallel over rows.
  void ScaleColumns(const std::vector<float>& factor);

  /// Normalizes each row to unit L2 norm (rows of zero norm left as-is).
  void NormalizeRows();


 private:
  uint64_t rows_ = 0;
  uint64_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B. Cache-blocked with packed B panels, parallel over row panels
/// of A; bit-identical to NaiveGemm for any worker count (la/kernels.h).
Matrix Gemm(const Matrix& a, const Matrix& b);

/// max_{i,j} |A_ij - B_ij|; shapes must match.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace lightne

#endif  // LIGHTNE_LA_MATRIX_H_
