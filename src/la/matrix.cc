#include "la/matrix.h"

#include <cmath>

#include "parallel/parallel_for.h"
#include "parallel/reduce.h"
#include "util/random.h"

namespace lightne {

Matrix Matrix::Gaussian(uint64_t rows, uint64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  ParallelFor(
      0, rows,
      [&](uint64_t i) {
        Rng rng = ItemRng(seed ^ 0x6a55ull, i);
        float* row = m.Row(i);
        for (uint64_t j = 0; j < cols; ++j) {
          row[j] = static_cast<float>(rng.Gaussian());
        }
      },
      /*grain=*/64);
  return m;
}

Matrix Matrix::Identity(uint64_t n) {
  Matrix m(n, n);
  ParallelFor(0, n, [&](uint64_t i) { m.At(i, i) = 1.0f; });
  return m;
}

double Matrix::FrobeniusNorm() const {
  double sq = ParallelSum<double>(0, rows_, [&](uint64_t i) {
    const float* row = Row(i);
    double acc = 0;
    for (uint64_t j = 0; j < cols_; ++j) {
      acc += static_cast<double>(row[j]) * row[j];
    }
    return acc;
  });
  return std::sqrt(sq);
}

double Matrix::RowNorm(uint64_t i) const {
  const float* row = Row(i);
  double acc = 0;
  for (uint64_t j = 0; j < cols_; ++j) {
    acc += static_cast<double>(row[j]) * row[j];
  }
  return std::sqrt(acc);
}

void Matrix::Scale(float factor) {
  ParallelFor(0, data_.size(),
              [&](uint64_t k) { data_[k] *= factor; },
              /*grain=*/1 << 16);
}

void Matrix::ScaleColumns(const std::vector<float>& factor) {
  LIGHTNE_CHECK_EQ(factor.size(), cols_);
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        float* row = Row(i);
        for (uint64_t j = 0; j < cols_; ++j) row[j] *= factor[j];
      },
      /*grain=*/256);
}

void Matrix::NormalizeRows() {
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        double norm = RowNorm(i);
        if (norm <= 0) return;
        float inv = static_cast<float>(1.0 / norm);
        float* row = Row(i);
        for (uint64_t j = 0; j < cols_; ++j) row[j] *= inv;
      },
      /*grain=*/256);
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.rows(), b.rows());
  LIGHTNE_CHECK_EQ(a.cols(), b.cols());
  return ParallelMax<double>(0, a.rows(), 0.0, [&](uint64_t i) {
    const float* ra = a.Row(i);
    const float* rb = b.Row(i);
    double mx = 0;
    for (uint64_t j = 0; j < a.cols(); ++j) {
      double d = std::fabs(static_cast<double>(ra[j]) - rb[j]);
      if (d > mx) mx = d;
    }
    return mx;
  });
}

}  // namespace lightne
