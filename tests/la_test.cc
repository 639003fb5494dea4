#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/spectral_propagation.h"
#include "data/generators.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "gram_oracle.h"
#include "la/embedding_io.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/qr.h"
#include "la/rsvd.h"
#include "la/sparse.h"
#include "la/special.h"
#include "la/svd.h"
#include "parallel/parallel_for.h"
#include "qr_oracle.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/random.h"

namespace lightne {
namespace {

Matrix RefGemmDouble(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (uint64_t i = 0; i < a.rows(); ++i) {
    for (uint64_t j = 0; j < b.cols(); ++j) {
      double acc = 0;
      for (uint64_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.At(i, k)) * b.At(k, j);
      }
      c.At(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// A^T A through kernels::GemmTnDouble, each sum rounded to float.
Matrix GramFloat(const Matrix& a) {
  const std::vector<double> sums = kernels::GemmTnDouble(a);
  Matrix c(a.cols(), a.cols());
  std::copy(sums.begin(), sums.end(), c.data());
  return c;
}

// ----------------------------------------------------------------- Matrix --

TEST(MatrixTest, GaussianIsDeterministicAndStandardized) {
  Matrix a = Matrix::Gaussian(2000, 8, 3);
  Matrix b = Matrix::Gaussian(2000, 8, 3);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0);
  double sum = 0, sq = 0;
  for (uint64_t i = 0; i < a.rows(); ++i) {
    for (uint64_t j = 0; j < a.cols(); ++j) {
      sum += a.At(i, j);
      sq += static_cast<double>(a.At(i, j)) * a.At(i, j);
    }
  }
  const double n = static_cast<double>(a.rows() * a.cols());
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(MatrixTest, GemmMatchesNaive) {
  Matrix a = Matrix::Gaussian(37, 23, 1);
  Matrix b = Matrix::Gaussian(23, 41, 2);
  EXPECT_LT(MaxAbsDiff(Gemm(a, b), NaiveGemm(a, b)), 1e-4);
}

TEST(MatrixTest, GemmTNMatchesTransposeThenGemm) {
  Matrix a = Matrix::Gaussian(5000, 12, 4);
  Matrix expect = RefGemmDouble(NaiveTranspose(a), a);
  EXPECT_LT(MaxAbsDiff(GramFloat(a), expect), 2e-3);
}

TEST(MatrixTest, IdentityGemmIsNoop) {
  Matrix a = Matrix::Gaussian(16, 16, 6);
  EXPECT_LT(MaxAbsDiff(Gemm(a, Matrix::Identity(16)), a), 1e-6);
  EXPECT_LT(MaxAbsDiff(Gemm(Matrix::Identity(16), a), a), 1e-6);
}

TEST(MatrixTest, ScaleAndColumnsAndNorms) {
  Matrix a(2, 3);
  a.At(0, 0) = 3;
  a.At(0, 1) = 4;
  a.At(1, 2) = 2;
  EXPECT_DOUBLE_EQ(a.RowNorm(0), 5.0);
  EXPECT_NEAR(a.FrobeniusNorm(), std::sqrt(29.0), 1e-6);
  a.Scale(2.0f);
  EXPECT_DOUBLE_EQ(a.RowNorm(0), 10.0);
  a.ScaleColumns({1.0f, 0.5f, 1.0f});
  EXPECT_FLOAT_EQ(a.At(0, 1), 4.0f);
  a.NormalizeRows();
  EXPECT_NEAR(a.RowNorm(0), 1.0, 1e-6);
  EXPECT_NEAR(a.RowNorm(1), 1.0, 1e-6);
}

// --------------------------------------------------------------------- QR --

void ExpectOrthonormal(const Matrix& q, double tol) {
  Matrix gram = GramFloat(q);
  EXPECT_LT(MaxAbsDiff(gram, Matrix::Identity(q.cols())), tol);
}

class QrShapes
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(QrShapes, QIsOrthonormalAndQRReconstructs) {
  const auto [n, q] = GetParam();
  Matrix a = Matrix::Gaussian(n, q, n + q);
  Matrix original = a;
  Matrix r = HouseholderQr(&a);
  ExpectOrthonormal(a, 1e-4);
  // R upper triangular.
  for (uint64_t i = 0; i < q; ++i) {
    for (uint64_t j = 0; j < i; ++j) EXPECT_EQ(r.At(i, j), 0.0f);
  }
  EXPECT_LT(MaxAbsDiff(Gemm(a, r), original), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(std::make_pair(4ull, 4ull),
                                           std::make_pair(64ull, 8ull),
                                           std::make_pair(1000ull, 1ull),
                                           std::make_pair(5000ull, 40ull)));

uint64_t QrFallbacks() {
  return MetricsRegistry::Global().GetCounter("rsvd/qr_fallbacks")->Value();
}

// Orthonormalize against the Householder oracle on tall panels of growing
// condition number: orthonormal to float precision and spanning the
// oracle's subspace up to an error that grows with kappa. Up to kappa 1e6
// CholeskyQR2 does the work; at 1e8 the pivot floor sends the panel to
// Householder.
class OrthonormalizeConditioning : public ::testing::TestWithParam<double> {};

TEST_P(OrthonormalizeConditioning, MatchesHouseholderOracle) {
  const double kappa = GetParam();
  const Matrix y = qr_oracle::ConditionedPanel(20000, 24, kappa, 11);
  Matrix q_h = y;
  HouseholderQr(&q_h);
  Matrix q_c = y;
  const uint64_t fallbacks = QrFallbacks();
  Orthonormalize(&q_c);
  EXPECT_EQ(QrFallbacks(), fallbacks + (kappa > 1e6 ? 1 : 0));
  EXPECT_LE(qr_oracle::OrthogonalityError(q_c), 1e-6);
  EXPECT_LE(qr_oracle::SpanDistance(q_h, q_c), 1e-8 * kappa);
}

INSTANTIATE_TEST_SUITE_P(Kappa, OrthonormalizeConditioning,
                         ::testing::Values(1e2, 1e4, 1e6, 1e8));

TEST(QrTest, RankDeficientInputStillGivesOrthonormalQ) {
  // Two identical columns.
  Matrix a = Matrix::Gaussian(200, 1, 13);
  Matrix dup(200, 3);
  for (uint64_t i = 0; i < 200; ++i) {
    dup.At(i, 0) = a.At(i, 0);
    dup.At(i, 1) = a.At(i, 0);
    dup.At(i, 2) = 2.0f * a.At(i, 0);
  }
  Matrix r = HouseholderQr(&dup);
  Matrix gram = GramFloat(dup);
  // Diagonal entries are 0 or 1; off-diagonals ~0.
  for (uint64_t i = 0; i < 3; ++i) {
    for (uint64_t j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_NEAR(gram.At(i, j), 0.0, 1e-4);
      }
    }
  }
  // R reflects rank 1: second and third rows ~0.
  EXPECT_NEAR(r.At(1, 1), 0.0, 1e-3);
  EXPECT_NEAR(r.At(2, 2), 0.0, 1e-3);

  // Through Orthonormalize, with a duplicate and a zero column: the
  // Cholesky meets a zero pivot and the panel falls back to Householder.
  Matrix b = Matrix::Gaussian(200, 1, 14);
  Matrix panel(200, 4);
  for (uint64_t i = 0; i < 200; ++i) {
    panel.At(i, 0) = a.At(i, 0);
    panel.At(i, 1) = a.At(i, 0);
    panel.At(i, 3) = b.At(i, 0);
  }
  const uint64_t fallbacks = QrFallbacks();
  Matrix q = panel;
  Orthonormalize(&q);
  EXPECT_EQ(QrFallbacks(), fallbacks + 1);
  ExpectOrthonormal(q, 1e-4);
  // Both nonzero directions lie in the span of Q.
  EXPECT_LT(qr_oracle::SpanDistance(panel, q), 1e-4);
}

// ---------------------------------------------------- symmetric eigensolve --

// Eigenvalues of a symmetric q x q matrix by cyclic two-sided Jacobi, the
// dense reference: a different algorithm from SymmetricEigen's. Descending.
std::vector<double> JacobiEigenvalues(std::vector<double> a, uint64_t q) {
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0, total = 0.0;
    for (uint64_t i = 0; i < q * q; ++i) total += a[i] * a[i];
    for (uint64_t i = 0; i < q; ++i) {
      for (uint64_t j = i + 1; j < q; ++j) {
        off += 2.0 * a[i * q + j] * a[i * q + j];
      }
    }
    if (off <= 1e-30 * total) break;
    for (uint64_t p = 0; p + 1 < q; ++p) {
      for (uint64_t r = p + 1; r < q; ++r) {
        const double apr = a[p * q + r];
        if (apr == 0.0) continue;
        const double theta = (a[r * q + r] - a[p * q + p]) / (2.0 * apr);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0), s = t * c;
        for (uint64_t k = 0; k < q; ++k) {  // columns p, r
          const double akp = a[k * q + p], akr = a[k * q + r];
          a[k * q + p] = c * akp - s * akr;
          a[k * q + r] = s * akp + c * akr;
        }
        for (uint64_t k = 0; k < q; ++k) {  // rows p, r
          const double apk = a[p * q + k], ark = a[r * q + k];
          a[p * q + k] = c * apk - s * ark;
          a[r * q + k] = s * apk + c * ark;
        }
      }
    }
  }
  std::vector<double> values(q);
  for (uint64_t i = 0; i < q; ++i) values[i] = a[i * q + i];
  std::sort(values.begin(), values.end(), std::greater<double>());
  return values;
}

double MaxAbs(const std::vector<double>& g) {
  double m = 0.0;
  for (const double x : g) m = std::max(m, std::fabs(x));
  return m;
}

// Checks G V = V diag(values) and V^T V = I to double precision, the
// values descending and equal to the Jacobi reference's, all relative to
// max |G|.
void ExpectEigendecomposition(const std::vector<double>& g, uint64_t q,
                              const SymmetricEigenResult& eig) {
  ASSERT_EQ(eig.values.size(), q);
  ASSERT_EQ(eig.vectors.size(), q * q);
  const double scale = std::max(MaxAbs(g), 1e-300);
  const double tol = 1e-13 * static_cast<double>(q);
  const std::vector<double>& v = eig.vectors;
  double residual = 0.0, orthogonality = 0.0;
  for (uint64_t i = 0; i < q; ++i) {
    for (uint64_t j = 0; j < q; ++j) {
      double gv = 0.0, vtv = 0.0;
      for (uint64_t k = 0; k < q; ++k) {
        gv += g[i * q + k] * v[k * q + j];
        vtv += v[k * q + i] * v[k * q + j];
      }
      residual = std::max(residual,
                          std::fabs(gv - v[i * q + j] * eig.values[j]));
      orthogonality = std::max(orthogonality, std::fabs(vtv - (i == j)));
    }
  }
  EXPECT_LE(residual / scale, tol) << "q=" << q;
  EXPECT_LE(orthogonality, tol) << "q=" << q;
  for (uint64_t j = 1; j < q; ++j) {
    EXPECT_GE(eig.values[j - 1], eig.values[j]) << "q=" << q << " j=" << j;
  }
  const std::vector<double> want = JacobiEigenvalues(g, q);
  for (uint64_t j = 0; j < q; ++j) {
    EXPECT_NEAR(eig.values[j], want[j], tol * scale) << "q=" << q << " j=" << j;
  }
}

// Q diag(values) Q^T in double, Q the product of three Householder
// reflectors: orthogonal to double rounding, so the spectrum is `values`.
std::vector<double> WithSpectrum(const std::vector<double>& values,
                                 uint64_t seed) {
  const uint64_t q = values.size();
  std::vector<double> a(q * q, 0.0);
  for (uint64_t i = 0; i < q; ++i) a[i * q + i] = values[i];
  Rng rng(seed);
  for (int reflector = 0; reflector < 3; ++reflector) {
    std::vector<double> v(q);
    double vtv = 0.0;
    for (double& x : v) {
      x = rng.Gaussian();
      vtv += x * x;
    }
    // A <- H A H with H = I - (2 / v^T v) v v^T.
    for (int side = 0; side < 2; ++side) {
      for (uint64_t j = 0; j < q; ++j) {
        double dot = 0.0;
        for (uint64_t k = 0; k < q; ++k) dot += v[k] * a[k * q + j];
        for (uint64_t k = 0; k < q; ++k) {
          a[k * q + j] -= 2.0 / vtv * dot * v[k];
        }
      }
      for (uint64_t i = 0; i < q; ++i) {  // transpose: the other side next
        for (uint64_t j = i + 1; j < q; ++j) {
          std::swap(a[i * q + j], a[j * q + i]);
        }
      }
    }
  }
  return a;
}

TEST(SymmetricEigenTest, RandomSymmetricMatchesReference) {
  for (uint64_t q : {1ull, 2ull, 42ull, 74ull, 138ull}) {
    const Matrix r = Matrix::Gaussian(q, q, 100 + q);
    std::vector<double> g(q * q);
    for (uint64_t i = 0; i < q; ++i) {
      for (uint64_t j = 0; j < q; ++j) {
        g[i * q + j] = 0.5 * (static_cast<double>(r.At(i, j)) + r.At(j, i));
      }
    }
    auto eig = SymmetricEigen(g, q);
    ASSERT_TRUE(eig.ok()) << eig.status().ToString();
    ExpectEigendecomposition(g, q, *eig);
  }
}

TEST(SymmetricEigenTest, DiagonalInputGivesExactEigenvalues) {
  const std::vector<double> diag = {3.0, 1.0, 4.0, 1.5, 9.0, -2.0};
  const uint64_t q = diag.size();
  std::vector<double> g(q * q, 0.0);
  for (uint64_t i = 0; i < q; ++i) g[i * q + i] = diag[i];
  auto eig = SymmetricEigen(g, q);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  EXPECT_EQ(eig->values,
            (std::vector<double>{9.0, 4.0, 3.0, 1.5, 1.0, -2.0}));
  // Eigenvector j is the unit vector of diag's index that holds values[j].
  const uint64_t index[] = {4, 2, 0, 3, 1, 5};
  for (uint64_t j = 0; j < q; ++j) {
    for (uint64_t k = 0; k < q; ++k) {
      EXPECT_EQ(std::fabs(eig->vectors[k * q + j]), k == index[j] ? 1.0 : 0.0)
          << k << "," << j;
    }
  }
}

TEST(SymmetricEigenTest, RepeatedAndClusteredEigenvalues) {
  const std::vector<std::vector<double>> spectra = {
      {5.0, 5.0, 5.0, 5.0, 1.0, 1.0, 0.25, 0.0, 0.0},
      {1.0 + 1e-12, 1.0, 1.0 - 1e-12, 1.0 + 2e-12, 1.0 - 2e-12, 3.0, 3.0,
       3.0 + 1e-14, 0.5},
      std::vector<double>(40, 7.0),
  };
  uint64_t seed = 1;
  for (const std::vector<double>& spectrum : spectra) {
    const uint64_t q = spectrum.size();
    const std::vector<double> g = WithSpectrum(spectrum, seed++);
    auto eig = SymmetricEigen(g, q);
    ASSERT_TRUE(eig.ok()) << eig.status().ToString();
    ExpectEigendecomposition(g, q, *eig);
    std::vector<double> want = spectrum;
    std::sort(want.begin(), want.end(), std::greater<double>());
    for (uint64_t j = 0; j < q; ++j) {
      EXPECT_NEAR(eig->values[j], want[j], 1e-13 * q * want[0]) << j;
    }
  }
}

TEST(SymmetricEigenTest, RankDeficientGramHasZeroEigenvalues) {
  // B = 300 x 12 of exact rank 5: seven columns are copies of the first
  // five scaled by powers of two, or zero. Its Gram has seven eigenvalues
  // at rounding level.
  const Matrix basis = Matrix::Gaussian(300, 5, 31);
  const float scale[7] = {1.0f, 2.0f, -1.0f, 0.5f, 1.0f, -4.0f, 0.0f};
  Matrix b(300, 12);
  for (uint64_t i = 0; i < 300; ++i) {
    for (uint64_t j = 0; j < 5; ++j) b.At(i, j) = basis.At(i, j);
    for (uint64_t j = 0; j < 7; ++j) {
      b.At(i, 5 + j) = scale[j] * basis.At(i, j % 5);
    }
  }
  const std::vector<double> g = kernels::GemmTnDouble(b);
  auto eig = SymmetricEigen(g, 12);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  ExpectEigendecomposition(g, 12, *eig);
  EXPECT_GT(eig->values[4], 1e-3 * eig->values[0]);
  for (uint64_t j = 5; j < 12; ++j) {
    EXPECT_LE(std::fabs(eig->values[j]), 1e-12 * eig->values[0]) << j;
  }
}

TEST(SymmetricEigenTest, RejectsNonFiniteAndMisSizedInput) {
  std::vector<double> g = {2.0, 1.0, 1.0, 2.0};
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    std::vector<double> poisoned = g;
    poisoned[1] = poisoned[2] = bad;
    auto eig = SymmetricEigen(poisoned, 2);
    ASSERT_FALSE(eig.ok());
    EXPECT_EQ(eig.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(SymmetricEigen(g, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SymmetricEigen({}, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SymmetricEigenTest, ArmedConvergeFaultIsInternal) {
  const std::vector<double> g = {2.0, 1.0, 1.0, 2.0};
  FaultRegistry::Global().ArmAlwaysFail("svd/converge");
  auto eig = SymmetricEigen(g, 2);
  FaultRegistry::Global().Disarm("svd/converge");
  ASSERT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kInternal);
  EXPECT_NE(eig.status().ToString().find("converge"), std::string::npos);
  EXPECT_TRUE(SymmetricEigen(g, 2).ok());
}

// ----------------------------------------------------------------- Sparse --

TEST(SparseTest, FromEntriesSumsDuplicates) {
  std::vector<std::pair<uint64_t, double>> entries = {
      {PackEdge(0, 1), 1.0}, {PackEdge(1, 0), 2.0}, {PackEdge(0, 1), 3.0},
      {PackEdge(2, 2), 5.0}};
  SparseMatrix m = SparseMatrix::FromEntries(3, 3, std::move(entries));
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_FLOAT_EQ(m.At(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.At(2, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
}

TEST(SparseTest, MultiplyMatchesDense) {
  Rng rng(17);
  std::vector<std::pair<uint64_t, double>> entries;
  const uint64_t n = 200;
  for (int k = 0; k < 2000; ++k) {
    entries.push_back({PackEdge(static_cast<NodeId>(rng.UniformInt(n)),
                                static_cast<NodeId>(rng.UniformInt(n))),
                       rng.Uniform()});
  }
  SparseMatrix s = SparseMatrix::FromEntries(n, n, std::move(entries));
  Matrix x = Matrix::Gaussian(n, 7, 3);
  Matrix got = s.Multiply(x);
  Matrix expect = NaiveGemm(s.ToDense(), x);
  EXPECT_LT(MaxAbsDiff(got, expect), 1e-3);
}

TEST(SparseTest, TransposeTwiceIsIdentity) {
  Rng rng(23);
  std::vector<std::pair<uint64_t, double>> entries;
  for (int k = 0; k < 1000; ++k) {
    entries.push_back({PackEdge(static_cast<NodeId>(rng.UniformInt(100)),
                                static_cast<NodeId>(rng.UniformInt(150))),
                       rng.Uniform()});
  }
  SparseMatrix m = SparseMatrix::FromEntries(100, 150, std::move(entries));
  SparseMatrix tt = m.Transposed().Transposed();
  ASSERT_EQ(tt.nnz(), m.nnz());
  EXPECT_LT(MaxAbsDiff(tt.ToDense(), m.ToDense()), 1e-7);
  // Transpose really flips.
  EXPECT_LT(MaxAbsDiff(m.Transposed().ToDense(), NaiveTranspose(m.ToDense())),
            1e-7);
}

TEST(SparseTest, TransformAndPrune) {
  std::vector<std::pair<uint64_t, double>> entries = {
      {PackEdge(0, 0), 1.0}, {PackEdge(0, 1), -2.0}, {PackEdge(1, 1), 3.0}};
  SparseMatrix m = SparseMatrix::FromEntries(2, 2, std::move(entries));
  m.TransformEntries([](uint64_t, uint32_t, float v) { return v + 1.0f; });
  EXPECT_FLOAT_EQ(m.At(0, 1), -1.0f);
  m.Prune(0.0f);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_FLOAT_EQ(m.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 4.0f);
}

TEST(SparseTest, RowSums) {
  std::vector<std::pair<uint64_t, double>> entries = {
      {PackEdge(0, 0), 1.5}, {PackEdge(0, 2), 2.5}, {PackEdge(2, 1), -1.0}};
  SparseMatrix m = SparseMatrix::FromEntries(3, 3, std::move(entries));
  auto sums = m.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 4.0);
  EXPECT_DOUBLE_EQ(sums[1], 0.0);
  EXPECT_DOUBLE_EQ(sums[2], -1.0);
}

// The direct CSR builder against the sort-and-merge oracle: the canonical
// keys mirrored by hand and handed to FromEntries.
TEST(SparseTest, FromCanonicalSlotsMatchesFromEntriesOracle) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    const uint64_t n = 700;
    const NodeId hub = 5;
    Rng rng(seed);
    std::map<uint64_t, double> canonical;  // distinct keys, row <= col
    auto add = [&](NodeId a, NodeId b) {
      if (a > b) std::swap(a, b);
      canonical[PackEdge(a, b)] = 0.25 + 1000.0 * rng.Uniform();
    };
    for (int k = 0; k < 3000; ++k) {
      // Vertices >= 600 never appear: empty rows at the end, and every
      // tenth vertex below is skipped too.
      NodeId a = static_cast<NodeId>(rng.UniformInt(600));
      NodeId b = static_cast<NodeId>(rng.UniformInt(600));
      if (a % 10 == 7 || b % 10 == 7) continue;
      add(a, b);
      if (k % 20 == 0) add(a, a);  // diagonal keys
    }
    for (NodeId v = 0; v < 600; v += 2) add(hub, v);  // one hub row
    // Slots as a hash table would hold them: at random positions (linear
    // probing), with empty slots.
    std::vector<std::pair<uint64_t, double>> slots(4 * canonical.size(),
                                                   {SparseMatrix::kNoKey, 0});
    std::vector<std::pair<uint64_t, double>> mirrored;
    for (const auto& [key, value] : canonical) {
      uint64_t at = rng.UniformInt(slots.size());
      while (slots[at].first != SparseMatrix::kNoKey) {
        at = (at + 1) % slots.size();
      }
      slots[at] = {key, value};
      mirrored.push_back({key, value});
      if (PackedSrc(key) != PackedDst(key)) {
        mirrored.push_back({PackEdge(PackedDst(key), PackedSrc(key)), value});
      }
    }
    const SparseMatrix oracle =
        SparseMatrix::FromEntries(n, n, std::move(mirrored));
    const SparseMatrix built = SparseMatrix::FromCanonicalSlots(
        n, slots.size(), [&](uint64_t i) { return slots[i].first; },
        [&](uint64_t i) { return static_cast<float>(slots[i].second); });
    EXPECT_EQ(built.rows(), n);
    EXPECT_EQ(built.cols(), n);
    EXPECT_EQ(built.row_offsets(), oracle.row_offsets());
    EXPECT_EQ(built.col_indices(), oracle.col_indices());
    ASSERT_EQ(built.values().size(), oracle.values().size());
    EXPECT_EQ(0, std::memcmp(built.values().data(), oracle.values().data(),
                             built.values().size() * sizeof(float)));
    EXPECT_GE(built.RowCols(hub).size(), 300u);
    EXPECT_EQ(built.RowCols(7).size(), 0u);
    EXPECT_EQ(built.RowCols(n - 1).size(), 0u);
  }
  // No entries at all: every row empty.
  const SparseMatrix empty = SparseMatrix::FromCanonicalSlots(
      3, 2, [](uint64_t) { return SparseMatrix::kNoKey; },
      [](uint64_t) { return 0.0f; });
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_EQ(empty.row_offsets(), std::vector<uint64_t>(4, 0));
}

// ------------------------------------------------------------------- rSVD --

// Builds a sparse symmetric matrix with planted low-rank structure plus a
// sparse pattern: block-diagonal cliques with strong weights.
SparseMatrix PlantedBlockMatrix(uint64_t n, uint64_t blocks, double weight) {
  std::vector<std::pair<uint64_t, double>> entries;
  const uint64_t size = n / blocks;
  for (uint64_t b = 0; b < blocks; ++b) {
    for (uint64_t i = b * size; i < (b + 1) * size; ++i) {
      for (uint64_t j = b * size; j < (b + 1) * size; ++j) {
        entries.push_back({PackEdge(static_cast<NodeId>(i),
                                    static_cast<NodeId>(j)),
                           weight});
      }
    }
  }
  return SparseMatrix::FromEntries(n, n, std::move(entries));
}

TEST(RsvdTest, RecoversPlantedSpectrum) {
  // 4 blocks of 50 all-ones => eigenvalues {50, 50, 50, 50, 0, ...}.
  SparseMatrix a = PlantedBlockMatrix(200, 4, 1.0);
  RandomizedSvdOptions opt;
  opt.rank = 6;
  opt.oversample = 8;
  opt.symmetric = true;
  opt.seed = 5;
  // Rank 4 < q = 14: the sketch panel is rank-deficient, so at least one
  // orthonormalization falls back to Householder.
  const uint64_t fallbacks = QrFallbacks();
  auto svd = RandomizedSvd(a, opt).value();
  EXPECT_GE(QrFallbacks(), fallbacks + 1);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(svd.sigma[i], 50.0, 0.5) << i;
  EXPECT_NEAR(svd.sigma[4], 0.0, 0.5);
  EXPECT_NEAR(svd.sigma[5], 0.0, 0.5);
}

uint64_t FlooredColumns() {
  return MetricsRegistry::Global().GetCounter("rsvd/floored_columns")->Value();
}

TEST(RsvdTest, ReconstructionErrorSmallForLowRank) {
  // U U^T A = A when U spans A's range; no right factor needed.
  SparseMatrix a = PlantedBlockMatrix(120, 3, 2.0);
  RandomizedSvdOptions opt;
  opt.rank = 3;
  opt.oversample = 10;
  opt.symmetric = true;
  auto svd = RandomizedSvd(a, opt).value();
  const Matrix dense = a.ToDense();
  Matrix recon = Gemm(svd.u, Gemm(NaiveTranspose(svd.u), dense));
  EXPECT_LT(MaxAbsDiff(recon, dense), 0.05);
  ExpectOrthonormal(svd.u, 1e-4);
}

TEST(RsvdTest, RankBelowDFloorsTheMissingColumns) {
  // Rank r = 4 < d = 7: the Gram's eigenvalues past the fourth are at
  // rounding level, so d - r = 3 columns of U and sigma come back zero and
  // are counted.
  SparseMatrix a = PlantedBlockMatrix(200, 4, 1.0);
  RandomizedSvdOptions opt;
  opt.rank = 7;
  opt.oversample = 5;
  opt.symmetric = true;
  opt.seed = 3;
  const uint64_t floored = FlooredColumns();
  auto svd = RandomizedSvd(a, opt).value();
  EXPECT_EQ(FlooredColumns(), floored + 3);
  ASSERT_EQ(svd.sigma.size(), 7u);
  for (uint64_t j = 0; j < 4; ++j) EXPECT_NEAR(svd.sigma[j], 50.0, 0.5) << j;
  for (uint64_t j = 4; j < 7; ++j) {
    EXPECT_EQ(svd.sigma[j], 0.0f) << j;
    for (uint64_t i = 0; i < svd.u.rows(); ++i) {
      ASSERT_EQ(svd.u.At(i, j), 0.0f) << i << "," << j;
    }
  }
  // The kept columns are orthonormal: U^T U = diag(1, 1, 1, 1, 0, 0, 0).
  const Matrix gram = GramFloat(svd.u);
  for (uint64_t i = 0; i < 7; ++i) {
    for (uint64_t j = 0; j < 7; ++j) {
      EXPECT_NEAR(gram.At(i, j), i == j && i < 4 ? 1.0 : 0.0, 1e-4) << i << j;
    }
  }
}

TEST(RsvdTest, NonSymmetricPathMatchesSymmetricOnSymmetricInput) {
  SparseMatrix a = PlantedBlockMatrix(100, 2, 1.5);
  RandomizedSvdOptions opt;
  opt.rank = 4;
  opt.oversample = 6;
  opt.seed = 9;
  opt.symmetric = false;
  auto svd_general = RandomizedSvd(a, opt).value();
  opt.symmetric = true;
  auto svd_symmetric = RandomizedSvd(a, opt).value();
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(svd_general.sigma[i], svd_symmetric.sigma[i], 1.0) << i;
  }
}

TEST(RsvdTest, PowerIterationsImproveSpectralDecay) {
  // A matrix with slowly decaying tail; power iterations should sharpen the
  // captured leading value (never worsen it materially).
  Rng rng(3);
  std::vector<std::pair<uint64_t, double>> entries;
  const uint64_t n = 300;
  for (uint64_t i = 0; i < n; ++i) {
    for (int k = 0; k < 6; ++k) {
      NodeId j = static_cast<NodeId>(rng.UniformInt(n));
      double v = rng.Uniform();
      entries.push_back({PackEdge(static_cast<NodeId>(i), j), v});
      entries.push_back({PackEdge(j, static_cast<NodeId>(i)), v});
    }
  }
  SparseMatrix a = SparseMatrix::FromEntries(n, n, std::move(entries));
  RandomizedSvdOptions base;
  base.rank = 8;
  base.oversample = 4;
  base.symmetric = true;
  auto plain = RandomizedSvd(a, base).value();
  base.power_iters = 3;
  auto powered = RandomizedSvd(a, base).value();
  EXPECT_GE(powered.sigma[0], plain.sigma[0] - 0.05);
}

TEST(RsvdTest, EmbeddingScalesBySqrtSigma) {
  RandomizedSvdResult svd;
  svd.u = Matrix::Identity(3);
  svd.sigma = {4.0f, 1.0f, 0.0f};
  Matrix x = EmbeddingFromSvd(svd);
  EXPECT_FLOAT_EQ(x.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(x.At(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(x.At(2, 2), 0.0f);
}

// ----------------------------------------------------------- embedding IO --

// Per-process scratch path: la_test_mt4 runs this binary concurrently under
// `ctest -j`, so fixed file names would race.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

TEST(EmbeddingIoTest, TextRoundTrip) {
  Matrix x = Matrix::Gaussian(50, 7, 3);
  const std::string path = TempPath("emb.txt");
  ASSERT_TRUE(SaveEmbeddingText(x, path).ok());
  auto loaded = LoadEmbeddingText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows(), 50u);
  ASSERT_EQ(loaded->cols(), 7u);
  EXPECT_LT(MaxAbsDiff(*loaded, x), 1e-4);  // %.6g text precision
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, BinaryRoundTripIsExact) {
  Matrix x = Matrix::Gaussian(128, 16, 9);
  const std::string path = TempPath("emb.bin");
  ASSERT_TRUE(SaveEmbeddingBinary(x, path).ok());
  auto loaded = LoadEmbeddingBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(MaxAbsDiff(*loaded, x), 0.0);
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, RejectsGarbage) {
  const std::string path = TempPath("emb_garbage");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "not an embedding\n");
  std::fclose(f);
  EXPECT_FALSE(LoadEmbeddingText(path).ok());
  EXPECT_FALSE(LoadEmbeddingBinary(path).ok());
  EXPECT_FALSE(LoadEmbeddingText("/nonexistent/x").ok());
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, TextRejectsDuplicateAndOutOfRangeIds) {
  const std::string path = TempPath("emb_dup.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "2 2\n0 1.0 2.0\n0 3.0 4.0\n");
  std::fclose(f);
  EXPECT_FALSE(LoadEmbeddingText(path).ok());
  f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "2 2\n0 1.0 2.0\n5 3.0 4.0\n");
  std::fclose(f);
  EXPECT_FALSE(LoadEmbeddingText(path).ok());
  std::remove(path.c_str());
}

TEST(EmbeddingIoTest, EmptyMatrixRoundTrips) {
  Matrix x(0, 0);
  const std::string path = TempPath("emb_empty.bin");
  ASSERT_TRUE(SaveEmbeddingBinary(x, path).ok());
  auto loaded = LoadEmbeddingBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows(), 0u);
  std::remove(path.c_str());
}

// -------------------------------------------------- blocked kernel layer --

// Relative Frobenius distance ||a - b||_F / ||b||_F (b is the reference).
double RelFrobDiff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double diff_sq = 0.0;
  for (uint64_t i = 0; i < a.rows(); ++i) {
    for (uint64_t j = 0; j < a.cols(); ++j) {
      const double d = static_cast<double>(a.At(i, j)) - b.At(i, j);
      diff_sq += d * d;
    }
  }
  const double ref = b.FrobeniusNorm();
  return ref > 0 ? std::sqrt(diff_sq) / ref : std::sqrt(diff_sq);
}

// Shapes cross every tile edge: rows off multiples of kMr = 4 and of the
// kMc = 64 task panel, n = 1, 15, 16 and 17 mod kNr = 16 (a panel's zero
// padding), k = 1 and k past 256. Identical accumulation order means
// identical bytes (the determinism contract in kernels.h).
class BlockedGemmShapes
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t, uint64_t>> {
};

TEST_P(BlockedGemmShapes, BlockedMatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Matrix a = Matrix::Gaussian(m, k, m * 31 + k);
  Matrix b = Matrix::Gaussian(k, n, k * 17 + n);
  const Matrix got = Gemm(a, b);
  const Matrix want = NaiveGemm(a, b);
  ASSERT_EQ(got.rows(), m);
  ASSERT_EQ(got.cols(), n);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.SizeBytes()), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmShapes,
    ::testing::Values(std::make_tuple(1ull, 1ull, 1ull),
                      std::make_tuple(64ull, 64ull, 64ull),
                      std::make_tuple(37ull, 23ull, 41ull),
                      std::make_tuple(65ull, 257ull, 66ull),
                      std::make_tuple(128ull, 300ull, 64ull),
                      std::make_tuple(200ull, 513ull, 3ull),
                      std::make_tuple(70ull, 130ull, 67ull),
                      std::make_tuple(3ull, 1000ull, 129ull),   // n = 1 mod 16
                      std::make_tuple(5ull, 1ull, 15ull),       // k = 1
                      std::make_tuple(66ull, 7ull, 16ull),
                      std::make_tuple(131ull, 260ull, 17ull),   // rows = 3 mod 4
                      std::make_tuple(7ull, 300ull, 31ull),     // n = 15 mod 16
                      std::make_tuple(2ull, 1ull, 33ull),
                      std::make_tuple(130ull, 1ull, 48ull)));

// The Gram against the row-at-a-time NaiveGemmTN(a, a): within the double
// rounding of the block merge (several blocks), and byte for byte equal to
// the block-partitioned row-order oracle.
class BlockedGemmTNShapes
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(BlockedGemmTNShapes, BlockedMatchesNaiveReference) {
  const auto [rows, m] = GetParam();
  Matrix a = Matrix::Gaussian(rows, m, rows + m);
  const std::vector<double> got = kernels::GemmTnDouble(a);
  const std::vector<double> want = NaiveGemmTN(a, a);
  ASSERT_EQ(got.size(), want.size());
  double diff_sq = 0.0, ref_sq = 0.0;
  for (size_t e = 0; e < got.size(); ++e) {
    diff_sq += (got[e] - want[e]) * (got[e] - want[e]);
    ref_sq += want[e] * want[e];
  }
  EXPECT_LE(std::sqrt(diff_sq), 1e-12 * std::sqrt(ref_sq));
  const std::vector<double> oracle = gram_oracle::BlockedRowOrderGram(a);
  EXPECT_EQ(std::memcmp(got.data(), oracle.data(), got.size() * sizeof(double)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmTNShapes,
    ::testing::Values(std::make_tuple(100ull, 12ull),
                      std::make_tuple(1024ull, 16ull),
                      std::make_tuple(2500ull, 33ull),  // 2 blocks
                      std::make_tuple(5000ull, 7ull),   // 4 blocks
                      std::make_tuple(5000ull, 40ull),
                      std::make_tuple(4097ull, 1ull)));

TEST(BlockedKernelTest, GemmTnBlocksDependOnShapeOnly) {
  // Partition must never see the worker count (determinism contract).
  EXPECT_EQ(kernels::GemmTnBlocks(100, 8), 1ull);
  EXPECT_EQ(kernels::GemmTnBlocks(4096, 8), 4ull);
  // Memory cap engages for fat outputs: 2048x2048 doubles = 32 MiB budget.
  EXPECT_EQ(kernels::GemmTnBlocks(1u << 20, 2048), 1ull);
}

// Zero and negative-zero entries on a diagonal stripe of A.
void SprinkleSignedZeros(Matrix* a) {
  for (uint64_t r = 0; r < a->rows(); r += 5) {
    a->At(r, r % a->cols()) = r % 2 == 0 ? 0.0f : -0.0f;
  }
}

TEST(BlockedKernelTest, GemmTnDoubleIsTheRowOrderSum) {
  // One partition block: the Gram must equal NaiveGemmTN(a, a), the
  // row-at-a-time double sum, bit for bit. m covers every residue mod
  // kGramNr = 8 in one and two panels and the kMr = 4 tile rows; the row
  // counts cross the kGramSubRows = 64 sub-block edge.
  for (uint64_t rows : {1ull, 2ull, 63ull, 64ull, 65ull, 129ull, 1501ull}) {
    for (uint64_t m = 1; m <= 17; ++m) {
      Matrix a = Matrix::Gaussian(rows, m, rows * 31 + m);
      SprinkleSignedZeros(&a);
      ASSERT_EQ(kernels::GemmTnBlocks(rows, m), 1ull);
      const std::vector<double> got = kernels::GemmTnDouble(a);
      const std::vector<double> want = NaiveGemmTN(a, a);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << rows << " x " << m;
    }
  }
}

TEST(BlockedKernelTest, GramIsTheBlockedRowOrderSum) {
  // Several partition blocks: each block's row-order sum, merged
  // block-ascending (tests/gram_oracle.h), byte for byte. Row counts sit on
  // and off the 1024-row block and 64-row sub-block edges (1, 2 and 4
  // blocks); m covers residues 0, 1, 2, 7 mod 8 and a tile row past m.
  for (uint64_t rows : {5ull, 1022ull, 2047ull, 2048ull, 2049ull, 2050ull,
                        3071ull, 4100ull}) {
    for (uint64_t m : {1ull, 7ull, 9ull, 33ull, 42ull, 64ull}) {
      Matrix a = Matrix::Gaussian(rows, m, rows * 7 + m);
      SprinkleSignedZeros(&a);
      const std::vector<double> got = kernels::GemmTnDouble(a);
      const std::vector<double> want = gram_oracle::BlockedRowOrderGram(a);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << rows << " x " << m << ", "
          << kernels::GemmTnBlocks(rows, m) << " blocks";
    }
  }
}

TEST(BlockedKernelTest, GemmUpperIsBitIdenticalToReference) {
  // Finite A, upper-triangular U with +-0 below the diagonal: ending each
  // packed panel's k loop at its last column leaves every float sum as
  // NaiveGemm's. q covers 1, 15, 16 and 17 mod kNr = 16 and passes 256;
  // 70 and 3 rows end off a kMr = 4 tile, 70 in a second kMc panel.
  for (uint64_t rows : {3ull, 70ull}) {
    for (uint64_t q : {1ull, 3ull, 15ull, 16ull, 17ull, 31ull, 33ull, 63ull,
                       64ull, 65ull, 74ull, 138ull, 257ull, 300ull}) {
      Matrix a = Matrix::Gaussian(rows, q, q);
      a.At(rows - 1, q - 1) = 0.0f;
      Matrix u = Matrix::Gaussian(q, q, q + 1);
      for (uint64_t k = 1; k < q; ++k) {
        for (uint64_t j = 0; j < k; ++j) {
          u.At(k, j) = (k + j) % 2 ? -0.0f : 0.0f;
        }
      }
      const Matrix got = kernels::GemmUpper(a, u);
      const Matrix want = NaiveGemm(a, u);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.SizeBytes()), 0)
          << rows << " x " << q;
    }
  }
}

TEST(BlockedKernelTest, SpmmMatchesNaiveReference) {
  Rng rng(71);
  std::vector<std::pair<uint64_t, double>> entries;
  const uint64_t rows = 300, cols = 400;
  for (int k = 0; k < 5000; ++k) {
    entries.push_back({PackEdge(static_cast<NodeId>(rng.UniformInt(rows)),
                                static_cast<NodeId>(rng.UniformInt(cols))),
                       rng.Uniform() - 0.5});
  }
  SparseMatrix s = SparseMatrix::FromEntries(rows, cols, std::move(entries));
  // d values cover narrow, vector-width and ragged RHS panels.
  for (uint64_t d : {7ull, 64ull, 65ull, 200ull, 300ull}) {
    Matrix x = Matrix::Gaussian(cols, d, d);
    Matrix ref = NaiveSpmm(s, x);
    EXPECT_LT(RelFrobDiff(s.Multiply(x), ref), 1e-12) << d;
  }
}

TEST(BlockedKernelTest, GemmIsBitIdenticalToReference) {
  // Stronger than the 1e-12 bound: identical accumulation order means
  // identical bits (the determinism contract in kernels.h).
  Matrix a = Matrix::Gaussian(130, 520, 1);
  Matrix b = Matrix::Gaussian(520, 130, 2);
  EXPECT_EQ(MaxAbsDiff(Gemm(a, b), NaiveGemm(a, b)), 0.0);
}

// ------------------------------------------------------------ SIMD arms --

// Each two-arm kernel (la/kernels.h) gives the same bytes on the dispatched
// arm as under GenericSimdRegion. On a CPU without AVX2 both runs would take
// the generic arm, so the tests skip. The _mt4 variant runs the pool side
// with 4 workers.
bool HostHasAvx2() {
  return kernels::ActiveSimdArm() == kernels::SimdArm::kAvx2;
}

constexpr char kNoAvx2[] = "CPU lacks AVX2: both runs take the generic arm";

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.SizeBytes()) == 0;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SimdArmTest, GenericSimdRegionScopesTheArm) {
  if (!HostHasAvx2()) GTEST_SKIP() << kNoAvx2;
  {
    kernels::GenericSimdRegion outer;
    EXPECT_EQ(kernels::ActiveSimdArm(), kernels::SimdArm::kGeneric);
    {
      kernels::GenericSimdRegion inner;
      EXPECT_EQ(kernels::ActiveSimdArm(), kernels::SimdArm::kGeneric);
    }
    EXPECT_EQ(kernels::ActiveSimdArm(), kernels::SimdArm::kGeneric);
  }
  EXPECT_EQ(kernels::ActiveSimdArm(), kernels::SimdArm::kAvx2);
  EXPECT_STREQ(kernels::SimdArmName(kernels::SimdArm::kAvx2), "avx2");
}

TEST(SimdArmTest, GemmAndGemmUpperArmsAreByteIdentical) {
  if (!HostHasAvx2()) GTEST_SKIP() << kNoAvx2;
  // q from 1 to 300 covers every panel width mod kNr = 16 and k = 1 to past
  // 256; 67 rows leave a three-row last tile in a ragged second kMc panel.
  // The dispatched arm must also equal NaiveGemm.
  for (uint64_t q = 1; q <= 300; ++q) {
    const Matrix a = Matrix::Gaussian(67, q, q);
    const Matrix b = Matrix::Gaussian(q, q, q + 1);
    Matrix u = b;
    for (uint64_t k = 1; k < q; ++k) {
      for (uint64_t j = 0; j < k; ++j) u.At(k, j) = 0.0f;
    }
    const Matrix gemm = Gemm(a, b);
    const Matrix upper = kernels::GemmUpper(a, u);
    EXPECT_TRUE(SameBytes(gemm, NaiveGemm(a, b))) << "Gemm q=" << q;
    EXPECT_TRUE(SameBytes(upper, NaiveGemm(a, u))) << "GemmUpper q=" << q;
    kernels::GenericSimdRegion generic;
    EXPECT_TRUE(SameBytes(Gemm(a, b), gemm)) << "Gemm q=" << q;
    EXPECT_TRUE(SameBytes(kernels::GemmUpper(a, u), upper))
        << "GemmUpper q=" << q;
  }
  // Rectangular: rows 1 to 5 (every residue mod 4), k = 1 and 257, and
  // n = 1, 15, 16, 17 and 33.
  for (uint64_t rows = 1; rows <= 5; ++rows) {
    for (uint64_t k : {1ull, 257ull}) {
      for (uint64_t n : {1ull, 15ull, 16ull, 17ull, 33ull}) {
        const Matrix a = Matrix::Gaussian(rows, k, rows * 7 + k);
        const Matrix b = Matrix::Gaussian(k, n, k + n);
        const Matrix gemm = Gemm(a, b);
        EXPECT_TRUE(SameBytes(gemm, NaiveGemm(a, b)))
            << rows << " x " << k << " x " << n;
        kernels::GenericSimdRegion generic;
        EXPECT_TRUE(SameBytes(Gemm(a, b), gemm))
            << rows << " x " << k << " x " << n;
      }
    }
  }
}

TEST(SimdArmTest, GemmTnDoubleArmsAreByteIdentical) {
  if (!HostHasAvx2()) GTEST_SKIP() << kNoAvx2;
  // Row counts on and off the 64-row sub-block and the 1024-row block; m
  // off and on multiples of the kGramNr = 8 panel, up to the pipeline's
  // 138. The dispatched arm must also equal the row-order oracle.
  for (uint64_t rows : {1ull, 3ull, 6ull, 63ull, 65ull, 1023ull, 1029ull,
                        2051ull, 4099ull}) {
    for (uint64_t m : {1ull, 5ull, 8ull, 42ull, 74ull, 138ull}) {
      Matrix a = Matrix::Gaussian(rows, m, rows + m);
      SprinkleSignedZeros(&a);
      const std::vector<double> gram = kernels::GemmTnDouble(a);
      EXPECT_TRUE(SameBytes(gram, gram_oracle::BlockedRowOrderGram(a)))
          << rows << " x " << m;
      kernels::GenericSimdRegion generic;
      EXPECT_TRUE(SameBytes(kernels::GemmTnDouble(a), gram))
          << rows << " x " << m;
    }
  }
}

TEST(SimdArmTest, SpmmArmsAreByteIdentical) {
  if (!HostHasAvx2()) GTEST_SKIP() << kNoAvx2;
  // Every third row is empty; the widths are 1 and the pipeline's q.
  Rng rng(72);
  std::vector<std::pair<uint64_t, double>> entries;
  const uint64_t rows = 301, cols = 257;
  for (int k = 0; k < 6000; ++k) {
    const uint64_t r = rng.UniformInt(rows);
    if (r % 3 == 0) continue;
    entries.push_back({PackEdge(static_cast<NodeId>(r),
                                static_cast<NodeId>(rng.UniformInt(cols))),
                       rng.Uniform() - 0.5});
  }
  const SparseMatrix s =
      SparseMatrix::FromEntries(rows, cols, std::move(entries));
  ASSERT_EQ(s.RowCols(0).size(), 0u);
  for (uint64_t d : {1ull, 42ull, 74ull, 138ull}) {
    const Matrix x = Matrix::Gaussian(cols, d, d);
    const Matrix dispatched = s.Multiply(x);
    kernels::GenericSimdRegion generic;
    EXPECT_TRUE(SameBytes(s.Multiply(x), dispatched)) << d;
  }
}

TEST(SimdArmTest, ChebyshevFilterArmsAreByteIdentical) {
  if (!HostHasAvx2()) GTEST_SKIP() << kNoAvx2;
  // Isolated vertices included; order 10 runs every epilogue.
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(9, 3000, 41));
  const internal::PropagationOperator op =
      internal::BuildPropagationOperator(g);
  const SpectralPropagationOptions opt;
  for (uint64_t d : {1ull, 32ull, 64ull, 128ull}) {
    const Matrix x = Matrix::Gaussian(g.NumVertices(), d, 100 + d);
    const Matrix dispatched = internal::ChebyshevFilter(op, x, opt);
    kernels::GenericSimdRegion generic;
    EXPECT_TRUE(SameBytes(internal::ChebyshevFilter(op, x, opt), dispatched))
        << d;
  }
}

// ------------------------------------------------ 1-vs-N-worker determinism

// Sparse NetMF-style matrix from a fixed-seed RMAT graph.
SparseMatrix RmatSparse(int scale, uint64_t edges, uint64_t seed) {
  EdgeList list = GenerateRmat(scale, edges, seed);
  const uint64_t n = 1ull << scale;
  std::vector<std::pair<uint64_t, double>> entries;
  entries.reserve(list.edges.size() * 2);
  for (const auto& [u, v] : list.edges) {
    entries.push_back({PackEdge(u, v), 1.0});
    entries.push_back({PackEdge(v, u), 1.0});
  }
  return SparseMatrix::FromEntries(n, n, std::move(entries));
}

void ExpectBitIdentical(const RandomizedSvdResult& a,
                        const RandomizedSvdResult& b) {
  ASSERT_EQ(a.u.rows(), b.u.rows());
  ASSERT_EQ(a.u.cols(), b.u.cols());
  EXPECT_EQ(std::memcmp(a.u.data(), b.u.data(), a.u.SizeBytes()), 0);
  EXPECT_EQ(a.sigma, b.sigma);
}

TEST(DeterminismTest, RandomizedSvdBitIdenticalAcrossWorkerCounts) {
  // The pool's worker count comes from LIGHTNE_NUM_THREADS (the _mt4 test
  // variant runs this with 4 workers); SequentialRegion forces a true
  // 1-worker run in the same process. Every kernel partitions by shape, not
  // worker count, so the results must be bit-identical — not merely close.
  SparseMatrix a = RmatSparse(10, 8000, 97);
  RandomizedSvdOptions opt;
  opt.rank = 16;
  opt.oversample = 8;
  opt.power_iters = 2;
  opt.symmetric = true;
  opt.seed = 12;
  const uint64_t fallbacks = QrFallbacks();
  const uint64_t floored = FlooredColumns();
  auto parallel_run = RandomizedSvd(a, opt).value();
  SequentialRegion sequential;
  auto sequential_run = RandomizedSvd(a, opt).value();
  // Full-rank panels: every orthonormalization stays on CholeskyQR2, and no
  // eigenvalue falls below the floor.
  EXPECT_EQ(QrFallbacks(), fallbacks);
  EXPECT_EQ(FlooredColumns(), floored);
  ExpectBitIdentical(parallel_run, sequential_run);
}

TEST(DeterminismTest, OrthonormalizeBitIdenticalAcrossWorkerCounts) {
  // rmat-small's panel shape (n = 2^14, q = 128 + 10): the Gram through
  // GemmTnDouble's shape partition, the product through Gemm.
  const Matrix y =
      RmatSparse(14, 100000, 5).Multiply(Matrix::Gaussian(1u << 14, 138, 6));
  Matrix parallel_q = y;
  Orthonormalize(&parallel_q);
  Matrix sequential_q = y;
  {
    SequentialRegion sequential;
    Orthonormalize(&sequential_q);
  }
  EXPECT_EQ(MaxAbsDiff(parallel_q, sequential_q), 0.0);
}

TEST(DeterminismTest, NonSymmetricRsvdBitIdenticalAcrossWorkerCounts) {
  SparseMatrix a = RmatSparse(9, 4000, 3);
  RandomizedSvdOptions opt;
  opt.rank = 8;
  opt.oversample = 4;
  opt.symmetric = false;
  opt.seed = 44;
  auto parallel_run = RandomizedSvd(a, opt).value();
  SequentialRegion sequential;
  auto sequential_run = RandomizedSvd(a, opt).value();
  ExpectBitIdentical(parallel_run, sequential_run);
}

// ---------------------------------------------------------------- Bessel --

TEST(SpecialTest, BesselIMatchesReferenceValues) {
  // Reference values from standard tables.
  EXPECT_NEAR(BesselI(0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(BesselI(1, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(BesselI(0, 0.5), 1.0634833707413236, 1e-10);
  EXPECT_NEAR(BesselI(1, 0.5), 0.25789430539089632, 1e-10);
  EXPECT_NEAR(BesselI(2, 0.5), 0.031906149177738255, 1e-10);
  EXPECT_NEAR(BesselI(0, 1.0), 1.2660658777520084, 1e-10);
  EXPECT_NEAR(BesselI(3, 2.0), 0.21273995923985267, 1e-10);
}

TEST(SpecialTest, BesselIDecaysInOrder) {
  for (uint32_t k = 0; k < 10; ++k) {
    EXPECT_GT(BesselI(k, 0.5), BesselI(k + 1, 0.5));
  }
}

}  // namespace
}  // namespace lightne
