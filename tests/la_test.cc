#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "data/generators.h"
#include "graph/types.h"
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
  Matrix b = Matrix::Gaussian(5000, 9, 5);
  Matrix expect = RefGemmDouble(Transpose(a), b);
  EXPECT_LT(MaxAbsDiff(GemmTN(a, b), expect), 2e-3);
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

TEST(MatrixTest, FirstColumnsSelectsPrefix) {
  Matrix a = Matrix::Gaussian(10, 7, 8);
  Matrix b = a.FirstColumns(3);
  ASSERT_EQ(b.cols(), 3u);
  for (uint64_t i = 0; i < 10; ++i) {
    for (uint64_t j = 0; j < 3; ++j) EXPECT_EQ(b.At(i, j), a.At(i, j));
  }
}

// --------------------------------------------------------------------- QR --

void ExpectOrthonormal(const Matrix& q, double tol) {
  Matrix gram = GemmTN(q, q);
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
  Matrix gram = GemmTN(dup, dup);
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

// -------------------------------------------------------------------- SVD --

TEST(SvdTest, ReconstructsRandomMatrix) {
  Matrix a = Matrix::Gaussian(30, 12, 21);
  SvdResult svd = JacobiSvd(a).value();
  // U diag(sigma) V^T == A.
  Matrix us = svd.u;
  us.ScaleColumns(svd.sigma);
  Matrix recon = Gemm(us, Transpose(svd.v));
  EXPECT_LT(MaxAbsDiff(recon, a), 1e-4);
  // Orthonormality and ordering.
  ExpectOrthonormal(svd.u, 1e-4);
  ExpectOrthonormal(svd.v, 1e-4);
  for (size_t i = 1; i < svd.sigma.size(); ++i) {
    EXPECT_GE(svd.sigma[i - 1], svd.sigma[i]);
  }
}

TEST(SvdTest, DiagonalMatrixGivesExactSingularValues) {
  Matrix a(5, 5);
  const float diag[5] = {3.0f, 1.0f, 4.0f, 1.5f, 9.0f};
  for (int i = 0; i < 5; ++i) a.At(i, i) = diag[i];
  SvdResult svd = JacobiSvd(a).value();
  std::vector<float> expect = {9.0f, 4.0f, 3.0f, 1.5f, 1.0f};
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(svd.sigma[i], expect[i], 1e-5);
}

TEST(SvdTest, RankDeficientSigmaHasZeros) {
  Matrix a(10, 4);
  Matrix g = Matrix::Gaussian(10, 2, 31);
  for (uint64_t i = 0; i < 10; ++i) {
    a.At(i, 0) = g.At(i, 0);
    a.At(i, 1) = g.At(i, 1);
    a.At(i, 2) = g.At(i, 0) + g.At(i, 1);
    a.At(i, 3) = g.At(i, 0) - g.At(i, 1);
  }
  SvdResult svd = JacobiSvd(a).value();
  EXPECT_GT(svd.sigma[1], 1e-3);
  EXPECT_NEAR(svd.sigma[2], 0.0, 1e-3);
  EXPECT_NEAR(svd.sigma[3], 0.0, 1e-3);
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
  EXPECT_LT(MaxAbsDiff(m.Transposed().ToDense(), Transpose(m.ToDense())),
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

TEST(RsvdTest, ReconstructionErrorSmallForLowRank) {
  SparseMatrix a = PlantedBlockMatrix(120, 3, 2.0);
  RandomizedSvdOptions opt;
  opt.rank = 3;
  opt.oversample = 10;
  opt.symmetric = true;
  auto svd = RandomizedSvd(a, opt).value();
  Matrix us = svd.u;
  us.ScaleColumns(svd.sigma);
  Matrix recon = Gemm(us, Transpose(svd.v));
  EXPECT_LT(MaxAbsDiff(recon, a.ToDense()), 0.05);
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
  svd.v = Matrix::Identity(3);
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

// Shapes deliberately include non-multiples of every blocking parameter
// (kMc=64, kKc=256, kNc=64) so ragged panel/strip edges are exercised.
class BlockedGemmShapes
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t, uint64_t>> {
};

TEST_P(BlockedGemmShapes, BlockedMatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Matrix a = Matrix::Gaussian(m, k, m * 31 + k);
  Matrix b = Matrix::Gaussian(k, n, k * 17 + n);
  EXPECT_LT(RelFrobDiff(Gemm(a, b), NaiveGemm(a, b)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmShapes,
    ::testing::Values(std::make_tuple(1ull, 1ull, 1ull),
                      std::make_tuple(64ull, 64ull, 64ull),
                      std::make_tuple(37ull, 23ull, 41ull),
                      std::make_tuple(65ull, 257ull, 66ull),
                      std::make_tuple(128ull, 300ull, 64ull),
                      std::make_tuple(200ull, 513ull, 3ull),
                      std::make_tuple(70ull, 130ull, 67ull),  // k = 2 mod 4
                      std::make_tuple(3ull, 1000ull, 129ull)));

class BlockedGemmTNShapes
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t, uint64_t>> {
};

TEST_P(BlockedGemmTNShapes, BlockedMatchesNaiveReference) {
  const auto [rows, m, n] = GetParam();
  Matrix a = Matrix::Gaussian(rows, m, rows + m);
  Matrix b = Matrix::Gaussian(rows, n, rows + n + 1);
  EXPECT_LT(RelFrobDiff(GemmTN(a, b), NaiveGemmTN(a, b)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmTNShapes,
    ::testing::Values(std::make_tuple(100ull, 12ull, 9ull),
                      std::make_tuple(1024ull, 16ull, 16ull),
                      std::make_tuple(2500ull, 33ull, 17ull),  // 2 blocks
                      std::make_tuple(5000ull, 7ull, 40ull),   // 4 blocks
                      std::make_tuple(4097ull, 1ull, 1ull)));

TEST(BlockedKernelTest, GemmTnBlocksDependOnShapeOnly) {
  // Partition must never see the worker count (determinism contract).
  EXPECT_EQ(kernels::GemmTnBlocks(100, 8, 8), 1ull);
  EXPECT_EQ(kernels::GemmTnBlocks(4096, 8, 8), 4ull);
  // Memory cap engages for fat outputs: 2048x2048 doubles = 32 MiB budget.
  EXPECT_EQ(kernels::GemmTnBlocks(1u << 20, 2048, 2048), 1ull);
}

TEST(BlockedKernelTest, GemmTnDoubleIsTheRowOrderSum) {
  // One partition block with a ragged tail of one row: the four-row widened
  // core must equal the row-at-a-time double sum bit for bit, with zero and
  // negative-zero entries in A.
  Matrix a = Matrix::Gaussian(1501, 9, 3);
  Matrix b = Matrix::Gaussian(1501, 7, 4);
  for (uint64_t r = 0; r < 1501; r += 5) {
    a.At(r, r % 9) = r % 2 == 0 ? 0.0f : -0.0f;
  }
  ASSERT_EQ(kernels::GemmTnBlocks(1501, 9, 7), 1ull);
  const std::vector<double> got = kernels::GemmTnDouble(a, b);
  for (uint64_t i = 0; i < 9; ++i) {
    for (uint64_t j = 0; j < 7; ++j) {
      double sum = 0.0;
      for (uint64_t r = 0; r < 1501; ++r) {
        sum += static_cast<double>(a.At(r, i)) * b.At(r, j);
      }
      EXPECT_EQ(got[i * 7 + j], sum) << i << "," << j;
    }
  }
}

TEST(BlockedKernelTest, GramIsBitIdenticalToGeneralPath) {
  // GemmTnDouble(a, a) accumulates j >= i and mirrors; a copy of a as b
  // takes the general path. Row counts cover every residue mod 4 (the
  // widened core's ragged tail) and 1, 2 and 4 partition blocks.
  for (uint64_t rows : {5ull, 6ull, 7ull, 8ull, 1022ull, 2049ull, 2050ull,
                        3071ull, 4100ull}) {
    for (uint64_t m : {1ull, 9ull, 33ull}) {
      Matrix a = Matrix::Gaussian(rows, m, rows * 7 + m);
      a.At(rows / 2, m / 2) = -0.0f;
      const Matrix copy = a;
      const std::vector<double> gram = kernels::GemmTnDouble(a, a);
      const std::vector<double> general = kernels::GemmTnDouble(a, copy);
      ASSERT_EQ(gram.size(), general.size());
      EXPECT_EQ(std::memcmp(gram.data(), general.data(),
                            gram.size() * sizeof(double)),
                0)
          << rows << " x " << m << ", "
          << kernels::GemmTnBlocks(rows, m, m) << " blocks";
    }
  }
}

TEST(BlockedKernelTest, GemmUpperIsBitIdenticalToReference) {
  // Finite A, upper-triangular U with +-0 below the diagonal: skipping the
  // zero triangle leaves every float sum as NaiveGemm's. q crosses kNc = 64
  // and kKc = 256, and covers every residue mod 4 of the unrolled k loop.
  for (uint64_t q : {1ull, 3ull, 63ull, 64ull, 65ull, 74ull, 138ull, 257ull,
                     300ull}) {
    Matrix a = Matrix::Gaussian(70, q, q);
    a.At(69, q - 1) = 0.0f;
    Matrix u = Matrix::Gaussian(q, q, q + 1);
    for (uint64_t k = 1; k < q; ++k) {
      for (uint64_t j = 0; j < k; ++j) u.At(k, j) = (k + j) % 2 ? -0.0f : 0.0f;
    }
    const Matrix got = kernels::GemmUpper(a, u);
    const Matrix want = NaiveGemm(a, u);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.SizeBytes()), 0) << q;
  }
}

TEST(BlockedKernelTest, TransposeMatchesNaiveOnRaggedShapes) {
  for (auto [r, c] : std::vector<std::pair<uint64_t, uint64_t>>{
           {1, 1}, {32, 32}, {33, 31}, {100, 257}, {513, 7}}) {
    Matrix a = Matrix::Gaussian(r, c, r * 1000 + c);
    EXPECT_EQ(MaxAbsDiff(Transpose(a), NaiveTranspose(a)), 0.0);
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
  auto parallel_run = RandomizedSvd(a, opt).value();
  SequentialRegion sequential;
  auto sequential_run = RandomizedSvd(a, opt).value();
  // Full-rank panels: every orthonormalization stays on CholeskyQR2.
  EXPECT_EQ(QrFallbacks(), fallbacks);
  EXPECT_EQ(MaxAbsDiff(parallel_run.u, sequential_run.u), 0.0);
  EXPECT_EQ(MaxAbsDiff(parallel_run.v, sequential_run.v), 0.0);
  ASSERT_EQ(parallel_run.sigma.size(), sequential_run.sigma.size());
  for (size_t i = 0; i < parallel_run.sigma.size(); ++i) {
    EXPECT_EQ(parallel_run.sigma[i], sequential_run.sigma[i]) << i;
  }
}

TEST(DeterminismTest, OrthonormalizeBitIdenticalAcrossWorkerCounts) {
  // rmat-small's panel shape (n = 2^14, q = 128 + 10): the Gram through
  // GemmTN's shape partition, the product through Gemm.
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
  EXPECT_EQ(MaxAbsDiff(parallel_run.u, sequential_run.u), 0.0);
  EXPECT_EQ(MaxAbsDiff(parallel_run.v, sequential_run.v), 0.0);
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
