// Cross-module property tests: invariants checked over parameter sweeps
// (TEST_P) rather than single examples.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/netmf.h"
#include "core/sparsifier.h"
#include "core/spectral_propagation.h"
#include "data/generators.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/weighted_csr.h"
#include "la/qr.h"
#include "la/rsvd.h"
#include "qr_oracle.h"
#include "util/metrics.h"
#include "util/random.h"

namespace lightne {
namespace {

// ---------------------------------------------------------- compression ----

enum class Family { kRmat, kErdosRenyi, kBarabasiAlbert, kSbm };

EdgeList MakeFamily(Family family, uint64_t seed) {
  switch (family) {
    case Family::kRmat:
      return GenerateRmat(11, 30000, seed);
    case Family::kErdosRenyi:
      return GenerateErdosRenyi(2000, 20000, seed);
    case Family::kBarabasiAlbert:
      return GenerateBarabasiAlbert(2000, 4, seed);
    case Family::kSbm: {
      std::vector<NodeId> community;
      return GenerateSbm(2000, 8, 20000, 0.7, seed, &community);
    }
  }
  return {};
}

class CompressionFamilies
    : public ::testing::TestWithParam<std::tuple<Family, uint32_t>> {};

TEST_P(CompressionFamilies, RoundTripAndRandomAccess) {
  const auto [family, block] = GetParam();
  CsrGraph g = CsrGraph::FromEdges(MakeFamily(family, 3));
  CompressedGraph cg = CompressedGraph::FromCsr(g, block);
  ASSERT_EQ(cg.NumDirectedEdges(), g.NumDirectedEdges());
  Rng rng(7);
  for (int trial = 0; trial < 5000; ++trial) {
    NodeId v = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
    ASSERT_EQ(cg.Degree(v), g.Degree(v));
    if (g.Degree(v) == 0) continue;
    uint64_t i = rng.UniformInt(g.Degree(v));
    ASSERT_EQ(cg.Neighbor(v, i), g.Neighbor(v, i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressionFamilies,
    ::testing::Combine(::testing::Values(Family::kRmat, Family::kErdosRenyi,
                                         Family::kBarabasiAlbert,
                                         Family::kSbm),
                       ::testing::Values(4u, 64u, 1024u)));

// ------------------------------------------------------------------ rSVD ----

class RsvdPlantedRank
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(RsvdPlantedRank, RecoversBlockSpectrum) {
  const auto [n, blocks] = GetParam();
  // Block-diagonal all-ones: eigenvalues = block sizes, multiplicity 1 each,
  // rest zero.
  std::vector<std::pair<uint64_t, double>> entries;
  const uint64_t size = n / blocks;
  for (uint64_t b = 0; b < blocks; ++b) {
    for (uint64_t i = b * size; i < (b + 1) * size; ++i) {
      for (uint64_t j = b * size; j < (b + 1) * size; ++j) {
        entries.push_back({PackEdge(static_cast<NodeId>(i),
                                    static_cast<NodeId>(j)),
                           1.0});
      }
    }
  }
  SparseMatrix a = SparseMatrix::FromEntries(n, n, std::move(entries));
  RandomizedSvdOptions opt;
  opt.rank = blocks + 2;
  opt.oversample = 8;
  opt.symmetric = true;
  opt.power_iters = 1;
  opt.seed = n + blocks;
  auto svd = RandomizedSvd(a, opt).value();
  for (uint64_t i = 0; i < blocks; ++i) {
    EXPECT_NEAR(svd.sigma[i], static_cast<double>(size), 0.02 * size) << i;
  }
  EXPECT_NEAR(svd.sigma[blocks], 0.0, 0.02 * size);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RsvdPlantedRank,
                         ::testing::Values(std::make_tuple(64ull, 2ull),
                                           std::make_tuple(240ull, 4ull),
                                           std::make_tuple(900ull, 9ull)));

// -------------------------------------------------------------------- QR ----

// Orthonormalize (CholeskyQR2) and the Householder oracle span the same
// subspace across panel shapes and condition numbers.
class QrProperty
    : public ::testing::TestWithParam<
          std::tuple<std::pair<uint64_t, uint64_t>, double>> {};

TEST_P(QrProperty, OrthonormalizeSpansHouseholderSubspace) {
  const auto [shape, kappa] = GetParam();
  const auto [n, q] = shape;
  const Matrix y = qr_oracle::ConditionedPanel(n, q, kappa, n + q);
  Matrix q_h = y;
  HouseholderQr(&q_h);
  Matrix q_c = y;
  Orthonormalize(&q_c);
  EXPECT_LE(qr_oracle::OrthogonalityError(q_c), 1e-6);
  EXPECT_LE(qr_oracle::SpanDistance(q_h, q_c), 1e-8 * kappa);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QrProperty,
    ::testing::Combine(::testing::Values(std::make_pair(30000ull, 12ull),
                                         std::make_pair(3001ull, 74ull)),
                       ::testing::Values(1e2, 1e4, 1e6)));

// -------------------------------------------------- sparsifier estimator ----

CsrGraph EstimatorGraph() {
  EdgeList list;
  list.num_vertices = 7;
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(2, 0);
  list.Add(2, 3);
  list.Add(3, 4);
  list.Add(4, 5);
  list.Add(0, 6);
  list.Add(6, 5);
  return CsrGraph::FromEdges(std::move(list));
}

class SparsifierEstimator
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool, double>> {};

TEST_P(SparsifierEstimator, UnbiasedAcrossConfigs) {
  const auto [window, downsample, c] = GetParam();
  const CsrGraph g = EstimatorGraph();
  SparsifierOptions opt;
  opt.num_samples = 2000000;
  opt.window = window;
  opt.downsample = downsample;
  opt.downsample_constant = c;
  opt.seed = window * 31 + (downsample ? 7 : 1);
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok());
  Matrix prelog = ComputeDenseNetmfPreLog(g, window, 1.0);
  const double m = static_cast<double>(g.NumUndirectedEdges());
  const double scale = 2.0 * m * m / static_cast<double>(opt.num_samples);
  double worst = 0;
  for (NodeId a = 0; a < g.NumVertices(); ++a) {
    for (NodeId b = 0; b < g.NumVertices(); ++b) {
      const double got = scale * r->matrix.At(a, b) /
                         (static_cast<double>(g.Degree(a)) * g.Degree(b));
      const double expect = prelog.At(a, b);
      const double err = std::fabs(got - expect) / (expect + 0.3);
      worst = std::max(worst, err);
    }
  }
  EXPECT_LT(worst, 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparsifierEstimator,
    ::testing::Values(std::make_tuple(1u, false, 0.0),
                      std::make_tuple(1u, true, 0.0),
                      std::make_tuple(2u, true, 0.5),
                      std::make_tuple(4u, true, 0.0),
                      std::make_tuple(4u, false, 0.0),
                      std::make_tuple(6u, true, 2.0)));

// ----------------------------------------- sampler mass conservation --------

// Every accepted path sample contributes exactly 2/p_e of matrix mass
// (canonical entry + mirror, or a double-weighted diagonal), and the
// sparsifier/mass_fp20 counter accumulates that same quantity rounded to
// 2^-20 fixed point per sample. So for any weighted graph: (a) the counter
// is bit-identical between a forced 1-worker run and a pool-parallel run,
// and (b) the extracted matrix's total mass equals the counter up to
// per-sample rounding (<= 2^-21 each).
class SamplerMassConservation
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

WeightedCsrGraph RandomWeightedGraph(uint64_t seed) {
  EdgeList skeleton = GenerateErdosRenyi(400, 3000, seed);
  WeightedEdgeList list;
  list.num_vertices = skeleton.num_vertices;
  Rng rng(seed * 131 + 7);
  for (auto [u, v] : skeleton.edges) {
    list.Add(u, v, 0.25f + 4.0f * static_cast<float>(rng.Uniform()));
  }
  return WeightedCsrGraph::FromEdges(std::move(list));
}

TEST_P(SamplerMassConservation, CounterMatchesMatrixMassAndWorkerCount) {
  const auto [seed, downsample] = GetParam();
  const WeightedCsrGraph g = RandomWeightedGraph(seed);
  SparsifierOptions opt;
  opt.num_samples = 300000;
  opt.window = 4;
  opt.downsample = downsample;
  opt.seed = seed + 3;

  MetricsRegistry::Global().ResetForTest();
  auto parallel_run = BuildSparsifier(g, opt);
  ASSERT_TRUE(parallel_run.ok());
  const uint64_t parallel_mass =
      MetricsRegistry::Global().Snapshot().CounterValue(
          "sparsifier/mass_fp20");
  EXPECT_EQ(parallel_mass, parallel_run->mass_fp20);

  MetricsRegistry::Global().ResetForTest();
  uint64_t serial_mass = 0;
  {
    SequentialRegion seq;
    auto serial_run = BuildSparsifier(g, opt);
    ASSERT_TRUE(serial_run.ok());
    serial_mass = serial_run->mass_fp20;
  }
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().CounterValue(
                "sparsifier/mass_fp20"),
            serial_mass);
  // (a) order-independent fixed-point sum: bit-identical across schedules.
  EXPECT_EQ(parallel_mass, serial_mass);

  // (b) the counter measures exactly the matrix's total mass, up to the
  // per-sample rounding of at most 2^-21 per accepted sample (plus the
  // float cast each aggregated entry takes on extraction).
  double matrix_mass = 0;
  for (double row_sum : parallel_run->matrix.RowSums()) {
    matrix_mass += row_sum;
  }
  const double counter_mass =
      static_cast<double>(parallel_mass) / internal::kMassFpScale;
  const double rounding_budget =
      static_cast<double>(parallel_run->samples_accepted) /
      (2.0 * internal::kMassFpScale);
  EXPECT_NEAR(matrix_mass, counter_mass,
              rounding_budget + 1e-5 * counter_mass);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SamplerMassConservation,
                         ::testing::Combine(::testing::Values(3ull, 12ull,
                                                              25ull),
                                            ::testing::Bool()));

// ------------------------------------------- spectral propagation filter ----

TEST(PropagationProperty, FilterIsLinearBeforeSmoothing) {
  std::vector<NodeId> community;
  const CsrGraph g =
      CsrGraph::FromEdges(GenerateSbm(500, 3, 4000, 0.7, 5, &community));
  SpectralPropagationOptions opt;
  opt.svd_smoothing = false;  // the Chebyshev filter itself is linear
  Matrix x = Matrix::Gaussian(g.NumVertices(), 6, 1);
  Matrix y = Matrix::Gaussian(g.NumVertices(), 6, 2);
  Matrix xy(g.NumVertices(), 6);
  for (uint64_t k = 0; k < xy.rows() * xy.cols(); ++k) {
    xy.data()[k] = 2.0f * x.data()[k] - 3.0f * y.data()[k];
  }
  Matrix px = SpectralPropagate(g, x, opt).value();
  Matrix py = SpectralPropagate(g, y, opt).value();
  Matrix pxy = SpectralPropagate(g, xy, opt).value();
  Matrix combo(g.NumVertices(), 6);
  for (uint64_t k = 0; k < combo.rows() * combo.cols(); ++k) {
    combo.data()[k] = 2.0f * px.data()[k] - 3.0f * py.data()[k];
  }
  EXPECT_LT(MaxAbsDiff(pxy, combo), 1e-2);
}

TEST(PropagationProperty, ConstantVectorStaysNearKernel) {
  // The filter applied to the all-ones vector: A' rownorm maps 1 -> 1, so
  // Mop 1 = -mu * 1; the output stays a constant vector (finite, uniform).
  std::vector<NodeId> community;
  const CsrGraph g =
      CsrGraph::FromEdges(GenerateSbm(300, 2, 3000, 0.6, 9, &community));
  SpectralPropagationOptions opt;
  opt.svd_smoothing = false;
  Matrix ones(g.NumVertices(), 1);
  for (uint64_t i = 0; i < ones.rows(); ++i) ones.At(i, 0) = 1.0f;
  Matrix out = SpectralPropagate(g, ones, opt).value();
  // All rows whose vertex degrees are equal should map identically; in
  // general the output must be finite and, for the constant input, have low
  // variance relative to its mean magnitude.
  double mean = 0;
  for (uint64_t i = 0; i < out.rows(); ++i) mean += out.At(i, 0);
  mean /= static_cast<double>(out.rows());
  ASSERT_TRUE(std::isfinite(mean));
  double var = 0;
  for (uint64_t i = 0; i < out.rows(); ++i) {
    var += (out.At(i, 0) - mean) * (out.At(i, 0) - mean);
  }
  var /= static_cast<double>(out.rows());
  EXPECT_LT(std::sqrt(var), 0.2 * std::fabs(mean) + 1e-3);
}

}  // namespace
}  // namespace lightne
