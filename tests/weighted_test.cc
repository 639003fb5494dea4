#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <set>

#include "baselines/prone.h"
#include "core/lightne.h"
#include "core/netmf.h"
#include "core/sparsifier.h"
#include "data/generators.h"
#include "graph/graph_view.h"
#include "graph/weighted_csr.h"
#include "graph/weights.h"
#include "util/random.h"

namespace lightne {
namespace {

static_assert(GraphView<WeightedCsrGraph>);

WeightedCsrGraph TriangleWeighted() {
  // 0-1 (w=1), 1-2 (w=2), 2-0 (w=4), plus a pendant 2-3 (w=1).
  WeightedEdgeList list;
  list.num_vertices = 4;
  list.Add(0, 1, 1.0f);
  list.Add(1, 2, 2.0f);
  list.Add(2, 0, 4.0f);
  list.Add(2, 3, 1.0f);
  return WeightedCsrGraph::FromEdges(std::move(list));
}

TEST(WeightedCsrTest, ConstructionAndDegrees) {
  WeightedCsrGraph g = TriangleWeighted();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumDirectedEdges(), 8u);
  EXPECT_EQ(g.Degree(2), 3u);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 5.0);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 3.0);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(2), 7.0);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(3), 1.0);
  EXPECT_DOUBLE_EQ(g.Volume(), 16.0);
}

TEST(WeightedCsrTest, DuplicatesSummedSelfLoopsDropped) {
  WeightedEdgeList list;
  list.num_vertices = 3;
  list.Add(0, 1, 1.0f);
  list.Add(1, 0, 2.0f);  // reverse of the same pair: symmetrized sum = 3
  list.Add(2, 2, 9.0f);  // self loop dropped
  WeightedCsrGraph g = WeightedCsrGraph::FromEdges(std::move(list));
  EXPECT_EQ(g.NumDirectedEdges(), 2u);
  EXPECT_FLOAT_EQ(g.Weight(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(g.Weight(1, 0), 3.0f);
  EXPECT_EQ(g.Degree(2), 0u);
}

// Duplicate edges' weights are summed in one order whatever the worker
// count. 60,000 raw RMAT pairs, duplicates among them with other weights,
// symmetrize to 120,000 records: past ParallelSort's 2^14 sequential
// cutoff, so the pool run takes the bucketed sort, whose bucket layout
// depends on the number of workers (the _mt4 run uses 4).
TEST(WeightedCsrTest, DuplicateEdgesBuildIdenticallyAtAnyWorkerCount) {
  const EdgeList raw = GenerateRmat(13, 60000, 7);
  WeightedEdgeList list;
  list.num_vertices = raw.num_vertices;
  for (size_t i = 0; i < raw.edges.size(); ++i) {
    const auto [u, v] = raw.edges[i];
    list.Add(u, v, 1.0f + 0.37f * static_cast<float>((7 * u + 3 * v + i) % 5));
  }
  ASSERT_GE(2 * list.edges.size(), size_t{1} << 14);
  const WeightedCsrGraph pooled = WeightedCsrGraph::FromEdges(list);
  WeightedCsrGraph sequential;
  {
    SequentialRegion one_worker;
    sequential = WeightedCsrGraph::FromEdges(list);
  }
  ASSERT_EQ(pooled.NumVertices(), sequential.NumVertices());
  ASSERT_EQ(pooled.NumDirectedEdges(), sequential.NumDirectedEdges());
  uint64_t degree_diffs = 0, neighbor_diffs = 0, weight_diffs = 0;
  for (NodeId v = 0; v < pooled.NumVertices(); ++v) {
    if (pooled.Degree(v) != sequential.Degree(v)) {
      ++degree_diffs;
      continue;
    }
    for (uint64_t i = 0; i < pooled.Degree(v); ++i) {
      neighbor_diffs += pooled.Neighbor(v, i) != sequential.Neighbor(v, i);
      weight_diffs += std::bit_cast<uint32_t>(pooled.Weight(v, i)) !=
                      std::bit_cast<uint32_t>(sequential.Weight(v, i));
    }
  }
  EXPECT_EQ(degree_diffs, 0u);
  EXPECT_EQ(neighbor_diffs, 0u);
  EXPECT_EQ(weight_diffs, 0u);
  EXPECT_EQ(std::bit_cast<uint64_t>(pooled.Volume()),
            std::bit_cast<uint64_t>(sequential.Volume()))
      << pooled.Volume() << " vs " << sequential.Volume();
}

TEST(WeightedCsrTest, MapNeighborsWeightedAndTraits) {
  WeightedCsrGraph g = TriangleWeighted();
  double sum = 0;
  MapNeighborsWeighted(g, 2, [&](NodeId, float w) { sum += w; });
  EXPECT_DOUBLE_EQ(sum, 7.0);
  EXPECT_DOUBLE_EQ(VertexWeightedDegree(g, 2), 7.0);
}

TEST(WeightedCsrTest, SampleNeighborProportionalToWeight) {
  WeightedCsrGraph g = TriangleWeighted();
  Rng rng(9);
  std::map<NodeId, int> hits;
  const int trials = 70000;
  for (int t = 0; t < trials; ++t) ++hits[g.SampleNeighbor(2, rng)];
  // Vertex 2: neighbors 0 (w=4), 1 (w=2), 3 (w=1) out of total 7.
  EXPECT_NEAR(hits[0] / static_cast<double>(trials), 4.0 / 7, 0.01);
  EXPECT_NEAR(hits[1] / static_cast<double>(trials), 2.0 / 7, 0.01);
  EXPECT_NEAR(hits[3] / static_cast<double>(trials), 1.0 / 7, 0.01);
}

TEST(WeightedCsrTest, ProportionalSampleOfZeroDegreeVertexIsStatus) {
  // Regression: this used to be a process-aborting CHECK; callers holding
  // user-supplied vertex ids (e.g. seed lists) need a recoverable error.
  WeightedEdgeList list;
  list.num_vertices = 3;
  list.Add(0, 1, 1.0f);
  list.Add(2, 2, 9.0f);  // self loop dropped -> vertex 2 ends up isolated
  WeightedCsrGraph g = WeightedCsrGraph::FromEdges(std::move(list));
  ASSERT_EQ(g.Degree(2), 0u);
  Rng rng(11);
  const Result<NodeId> bad = SampleNeighborProportional(g, NodeId{2}, rng);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const Result<NodeId> good = SampleNeighborProportional(g, NodeId{0}, rng);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, NodeId{1});
}

TEST(WeightedCsrTest, UnitWeightsMatchUnweightedSemantics) {
  // Duplicate-free input: the weighted builder SUMS duplicate weights while
  // the unweighted builder dedups, so equivalence only holds without dups.
  WeightedEdgeList wlist;
  wlist.num_vertices = 50;
  EdgeList list;
  list.num_vertices = 50;
  Rng rng(3);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (int i = 0; i < 200; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(50));
    NodeId v = static_cast<NodeId>(rng.UniformInt(50));
    if (u == v) continue;
    if (!seen.insert({std::min(u, v), std::max(u, v)}).second) continue;
    wlist.Add(u, v, 1.0f);
    list.Add(u, v);
  }
  WeightedCsrGraph wg = WeightedCsrGraph::FromEdges(std::move(wlist));
  CsrGraph g = CsrGraph::FromEdges(std::move(list));
  ASSERT_EQ(wg.NumDirectedEdges(), g.NumDirectedEdges());
  for (NodeId v = 0; v < 50; ++v) {
    ASSERT_EQ(wg.Degree(v), g.Degree(v));
    ASSERT_DOUBLE_EQ(wg.WeightedDegree(v), static_cast<double>(g.Degree(v)));
  }
  EXPECT_DOUBLE_EQ(wg.Volume(), g.Volume());
}

// ------------------------------------------------ weighted NetMF estimator --

TEST(WeightedSparsifierTest, UnbiasedAgainstWeightedDenseNetmf) {
  WeightedCsrGraph g = TriangleWeighted();
  const uint32_t window = 3;
  SparsifierOptions opt;
  opt.num_samples = 3000000;
  opt.window = window;
  opt.downsample = true;
  opt.seed = 17;
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Matrix prelog = ComputeDenseNetmfPreLog(g, window, 1.0);
  const double vol = g.Volume();
  const double scale =
      vol * vol / (2.0 * static_cast<double>(opt.num_samples));
  for (NodeId a = 0; a < g.NumVertices(); ++a) {
    for (NodeId b = 0; b < g.NumVertices(); ++b) {
      const double got = scale * r->matrix.At(a, b) /
                         (g.WeightedDegree(a) * g.WeightedDegree(b));
      const double expect = prelog.At(a, b);
      EXPECT_NEAR(got, expect, 0.12 * expect + 0.15)
          << "(" << a << "," << b << ")";
    }
  }
}

TEST(WeightedSparsifierTest, SampleBudgetRespected) {
  WeightedCsrGraph g = TriangleWeighted();
  SparsifierOptions opt;
  opt.num_samples = 400000;
  opt.window = 4;
  opt.downsample = false;
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(static_cast<double>(r->samples_drawn) / opt.num_samples, 1.0,
              0.02);
}

// --------------------------------------------------------- weighted ProNE --

TEST(WeightedProneTest, MatrixMatchesFormulaOnWeightedPath) {
  // Path 0 -(2)- 1 -(6)- 2. Weighted degrees: 2, 8, 6.
  WeightedEdgeList list;
  list.num_vertices = 3;
  list.Add(0, 1, 2.0f);
  list.Add(1, 2, 6.0f);
  WeightedCsrGraph g = WeightedCsrGraph::FromEdges(std::move(list));
  SparseMatrix m = BuildProneMatrix(g, 0.75, 1.0);
  // tau_0 = w01/d1 = 2/8; tau_1 = w01/d0 + w12/d2 = 1 + 1 = 2; tau_2 = 6/8.
  const double tau0 = 0.25, tau1 = 2.0, tau2 = 0.75;
  const double z = std::pow(tau0, 0.75) + std::pow(tau1, 0.75) +
                   std::pow(tau2, 0.75);
  EXPECT_NEAR(m.At(0, 1),
              std::log(2.0 / 2.0 * z / std::pow(tau1, 0.75)), 1e-5);
  EXPECT_NEAR(m.At(1, 0),
              std::log(2.0 / 8.0 * z / std::pow(tau0, 0.75)), 1e-5);
  EXPECT_NEAR(m.At(1, 2),
              std::log(6.0 / 8.0 * z / std::pow(tau2, 0.75)), 1e-5);
}

// ------------------------------------------------- weighted LightNE (E2E) --

TEST(WeightedLightNeTest, SeparatesCommunitiesByWeightAlone) {
  // Two blocks with IDENTICAL topology density, but intra-block edges are
  // 10x heavier: only a weight-aware pipeline can separate them.
  const NodeId n = 600;
  WeightedEdgeList list;
  list.num_vertices = n;
  Rng rng(21);
  for (int e = 0; e < 12000; ++e) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) continue;
    const bool same_block = (u < n / 2) == (v < n / 2);
    list.Add(u, v, same_block ? 10.0f : 1.0f);
  }
  WeightedCsrGraph g = WeightedCsrGraph::FromEdges(std::move(list));

  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 5;
  opt.samples_ratio = 0;  // use explicit count below
  opt.num_samples = 2000000;
  auto r = RunLightNe(g, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Matrix x = r->embedding;
  x.NormalizeRows();
  Rng prng(5);
  double intra = 0, inter = 0;
  int ic = 0, oc = 0;
  for (int t = 0; t < 20000; ++t) {
    NodeId a = static_cast<NodeId>(prng.UniformInt(n));
    NodeId b = static_cast<NodeId>(prng.UniformInt(n));
    if (a == b) continue;
    double dot = 0;
    for (uint64_t j = 0; j < x.cols(); ++j) {
      dot += static_cast<double>(x.At(a, j)) * x.At(b, j);
    }
    if ((a < n / 2) == (b < n / 2)) {
      intra += dot;
      ++ic;
    } else {
      inter += dot;
      ++oc;
    }
  }
  EXPECT_GT(intra / ic, inter / oc + 0.2);
}

TEST(WeightedLightNeTest, PropagationRunsOnWeightedGraph) {
  WeightedCsrGraph g = TriangleWeighted();
  Matrix x = Matrix::Gaussian(4, 3, 7);
  Matrix y = SpectralPropagate(g, x).value();
  ASSERT_EQ(y.rows(), 4u);
  for (uint64_t k = 0; k < y.rows() * y.cols(); ++k) {
    ASSERT_TRUE(std::isfinite(y.data()[k]));
  }
}

}  // namespace
}  // namespace lightne
