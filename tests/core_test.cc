#include <gnu/libc-version.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/lightne.h"
#include "core/netmf.h"
#include "core/path_sampling.h"
#include "core/sparsifier.h"
#include "core/spectral_propagation.h"
#include "data/generators.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/weighted_csr.h"
#include "la/kernels.h"
#include "la/rsvd.h"
#include "propagation_oracle.h"
#include "util/artifact_io.h"

namespace lightne {
namespace {

CsrGraph SmallTestGraph() {
  // Connected, non-bipartite, degree-diverse: a triangle with pendant paths.
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

// Dense (D^{-1}A)^r for analytic checks.
Matrix WalkMatrixPower(const CsrGraph& g, uint32_t r) {
  const NodeId n = g.NumVertices();
  Matrix p(n, n);
  g.MapVertices([&](NodeId u) {
    g.MapNeighbors(u, [&](NodeId v) {
      p.At(u, v) = static_cast<float>(1.0 / g.Degree(u));
    });
  });
  Matrix out = Matrix::Identity(n);
  for (uint32_t i = 0; i < r; ++i) out = Gemm(out, p);
  return out;
}

// ---------------------------------------------------------- PathSampling --

TEST(PathSampleTest, EndpointDistributionMatchesTheory) {
  // P[(a,b) | r] = d_a/(2m) (D^{-1}A)^r_{a,b}  for a uniformly random
  // directed edge (see core/sparsifier.h derivation).
  const CsrGraph g = SmallTestGraph();
  const uint32_t r = 3;
  Matrix pr = WalkMatrixPower(g, r);
  const int trials = 400000;
  Rng rng(2024);
  std::map<std::pair<NodeId, NodeId>, int> hits;
  // Draw a uniform directed edge each trial via the CSR arrays.
  const EdgeId directed = g.NumDirectedEdges();
  for (int t = 0; t < trials; ++t) {
    EdgeId e = rng.UniformInt(directed);
    // Locate source by linear scan (graph is tiny).
    NodeId u = 0;
    while (g.offsets()[u + 1] <= e) ++u;
    NodeId v = g.neighbors()[e];
    ++hits[PathSample(g, u, v, r, rng)];
  }
  for (NodeId a = 0; a < g.NumVertices(); ++a) {
    for (NodeId b = 0; b < g.NumVertices(); ++b) {
      const double expect =
          static_cast<double>(g.Degree(a)) / g.Volume() * pr.At(a, b);
      auto it = hits.find({a, b});
      const double got =
          it == hits.end() ? 0.0 : static_cast<double>(it->second) / trials;
      EXPECT_NEAR(got, expect, 0.004) << "(" << a << "," << b << ")";
    }
  }
}

TEST(PathSampleTest, LengthOneReturnsTheEdgeItself) {
  const CsrGraph g = SmallTestGraph();
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    auto [a, b] = PathSample(g, 0, 1, 1, rng);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
  }
}

// -------------------------------------------------- downsampling property --

TEST(DownsampleTest, ProbabilityBoundedAndMonotone) {
  const CsrGraph g = SmallTestGraph();
  const double c = std::log(static_cast<double>(g.NumVertices()));
  g.MapEdges([&](NodeId u, NodeId v) {
    const double p = internal::DownsampleProbability(g, u, v, c);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
  });
  // Larger C => larger (or equal) acceptance probability.
  EXPECT_LE(internal::DownsampleProbability(g, 0, 1, 0.5),
            internal::DownsampleProbability(g, 0, 1, 2.0));
}

// Theorem 3.1: E[L_H] = L_G under importance-weighted edge downsampling.
TEST(DownsampleTest, LaplacianUnbiasedness) {
  const CsrGraph g = SmallTestGraph();
  const NodeId n = g.NumVertices();
  const double c = 0.8;  // force p_e < 1 on some edges
  const int trials = 200000;
  // Accumulate the mean sampled adjacency (weight A_uv / p_e on heads).
  Matrix mean(n, n);
  Rng rng(7);
  for (int t = 0; t < trials; ++t) {
    g.MapEdges([&](NodeId u, NodeId v) {
      if (u > v) return;  // each undirected edge once
      const double pe = internal::DownsampleProbability(g, u, v, c);
      if (rng.Bernoulli(pe)) {
        const float w = static_cast<float>(1.0 / pe / trials);
        mean.At(u, v) += w;
        mean.At(v, u) += w;
      }
    });
  }
  // The expected adjacency equals the original (all weights 1).
  g.MapEdges([&](NodeId u, NodeId v) {
    EXPECT_NEAR(mean.At(u, v), 1.0, 0.05) << u << "," << v;
  });
}

// ------------------------------------------------------------- sparsifier --

TEST(SparsifierTest, SampleCountConcentratesAtM) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateErdosRenyi(300, 2000, 3));
  SparsifierOptions opt;
  opt.num_samples = 500000;
  opt.window = 4;
  opt.downsample = false;
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const double got = static_cast<double>(r->samples_drawn);
  EXPECT_NEAR(got / opt.num_samples, 1.0, 0.01);
  EXPECT_EQ(r->samples_accepted, r->samples_drawn);  // no downsampling
}

TEST(SparsifierTest, DownsamplingReducesAcceptedAndNnz) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(12, 60000, 5));
  SparsifierOptions opt;
  opt.num_samples = 2000000;
  opt.window = 10;
  opt.downsample = false;
  auto full = BuildSparsifier(g, opt);
  ASSERT_TRUE(full.ok());
  opt.downsample = true;
  auto down = BuildSparsifier(g, opt);
  ASSERT_TRUE(down.ok());
  EXPECT_LT(down->samples_accepted, full->samples_accepted / 2);
  EXPECT_LT(down->matrix.nnz(), full->matrix.nnz());
  EXPECT_LT(down->distinct_entries, full->distinct_entries);
  // Capacity rounds to a power of two, so bytes can only be compared weakly.
  EXPECT_LE(down->table_bytes, full->table_bytes);
}

TEST(SparsifierTest, MatrixIsSymmetric) {
  const CsrGraph g = SmallTestGraph();
  SparsifierOptions opt;
  opt.num_samples = 100000;
  opt.window = 5;
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok());
  const SparseMatrix& s = r->matrix;
  for (uint64_t i = 0; i < s.rows(); ++i) {
    auto cols = s.RowCols(i);
    auto vals = s.RowValues(i);
    for (size_t k = 0; k < cols.size(); ++k) {
      EXPECT_FLOAT_EQ(s.At(cols[k], static_cast<uint32_t>(i)), vals[k]);
    }
  }
}

TEST(SparsifierTest, UnbiasedEstimateOfWalkSum) {
  // (2m^2/(b M)) S_ab / (d_a d_b) must approximate the pre-log NetMF matrix.
  const CsrGraph g = SmallTestGraph();
  const uint32_t window = 3;
  SparsifierOptions opt;
  opt.num_samples = 3000000;
  opt.window = window;
  opt.downsample = true;  // exercise the full (downsampled) estimator
  opt.seed = 3;
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok());
  Matrix prelog = ComputeDenseNetmfPreLog(g, window, /*b=*/1.0);
  const double m = static_cast<double>(g.NumUndirectedEdges());
  const double scale = 2.0 * m * m / static_cast<double>(opt.num_samples);
  for (NodeId a = 0; a < g.NumVertices(); ++a) {
    for (NodeId b = 0; b < g.NumVertices(); ++b) {
      const double got = scale * r->matrix.At(a, b) /
                         (static_cast<double>(g.Degree(a)) * g.Degree(b));
      const double expect = prelog.At(a, b);
      EXPECT_NEAR(got, expect, 0.12 * expect + 0.08)
          << "(" << a << "," << b << ")";
    }
  }
}

TEST(SparsifierTest, RejectsDegenerateInputs) {
  EdgeList empty;
  empty.num_vertices = 4;
  const CsrGraph g = CsrGraph::FromEdges(std::move(empty));
  SparsifierOptions opt;
  opt.num_samples = 100;
  auto r = BuildSparsifier(g, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  const CsrGraph g2 = SmallTestGraph();
  SparsifierOptions zero;
  zero.num_samples = 0;
  EXPECT_FALSE(BuildSparsifier(g2, zero).ok());
}

TEST(SparsifierTest, DeterministicInSeedAndAcrossRepresentations) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 21));
  const CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  SparsifierOptions opt;
  opt.num_samples = 200000;
  opt.window = 6;
  opt.seed = 77;
  auto a = BuildSparsifier(g, opt);
  auto b = BuildSparsifier(g, opt);
  auto c = BuildSparsifier(cg, opt);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_EQ(a->matrix.nnz(), b->matrix.nnz());
  EXPECT_EQ(a->matrix.values(), b->matrix.values());
  // The compressed representation iterates identical sorted adjacencies, so
  // per-edge RNG streams coincide exactly.
  ASSERT_EQ(a->matrix.nnz(), c->matrix.nnz());
  EXPECT_EQ(a->matrix.values(), c->matrix.values());
  opt.seed = 78;
  auto d = BuildSparsifier(g, opt);
  ASSERT_TRUE(d.ok());
  EXPECT_NE(a->matrix.values(), d->matrix.values());
}

// ------------------------------------------------------------ aggregation --

TEST(AggregationTest, SortHistogramCollapsesDuplicates) {
  std::vector<std::pair<uint64_t, uint64_t>> records = {
      {5, 2}, {3, 4}, {5, 1}, {9, 2}, {3, 2}, {5, 3}};
  auto unique = SortHistogram(std::move(records));
  ASSERT_EQ(unique.size(), 3u);
  EXPECT_EQ(unique[0].first, 3u);
  EXPECT_EQ(unique[0].second, 6u);
  EXPECT_EQ(unique[1].first, 5u);
  EXPECT_EQ(unique[1].second, 6u);
  EXPECT_EQ(unique[2].first, 9u);
  EXPECT_EQ(unique[2].second, 2u);
}

TEST(AggregationTest, SortHistogramEmptyAndSingleton) {
  EXPECT_TRUE(SortHistogram<uint64_t>({}).empty());
  auto one = SortHistogram<uint64_t>({{7, 5}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, 7u);
  EXPECT_EQ(one[0].second, 5u);
}

TEST(AggregationTest, SortHistogramMatchesMapOnRandomInput) {
  std::vector<std::pair<uint64_t, uint64_t>> records;
  Rng rng(3);
  std::map<uint64_t, uint64_t> expect;
  for (int i = 0; i < 200000; ++i) {
    uint64_t key = rng.UniformInt(5000);
    uint64_t w = (uint64_t{1} << 40) + rng.UniformInt(1u << 30);
    records.push_back({key, w});
    expect[key] += w;
  }
  auto unique = SortHistogram(std::move(records));
  ASSERT_EQ(unique.size(), expect.size());
  for (auto& [key, sum] : unique) {
    ASSERT_EQ(sum, expect[key]) << key;
  }
}

TEST(AggregationTest, WorkerBuffersTrackMemoryAndRecords) {
  WorkerBuffers buffers(2);
  buffers.Add(0, 1, 1);
  buffers.Add(1, 1, 2);
  buffers.Add(1, 2, 3);
  EXPECT_EQ(buffers.NumRecords(), 3u);
  EXPECT_GT(buffers.MemoryBytes(), 0u);
  auto unique = buffers.Collapse();
  ASSERT_EQ(unique.size(), 2u);
  EXPECT_EQ(unique[0].second, 3u);
  EXPECT_EQ(unique[1].second, 3u);
  EXPECT_EQ(buffers.NumRecords(), 0u);
}

// The two aggregation strategies, and the table with and without the
// run-merging batch, must produce bit-identical sparsifiers (same per-edge
// RNG streams, exact integer aggregation, one CSR builder).
TEST(AggregationTest, StrategiesProduceIdenticalSparsifier) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(11, 20000, 13));
  SparsifierOptions opt;
  opt.num_samples = 400000;
  opt.window = 6;
  opt.seed = 5;
  opt.aggregation = AggregationStrategy::kSharedHashTable;
  auto hashed = BuildSparsifier(g, opt);
  opt.combiner = false;
  auto direct = BuildSparsifier(g, opt);
  opt.aggregation = AggregationStrategy::kSortHistogram;
  auto sorted = BuildSparsifier(g, opt);
  ASSERT_TRUE(hashed.ok() && direct.ok() && sorted.ok());
  for (const SparsifierResult* other : {&*direct, &*sorted}) {
    EXPECT_EQ(hashed->samples_drawn, other->samples_drawn);
    EXPECT_EQ(hashed->samples_accepted, other->samples_accepted);
    EXPECT_EQ(hashed->distinct_entries, other->distinct_entries);
    ASSERT_EQ(hashed->matrix.nnz(), other->matrix.nnz());
    EXPECT_EQ(hashed->matrix.row_offsets(), other->matrix.row_offsets());
    EXPECT_EQ(hashed->matrix.col_indices(), other->matrix.col_indices());
    EXPECT_EQ(hashed->matrix.values(), other->matrix.values());
  }
}

// ------------------------------------------------------------------ NetMF --

TEST(NetmfTest, TruncLogBasics) {
  EXPECT_FLOAT_EQ(TruncLog(0.5), 0.0f);
  EXPECT_FLOAT_EQ(TruncLog(1.0), 0.0f);
  EXPECT_NEAR(TruncLog(std::exp(1.0)), 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(TruncLog(0.0), 0.0f);
  EXPECT_FLOAT_EQ(TruncLog(-3.0), 0.0f);
}

TEST(NetmfTest, DenseMatchesHandComputedLine) {
  // T=1 reduces to the LINE matrix: trunc_log(vol/b * A_uv/(d_u d_v)).
  const CsrGraph g = SmallTestGraph();
  Matrix m = ComputeDenseNetmf(g, 1, 1.0);
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      bool edge = false;
      g.MapNeighbors(u, [&](NodeId w) { edge |= (w == v); });
      const double expect =
          edge ? TruncLog(g.Volume() /
                          (static_cast<double>(g.Degree(u)) * g.Degree(v)))
               : 0.0;
      EXPECT_NEAR(m.At(u, v), expect, 1e-5);
    }
  }
}

TEST(NetmfTest, SparsifierAfterTransformApproximatesDenseNetmf) {
  const CsrGraph g = SmallTestGraph();
  const uint32_t window = 3;
  SparsifierOptions opt;
  opt.num_samples = 3000000;
  opt.window = window;
  opt.seed = 11;
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok());
  SparseMatrix s = std::move(r->matrix);
  ApplyNetmfTransform(g, opt.num_samples, 1.0, &s);
  Matrix dense = ComputeDenseNetmf(g, window, 1.0);
  for (NodeId a = 0; a < g.NumVertices(); ++a) {
    for (NodeId b = 0; b < g.NumVertices(); ++b) {
      EXPECT_NEAR(s.At(a, b), dense.At(a, b), 0.15 * dense.At(a, b) + 0.12)
          << a << "," << b;
    }
  }
}

TEST(NetmfTest, TransformPrunesTruncatedEntries) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 2));
  SparsifierOptions opt;
  opt.num_samples = 100000;
  opt.window = 5;
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok());
  SparseMatrix s = std::move(r->matrix);
  const uint64_t before = s.nnz();
  ApplyNetmfTransform(g, opt.num_samples, 1.0, &s);
  EXPECT_LT(s.nnz(), before);
  for (float v : s.values()) EXPECT_GT(v, 0.0f);
}

// --------------------------------------------------- spectral propagation --

TEST(PropagationTest, OrderOneIsIdentity) {
  const CsrGraph g = SmallTestGraph();
  Matrix x = Matrix::Gaussian(g.NumVertices(), 4, 3);
  SpectralPropagationOptions opt;
  opt.order = 1;
  Matrix y = SpectralPropagate(g, x, opt).value();
  EXPECT_EQ(MaxAbsDiff(x, y), 0.0);
}

TEST(PropagationTest, OutputRowsAreUnitNorm) {
  std::vector<NodeId> community;
  const CsrGraph g =
      CsrGraph::FromEdges(GenerateSbm(1000, 4, 8000, 0.7, 2, &community));
  Matrix x = Matrix::Gaussian(g.NumVertices(), 16, 5);
  Matrix y = SpectralPropagate(g, x).value();
  ASSERT_EQ(y.rows(), x.rows());
  ASSERT_EQ(y.cols(), x.cols());
  for (uint64_t i = 0; i < y.rows(); ++i) {
    const double norm = y.RowNorm(i);
    EXPECT_TRUE(norm < 1e-9 || std::fabs(norm - 1.0) < 1e-4) << i;
  }
}

TEST(PropagationTest, DeterministicAndRepresentationIndependent) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(9, 4000, 31));
  const CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  Matrix x = Matrix::Gaussian(g.NumVertices(), 8, 9);
  Matrix a = SpectralPropagate(g, x).value();
  Matrix b = SpectralPropagate(g, x).value();
  Matrix c = SpectralPropagate(cg, x).value();
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0);
  // Both representations are copied into one operator in neighbor order.
  EXPECT_EQ(MaxAbsDiff(a, c), 0.0);
}

TEST(PropagationTest, BitIdenticalAcrossWorkerCounts) {
  // The pool's worker count comes from LIGHTNE_NUM_THREADS (the _mt4
  // variant runs with 4); SequentialRegion forces a true 1-worker run in
  // the same process. The blocked kernel layer partitions work by shape,
  // never worker count (la/kernels.h), so propagation — including the
  // Gram/eigensolve/Gemm smoothing path — must agree bit for bit.
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 77));
  Matrix x = Matrix::Gaussian(g.NumVertices(), 24, 13);
  Matrix parallel_run = SpectralPropagate(g, x).value();
  SequentialRegion sequential;
  Matrix sequential_run = SpectralPropagate(g, x).value();
  EXPECT_EQ(MaxAbsDiff(parallel_run, sequential_run), 0.0);
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.SizeBytes()) == 0;
}

// The fused sweeps against the per-term filter they replace, byte for byte:
// widths from 1 to 130 floats (ragged for the vector loops), orders from the
// no-term case to the pipeline's 10 (T_i overwrites T_{i-2} from order 4
// on), in the pool and in one worker, with and without smoothing.
template <GraphView G>
void ExpectFusedSweepMatchesOracle(const G& g, const char* label) {
  for (uint64_t d : {1ull, 3ull, 8ull, 33ull, 64ull, 130ull}) {
    const Matrix x = Matrix::Gaussian(g.NumVertices(), d, 100 + d);
    for (uint32_t order : {2u, 3u, 4u, 10u}) {
      SpectralPropagationOptions opt;
      opt.order = order;
      const Matrix filtered = propagation_oracle::PerTermFilter(g, x, opt);
      for (bool smoothing : {false, true}) {
        opt.svd_smoothing = smoothing;
        const Matrix want =
            smoothing ? DenseSvdSmoothing(filtered).value() : filtered;
        const Matrix pooled = SpectralPropagate(g, x, opt).value();
        Matrix sequential;
        {
          SequentialRegion one_worker;
          sequential = SpectralPropagate(g, x, opt).value();
        }
        EXPECT_TRUE(SameBytes(pooled, want))
            << label << " d=" << d << " order=" << order
            << " smoothing=" << smoothing;
        EXPECT_TRUE(SameBytes(sequential, want))
            << label << " (1 worker) d=" << d << " order=" << order
            << " smoothing=" << smoothing;
      }
    }
  }
}

TEST(PropagationTest, FusedSweepMatchesPerTermOracle) {
  EdgeList list = GenerateRmat(9, 3000, 41);  // isolated vertices included
  WeightedEdgeList weighted;
  weighted.num_vertices = list.num_vertices;
  Rng rng(43);
  for (const auto& [u, v] : list.edges) {
    weighted.Add(u, v, static_cast<float>(0.25 + 4.0 * rng.Uniform()));
  }
  const CsrGraph g = CsrGraph::FromEdges(std::move(list));
  ExpectFusedSweepMatchesOracle(g, "csr");
  ExpectFusedSweepMatchesOracle(CompressedGraph::FromCsr(g, 64), "compressed");
  ExpectFusedSweepMatchesOracle(WeightedCsrGraph::FromEdges(std::move(weighted)),
                                "weighted");
}

TEST(PropagationTest, SmoothingRowsNormalizedAndSpanPreserved) {
  Matrix mm = Matrix::Gaussian(50, 5, 2);
  Matrix out = DenseSvdSmoothing(mm).value();
  ASSERT_EQ(out.rows(), 50u);
  ASSERT_EQ(out.cols(), 5u);
  for (uint64_t i = 0; i < out.rows(); ++i) {
    EXPECT_NEAR(out.RowNorm(i), 1.0, 1e-4);
  }
}

// ---------------------------------------------------------------- LightNE --

TEST(LightNeTest, RejectsBadInputs) {
  EdgeList empty;
  empty.num_vertices = 0;
  const CsrGraph g = CsrGraph::FromEdges(std::move(empty));
  LightNeOptions opt;
  EXPECT_FALSE(RunLightNe(g, opt).ok());

  const CsrGraph g2 = SmallTestGraph();
  LightNeOptions big;
  big.dim = 100;  // > n
  EXPECT_FALSE(RunLightNe(g2, big).ok());
}

TEST(LightNeTest, EndToEndShapeTimingAndFiniteness) {
  std::vector<NodeId> community;
  const CsrGraph g = CsrGraph::FromEdges(
      GenerateSbm(2000, 5, 16000, 0.8, 17, &community));
  LightNeOptions opt;
  opt.dim = 32;
  opt.window = 5;
  opt.samples_ratio = 2.0;
  auto r = RunLightNe(g, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->embedding.rows(), g.NumVertices());
  EXPECT_EQ(r->embedding.cols(), 32u);
  for (uint64_t k = 0; k < r->embedding.rows() * r->embedding.cols(); ++k) {
    ASSERT_TRUE(std::isfinite(r->embedding.data()[k]));
  }
  EXPECT_GT(r->timing.SecondsFor("sparsifier"), 0.0);
  EXPECT_GT(r->timing.SecondsFor("rsvd"), 0.0);
  EXPECT_GT(r->timing.SecondsFor("propagation"), 0.0);
  EXPECT_GT(r->sparsifier_nnz, 0u);
  EXPECT_LE(r->sparsifier_nnz, r->sparsifier_nnz_raw);
}

TEST(LightNeTest, EmbeddingSeparatesPlantedCommunities) {
  std::vector<NodeId> community;
  const CsrGraph g = CsrGraph::FromEdges(
      GenerateSbm(3000, 4, 30000, 0.85, 23, &community));
  LightNeOptions opt;
  opt.dim = 16;
  opt.window = 5;
  opt.samples_ratio = 3.0;
  auto r = RunLightNe(g, opt);
  ASSERT_TRUE(r.ok());
  Matrix x = r->embedding;
  x.NormalizeRows();
  // Average cosine similarity: same-community pairs vs different.
  Rng rng(4);
  double intra = 0, inter = 0;
  int intra_count = 0, inter_count = 0;
  for (int t = 0; t < 40000; ++t) {
    NodeId a = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
    NodeId b = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
    if (a == b) continue;
    double dot = 0;
    for (uint64_t j = 0; j < x.cols(); ++j) {
      dot += static_cast<double>(x.At(a, j)) * x.At(b, j);
    }
    if (community[a] == community[b]) {
      intra += dot;
      ++intra_count;
    } else {
      inter += dot;
      ++inter_count;
    }
  }
  ASSERT_GT(intra_count, 100);
  ASSERT_GT(inter_count, 100);
  EXPECT_GT(intra / intra_count, inter / inter_count + 0.1);
}

TEST(LightNeTest, CompressedGraphGivesIdenticalEmbedding) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 10000, 29));
  const CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 4;
  opt.samples_ratio = 1.0;
  auto a = RunLightNe(g, opt);
  auto b = RunLightNe(cg, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(MaxAbsDiff(a->embedding, b->embedding), 1e-5);
}

TEST(LightNeTest, PropagationOffSkipsStage) {
  const CsrGraph g = SmallTestGraph();
  LightNeOptions opt;
  opt.dim = 4;
  opt.window = 3;
  opt.samples_ratio = 20.0;
  opt.spectral_propagation = false;
  auto r = RunLightNe(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timing.SecondsFor("propagation"), 0.0);
  EXPECT_EQ(r->timing.stages().size(), 2u);
}

// -------------------------------------------------------------- SIMD arms --

// run() on the dispatched SIMD arm and under kernels::GenericSimdRegion, each
// in the pool (4 workers in the _mt4 variant) and in one worker.
template <typename Fn>
auto OnBothArmsAndWorkerCounts(const Fn& run) {
  std::vector<decltype(run())> out;
  out.push_back(run());
  {
    SequentialRegion one_worker;
    out.push_back(run());
  }
  kernels::GenericSimdRegion generic;
  out.push_back(run());
  SequentialRegion one_worker;
  out.push_back(run());
  return out;
}

bool HostHasAvx2() {
  return kernels::ActiveSimdArm() == kernels::SimdArm::kAvx2;
}

constexpr char kNoAvx2[] = "CPU lacks AVX2: both runs take the generic arm";

TEST(SimdArmTest, RandomizedSvdIsByteIdenticalOnBothArms) {
  if (!HostHasAvx2()) GTEST_SKIP() << kNoAvx2;
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 97));
  std::vector<std::pair<uint64_t, double>> entries;
  g.MapVertices([&](NodeId u) {
    g.MapNeighbors(u, [&](NodeId v) {
      entries.push_back({PackEdge(u, v), 1.0});
    });
  });
  const SparseMatrix a = SparseMatrix::FromEntries(
      g.NumVertices(), g.NumVertices(), std::move(entries));
  RandomizedSvdOptions opt;
  opt.rank = 16;
  opt.oversample = 10;
  opt.power_iters = 1;
  opt.symmetric = true;
  opt.seed = 12;
  const auto runs =
      OnBothArmsAndWorkerCounts([&] { return RandomizedSvd(a, opt).value(); });
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_TRUE(SameBytes(runs[r].u, runs[0].u)) << "run " << r;
    EXPECT_EQ(runs[r].sigma, runs[0].sigma) << "run " << r;
  }
}

TEST(SimdArmTest, SpectralPropagateIsByteIdenticalOnBothArms) {
  if (!HostHasAvx2()) GTEST_SKIP() << kNoAvx2;
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 77));
  const Matrix x = Matrix::Gaussian(g.NumVertices(), 24, 13);
  const auto runs = OnBothArmsAndWorkerCounts(
      [&] { return SpectralPropagate(g, x).value(); });
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_TRUE(SameBytes(runs[r], runs[0])) << "run " << r;
  }
}

TEST(SimdArmTest, RunLightNeIsByteIdenticalOnBothArms) {
  if (!HostHasAvx2()) GTEST_SKIP() << kNoAvx2;
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 29));
  LightNeOptions opt;
  opt.dim = 16;
  opt.window = 5;
  opt.samples_ratio = 1.0;
  const auto runs = OnBothArmsAndWorkerCounts(
      [&] { return RunLightNe(g, opt).value().embedding; });
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_TRUE(SameBytes(runs[r], runs[0])) << "run " << r;
  }
}

// ---------------------------------------------------- recorded embedding --

// RunLightNe's bytes on three small fixed inputs, digested and compared
// with recorded constants: the NetMF matrix (sparsifier.art), the
// pre-propagation embedding (rsvd.art) and the final one (final.art). The
// other tests compare arms, worker counts and resumes within one build;
// this one fails when a change moves any of those bytes at all. A change
// that alters the embedding on purpose records new constants and says so,
// with its quality evidence. The pipeline calls libm (ln n, TruncLog and
// the Box-Muller draw), so the constants are keyed by glibc version, and
// each entry is recorded from a run on that version, never guessed.

using StageDigests = std::array<uint64_t, 3>;  // sparsifier, rsvd, final

struct RecordedDigests {
  const char* glibc;
  StageDigests csr;
  StageDigests compressed;
  StageDigests weighted;
};

constexpr RecordedDigests kRecordedDigests[] = {
    {"2.36",
     {0x8fb5dd6f858e8beeull, 0xff38cd4ebdd2e17eull, 0xff9e63f324a52902ull},
     {0x8fb5dd6f858e8beeull, 0xff38cd4ebdd2e17eull, 0xff9e63f324a52902ull},
     {0xce6063fa3f05d874ull, 0xd110c88317faeb9bull, 0x66c6dca9bbcf04c4ull}},
};

// FNV-1a over the payload of every frame but the header frame, whose stats
// words and schema can change while the matrix and embeddings do not.
uint64_t FrameDigest(const std::string& path, uint32_t schema_id) {
  auto artifact = MappedArtifact::Open(path, schema_id);
  LIGHTNE_CHECK_MSG(artifact.ok(), "checkpoint artifact did not open");
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t f = 1; f < artifact->num_frames(); ++f) {
    const auto* bytes = static_cast<const uint8_t*>(artifact->frame(f).data);
    for (uint64_t i = 0; i < artifact->frame(f).bytes; ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

template <GraphView G>
StageDigests CheckpointDigests(const G& g, const std::string& dir) {
  LightNeOptions opt;
  opt.dim = 16;
  opt.window = 5;
  opt.samples_ratio = 1.0;
  opt.checkpoint_dir = dir;
  LIGHTNE_CHECK(RunLightNe(g, opt).ok());
  // Schema ids of the three artifacts (core/checkpoint.cc).
  const StageDigests digests = {FrameDigest(dir + "/sparsifier.art", 1),
                                FrameDigest(dir + "/rsvd.art", 2),
                                FrameDigest(dir + "/final.art", 3)};
  for (const char* file : {"sparsifier.art", "rsvd.art", "final.art"}) {
    std::remove((dir + "/" + file).c_str());
  }
  ::rmdir(dir.c_str());
  return digests;
}

TEST(RecordedEmbeddingTest, CheckpointBytesMatchRecordedDigests) {
  const char* glibc = gnu_get_libc_version();
  const RecordedDigests* want = nullptr;
  for (const RecordedDigests& r : kRecordedDigests) {
    if (std::strcmp(r.glibc, glibc) == 0) want = &r;
  }
  if (want == nullptr) {
    GTEST_SKIP() << "no digests recorded for glibc " << glibc;
  }
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 29));
  const CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  // The same edges with weights, each edge once: no weights are summed.
  WeightedEdgeList wlist;
  wlist.num_vertices = g.NumVertices();
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    g.MapNeighbors(u, [&](NodeId v) {
      if (u < v) {
        wlist.Add(u, v, 1.0f + 0.37f * static_cast<float>((7 * u + 3 * v) % 5));
      }
    });
  }
  const WeightedCsrGraph wg = WeightedCsrGraph::FromEdges(std::move(wlist));
  const std::string dir = ::testing::TempDir() + "/recorded_digests_" +
                          std::to_string(::getpid());
  const auto runs = OnBothArmsAndWorkerCounts([&] {
    return std::array<StageDigests, 3>{CheckpointDigests(g, dir),
                                       CheckpointDigests(cg, dir),
                                       CheckpointDigests(wg, dir)};
  });
  const char* const kRuns[] = {"dispatched arm, pool",
                               "dispatched arm, one worker",
                               "generic arm, pool", "generic arm, one worker"};
  const char* const kInputs[] = {"csr", "compressed", "weighted"};
  const char* const kStages[] = {"sparsifier.art", "rsvd.art", "final.art"};
  const StageDigests* wants[] = {&want->csr, &want->compressed,
                                 &want->weighted};
  for (size_t r = 0; r < runs.size(); ++r) {
    for (size_t in = 0; in < 3; ++in) {
      for (size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(runs[r][in][s], (*wants[in])[s])
            << kRuns[r] << ", " << kInputs[in] << " " << kStages[s]
            << ": got 0x" << std::hex << runs[r][in][s];
      }
    }
  }
}

}  // namespace
}  // namespace lightne
