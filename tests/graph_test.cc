#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "data/generators.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/dynamic.h"
#include "graph/edge_list.h"
#include "graph/graph_view.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "graph/walk_cursor.h"
#include "graph/weights.h"
#include "util/random.h"

namespace lightne {
namespace {

static_assert(GraphView<CsrGraph>);
static_assert(GraphView<CompressedGraph>);

EdgeList TriangleWithTail() {
  // 0-1, 1-2, 2-0, 2-3
  EdgeList list;
  list.num_vertices = 5;  // vertex 4 isolated
  list.Add(0, 1);
  list.Add(1, 2);
  list.Add(2, 0);
  list.Add(2, 3);
  return list;
}

TEST(EdgeListTest, SymmetrizeDoublesEdges) {
  EdgeList list = TriangleWithTail();
  Symmetrize(&list);
  EXPECT_EQ(list.edges.size(), 8u);
}

TEST(EdgeListTest, SortDedupRemovesDuplicatesAndLoops) {
  EdgeList list;
  list.num_vertices = 4;
  list.Add(1, 2);
  list.Add(1, 2);
  list.Add(2, 2);  // self loop
  list.Add(0, 3);
  SortDedup(&list);
  ASSERT_EQ(list.edges.size(), 2u);
  EXPECT_EQ(list.edges[0], std::make_pair(NodeId{0}, NodeId{3}));
  EXPECT_EQ(list.edges[1], std::make_pair(NodeId{1}, NodeId{2}));
}

TEST(CsrTest, BuildsTriangleWithTail) {
  CsrGraph g = CsrGraph::FromEdges(TriangleWithTail());
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.NumDirectedEdges(), 8u);
  EXPECT_EQ(g.NumUndirectedEdges(), 4u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(2), 3u);
  EXPECT_EQ(g.Degree(3), 1u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_EQ(g.Neighbor(2, 0), 0u);
  EXPECT_EQ(g.Neighbor(2, 1), 1u);
  EXPECT_EQ(g.Neighbor(2, 2), 3u);
  EXPECT_DOUBLE_EQ(g.Volume(), 8.0);
}

TEST(CsrTest, MapEdgesVisitsBothDirections) {
  CsrGraph g = CsrGraph::FromEdges(TriangleWithTail());
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> checksum{0};
  g.MapEdges([&](NodeId u, NodeId v) {
    count.fetch_add(1, std::memory_order_relaxed);
    checksum.fetch_add(PackEdge(u, v) % 997, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), g.NumDirectedEdges());
  // Symmetric: the multiset of (u,v) equals the multiset of (v,u).
  std::atomic<uint64_t> reverse_checksum{0};
  g.MapEdges([&](NodeId u, NodeId v) {
    reverse_checksum.fetch_add(PackEdge(v, u) % 997,
                               std::memory_order_relaxed);
  });
  EXPECT_EQ(checksum.load(), reverse_checksum.load());
}

TEST(CsrTest, EmptyGraph) {
  EdgeList list;
  list.num_vertices = 3;
  CsrGraph g = CsrGraph::FromEdges(std::move(list));
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumDirectedEdges(), 0u);
  EXPECT_EQ(g.Degree(1), 0u);
}

// ------------------------------------------------------------ compression --

class CompressionRoundTrip : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CompressionRoundTrip, DecodesIdenticalAdjacency) {
  // Both decode paths against the CSR adjacency: the full-row MapNeighbors
  // sweep, and Neighbor(v, i) at every i — which covers its inline arm
  // (within 8 of a block start), its SIMD-decoder arm, and, for blocks
  // wider than 64, the multi-chunk loop.
  const uint32_t block_size = GetParam();
  CsrGraph g = CsrGraph::FromEdges(GenerateRmat(12, 40000, 7));
  CompressedGraph cg = CompressedGraph::FromCsr(g, block_size);
  ASSERT_EQ(cg.NumVertices(), g.NumVertices());
  ASSERT_EQ(cg.NumDirectedEdges(), g.NumDirectedEdges());
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(cg.Degree(v), g.Degree(v)) << "vertex " << v;
    std::vector<NodeId> got;
    cg.MapNeighbors(v, [&](NodeId u) { got.push_back(u); });
    auto expect = g.Neighbors(v);
    ASSERT_EQ(got.size(), expect.size()) << "vertex " << v;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << "vertex " << v << " pos " << i;
      ASSERT_EQ(cg.Neighbor(v, i), expect[i]) << "vertex " << v << " i " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, CompressionRoundTrip,
                         ::testing::Values(1, 2, 16, 64, 256, 100000));

TEST(CompressionTest, IthNeighborMatchesCsr) {
  CsrGraph g = CsrGraph::FromEdges(GenerateRmat(11, 30000, 3));
  CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  Rng rng(5);
  for (int trial = 0; trial < 20000; ++trial) {
    NodeId v = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
    if (g.Degree(v) == 0) continue;
    uint64_t i = rng.UniformInt(g.Degree(v));
    ASSERT_EQ(cg.Neighbor(v, i), g.Neighbor(v, i)) << v << " " << i;
  }
}

TEST(CompressionTest, CompressesPowerLawGraph) {
  CsrGraph g = CsrGraph::FromEdges(GenerateRmat(14, 300000, 9));
  CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  // Difference coding should beat 4-byte ids on a sorted adjacency.
  EXPECT_LT(cg.EncodedBytes(), g.neighbors().size() * sizeof(NodeId));
  EXPECT_LT(cg.SizeBytes(), g.SizeBytes());
}

TEST(CompressionTest, MapEdgesMatchesCsr) {
  CsrGraph g = CsrGraph::FromEdges(GenerateErdosRenyi(500, 3000, 11));
  CompressedGraph cg = CompressedGraph::FromCsr(g, 4);
  std::atomic<uint64_t> a{0}, b{0};
  g.MapEdges([&](NodeId u, NodeId v) {
    a.fetch_add(PackEdge(u, v) % 1000003, std::memory_order_relaxed);
  });
  cg.MapEdges([&](NodeId u, NodeId v) {
    b.fetch_add(PackEdge(u, v) % 1000003, std::memory_order_relaxed);
  });
  EXPECT_EQ(a.load(), b.load());
}

TEST(CompressionTest, HandlesIsolatedAndFullVertices) {
  // Star graph: center adjacent to all others, plus an isolated vertex.
  EdgeList list;
  list.num_vertices = 202;
  for (NodeId v = 1; v <= 200; ++v) list.Add(0, v);
  CsrGraph g = CsrGraph::FromEdges(std::move(list));
  CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  EXPECT_EQ(cg.Degree(0), 200u);
  EXPECT_EQ(cg.Degree(201), 0u);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(cg.Neighbor(0, i), g.Neighbor(0, i));
  }
  EXPECT_EQ(cg.Neighbor(5, 0), 0u);
}

// ------------------------------------------------------------ random walk --

TEST(RandomWalkTest, StaysOnGraph) {
  CsrGraph g = CsrGraph::FromEdges(GenerateBarabasiAlbert(1000, 3, 13));
  Rng rng(99);
  for (int trial = 0; trial < 1000; ++trial) {
    NodeId start = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
    if (g.Degree(start) == 0) continue;
    NodeId end = WeightedRandomWalk(g, start, 10, rng);
    EXPECT_LT(end, g.NumVertices());
  }
}

TEST(RandomWalkTest, ZeroStepsReturnsStart) {
  CsrGraph g = CsrGraph::FromEdges(TriangleWithTail());
  Rng rng(1);
  EXPECT_EQ(WeightedRandomWalk(g, 3, 0, rng), 3u);
}

TEST(RandomWalkTest, UniformNeighborDistribution) {
  CsrGraph g = CsrGraph::FromEdges(TriangleWithTail());
  Rng rng(21);
  WalkContext<CsrGraph> ctx;
  std::map<NodeId, int> hits;
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    ++hits[SampleNeighborProportional(g, ctx, 2, rng)];
  }
  // Vertex 2 has neighbors {0, 1, 3}, each should get ~1/3.
  ASSERT_EQ(hits.size(), 3u);
  for (auto& [v, c] : hits) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 1.0 / 3, 0.02) << v;
  }
}

TEST(RandomWalkTest, StationaryDistributionProportionalToDegree) {
  // On a connected non-bipartite graph, long-walk endpoints ~ d(v)/2m.
  CsrGraph g = CsrGraph::FromEdges(TriangleWithTail());
  Rng rng(77);
  std::vector<int> hits(g.NumVertices(), 0);
  const int trials = 60000;
  for (int t = 0; t < trials; ++t) {
    ++hits[WeightedRandomWalk(g, 0, 50, rng)];
  }
  for (NodeId v = 0; v < 4; ++v) {
    double expect = static_cast<double>(g.Degree(v)) / g.Volume();
    EXPECT_NEAR(static_cast<double>(hits[v]) / trials, expect, 0.02) << v;
  }
  EXPECT_EQ(hits[4], 0);  // isolated vertex unreachable
}

// ------------------------------------------------------------------ stats --

TEST(StatsTest, TriangleWithTailStats) {
  CsrGraph g = CsrGraph::FromEdges(TriangleWithTail());
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_vertices, 5u);
  EXPECT_EQ(s.num_undirected_edges, 4u);
  EXPECT_EQ(s.max_degree, 3u);
  EXPECT_EQ(s.num_isolated, 1u);
  EXPECT_EQ(s.num_components, 2u);
  EXPECT_EQ(s.largest_component, 4u);
}

TEST(StatsTest, ComponentsOnDisjointCliques) {
  EdgeList list;
  list.num_vertices = 9;
  for (NodeId base : {0u, 3u, 6u}) {
    list.Add(base, base + 1);
    list.Add(base + 1, base + 2);
    list.Add(base, base + 2);
  }
  CsrGraph g = CsrGraph::FromEdges(std::move(list));
  NodeId k = 0;
  auto comp = ConnectedComponents(g, &k);
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[3], comp[6]);
}

TEST(StatsTest, DegreeHistogramSumsToN) {
  CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 10000, 17));
  auto hist = DegreeHistogram(g);
  uint64_t total = 0;
  for (uint64_t c : hist) total += c;
  EXPECT_EQ(total, g.NumVertices());
  EXPECT_GT(hist.back(), 0u);  // max-degree bucket non-empty by construction
}

// --------------------------------------------------------------------- io --

TEST(IoTest, TextRoundTrip) {
  EdgeList list = TriangleWithTail();
  const std::string path = ::testing::TempDir() + "/edges.txt";
  ASSERT_TRUE(SaveEdgeListText(list, path).ok());
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices, list.num_vertices);
  EXPECT_EQ(loaded->edges, list.edges);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileReturnsIOError) {
  auto r = LoadEdgeListText("/nonexistent/nope.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(IoTest, CommentsAndNodeDeclarationParsed) {
  const std::string path = ::testing::TempDir() + "/decl.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "# nodes: 50\n%% matrix-market style comment\n1 2\n3 4\n");
  std::fclose(f);
  auto r = LoadEdgeListText(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices, 50u);
  EXPECT_EQ(r->edges.size(), 2u);
  std::remove(path.c_str());
}

TEST(IoTest, WeightedTextRoundTrip) {
  WeightedEdgeList list;
  list.num_vertices = 10;
  list.Add(0, 1, 2.5f);
  list.Add(3, 4, 0.125f);
  const std::string path = ::testing::TempDir() + "/wedges.txt";
  ASSERT_TRUE(SaveWeightedEdgeListText(list, path).ok());
  auto loaded = LoadWeightedEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices, 10u);
  ASSERT_EQ(loaded->edges.size(), 2u);
  EXPECT_EQ(loaded->edges[0], std::make_tuple(NodeId{0}, NodeId{1}, 2.5f));
  EXPECT_EQ(loaded->edges[1], std::make_tuple(NodeId{3}, NodeId{4}, 0.125f));
  std::remove(path.c_str());
}

TEST(IoTest, WeightedTextDefaultsMissingWeightToOne) {
  const std::string path = ::testing::TempDir() + "/wdefault.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "1 2\n3 4 7.5\n");
  std::fclose(f);
  auto loaded = LoadWeightedEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->edges.size(), 2u);
  EXPECT_FLOAT_EQ(std::get<2>(loaded->edges[0]), 1.0f);
  EXPECT_FLOAT_EQ(std::get<2>(loaded->edges[1]), 7.5f);
  std::remove(path.c_str());
}

TEST(IoTest, WeightedTextRejectsNonPositiveWeight) {
  const std::string path = ::testing::TempDir() + "/wbad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "1 2 -3.0\n");
  std::fclose(f);
  EXPECT_FALSE(LoadWeightedEdgeListText(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------- dynamic graph --

TEST(DynamicGraphTest, SnapshotMatchesBatchRebuild) {
  Rng rng(5);
  DynamicGraph dyn(100);
  EdgeList all;
  all.num_vertices = 100;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::pair<NodeId, NodeId>> batch;
    for (int e = 0; e < 200; ++e) {
      NodeId u = static_cast<NodeId>(rng.UniformInt(100));
      NodeId v = static_cast<NodeId>(rng.UniformInt(100));
      batch.push_back({u, v});
      all.Add(u, v);
    }
    dyn.AddEdges(batch);
    const CsrGraph& snap = dyn.Snapshot();
    EdgeList copy = all;
    CsrGraph expect = CsrGraph::FromEdges(std::move(copy));
    ASSERT_EQ(snap.NumDirectedEdges(), expect.NumDirectedEdges()) << round;
    ASSERT_EQ(snap.neighbors(), expect.neighbors()) << round;
    ASSERT_EQ(snap.offsets(), expect.offsets()) << round;
  }
}

TEST(DynamicGraphTest, SnapshotIsCachedUntilNextBatch) {
  DynamicGraph dyn(10);
  dyn.AddEdge(0, 1);
  dyn.Snapshot();
  const uint64_t v1 = dyn.version();
  dyn.Snapshot();
  EXPECT_EQ(dyn.version(), v1);  // cached, no rebuild
  dyn.AddEdge(1, 2);
  dyn.Snapshot();
  EXPECT_EQ(dyn.version(), v1 + 1);
}

TEST(DynamicGraphTest, UniverseGrowsWithIds) {
  DynamicGraph dyn;
  dyn.AddEdge(3, 10);
  EXPECT_EQ(dyn.NumVertices(), 11u);
  dyn.AddEdge(20, 1);
  EXPECT_EQ(dyn.NumVertices(), 21u);
  const CsrGraph& snap = dyn.Snapshot();
  EXPECT_EQ(snap.NumVertices(), 21u);
  EXPECT_EQ(snap.NumUndirectedEdges(), 2u);
}

TEST(DynamicGraphTest, DuplicatesAndSelfLoopsCleaned) {
  DynamicGraph dyn(5);
  dyn.AddEdge(0, 1);
  dyn.AddEdge(1, 0);
  dyn.AddEdge(0, 1);
  dyn.AddEdge(2, 2);
  const CsrGraph& snap = dyn.Snapshot();
  EXPECT_EQ(snap.NumUndirectedEdges(), 1u);
  // Re-adding an existing edge across snapshots stays deduped.
  dyn.AddEdge(0, 1);
  EXPECT_EQ(dyn.Snapshot().NumUndirectedEdges(), 1u);
}

}  // namespace
}  // namespace lightne
