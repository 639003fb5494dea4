#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "data/datasets.h"
#include "data/generators.h"
#include "data/labels.h"
#include "graph/csr.h"
#include "graph/stats.h"

namespace lightne {
namespace {

TEST(RmatTest, ShapeAndDeterminism) {
  EdgeList a = GenerateRmat(10, 5000, 42);
  EXPECT_EQ(a.num_vertices, 1024u);
  EXPECT_EQ(a.edges.size(), 5000u);
  EdgeList b = GenerateRmat(10, 5000, 42);
  EXPECT_EQ(a.edges, b.edges);
  EdgeList c = GenerateRmat(10, 5000, 43);
  EXPECT_NE(a.edges, c.edges);
}

TEST(RmatTest, ProducesSkewedDegrees) {
  CsrGraph g = CsrGraph::FromEdges(GenerateRmat(13, 80000, 1));
  GraphStats s = ComputeStats(g);
  // A power-law-ish graph has max degree far above average.
  EXPECT_GT(static_cast<double>(s.max_degree), 20.0 * s.avg_degree);
}

TEST(ErdosRenyiTest, DegreesConcentrate) {
  CsrGraph g = CsrGraph::FromEdges(GenerateErdosRenyi(10000, 100000, 5));
  GraphStats s = ComputeStats(g);
  // ER max degree is within a small factor of the mean (Poisson tail).
  EXPECT_LT(static_cast<double>(s.max_degree), 4.0 * s.avg_degree + 10);
}

TEST(BarabasiAlbertTest, EdgeCountAndConnectivity) {
  const NodeId n = 2000;
  const uint32_t k = 3;
  CsrGraph g = CsrGraph::FromEdges(GenerateBarabasiAlbert(n, k, 7));
  EXPECT_EQ(g.NumVertices(), n);
  // Each of n-k-1 vertices adds k edges (some may duplicate), plus the seed
  // path of k edges.
  EXPECT_LE(g.NumUndirectedEdges(), static_cast<EdgeId>(n) * k);
  EXPECT_GT(g.NumUndirectedEdges(), static_cast<EdgeId>(n) * k * 8 / 10);
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_components, 1u);  // attachment keeps it connected
  EXPECT_GT(static_cast<double>(s.max_degree), 5.0 * s.avg_degree);
}

TEST(SbmTest, PlantsAssortativeCommunities) {
  std::vector<NodeId> community;
  EdgeList list = GenerateSbm(5000, 10, 50000, 0.8, 3, &community);
  ASSERT_EQ(community.size(), 5000u);
  CsrGraph g = CsrGraph::FromEdges(std::move(list));
  // Measure the intra-community edge fraction; must be far above the
  // ~1/10-ish baseline of a random graph.
  std::atomic<uint64_t> intra{0}, total{0};
  g.MapEdges([&](NodeId u, NodeId v) {
    total.fetch_add(1, std::memory_order_relaxed);
    if (community[u] == community[v]) {
      intra.fetch_add(1, std::memory_order_relaxed);
    }
  });
  double frac = static_cast<double>(intra.load()) / total.load();
  EXPECT_GT(frac, 0.5);
}

TEST(SbmTest, CommunitySizesFollowDecay) {
  std::vector<NodeId> community;
  GenerateSbm(20000, 8, 1000, 0.5, 9, &community);
  std::vector<uint64_t> size(8, 0);
  for (NodeId c : community) ++size[c];
  // P(c) ∝ 1/sqrt(c+1): community 0 strictly largest, 7 smallest.
  EXPECT_GT(size[0], size[7]);
  EXPECT_GT(size[0], 2000u);
}

TEST(LabelsTest, FromListsPacksAndSorts) {
  std::vector<std::vector<uint32_t>> lists = {{2, 0}, {}, {1}};
  MultiLabels labels = MultiLabels::FromLists(lists, 3);
  EXPECT_EQ(labels.NumNodes(), 3u);
  EXPECT_EQ(labels.num_labels, 3u);
  auto l0 = labels.LabelsOf(0);
  ASSERT_EQ(l0.size(), 2u);
  EXPECT_EQ(l0[0], 0u);
  EXPECT_EQ(l0[1], 2u);
  EXPECT_TRUE(labels.LabelsOf(1).empty());
  EXPECT_EQ(labels.LabelsOf(2)[0], 1u);
}

TEST(LabelsTest, CommunitiesAlwaysIncludePrimary) {
  std::vector<NodeId> community = {0, 1, 2, 1, 0};
  MultiLabels labels = LabelsFromCommunities(community, 3, 0.5, 11);
  for (NodeId v = 0; v < 5; ++v) {
    auto lv = labels.LabelsOf(v);
    EXPECT_TRUE(std::find(lv.begin(), lv.end(), community[v]) != lv.end());
    EXPECT_GE(lv.size(), 1u);
    EXPECT_LE(lv.size(), 3u);
  }
}

TEST(LabelsTest, ExtraProbZeroGivesSingleLabels) {
  std::vector<NodeId> community(100, 0);
  for (NodeId v = 0; v < 100; ++v) community[v] = v % 4;
  MultiLabels labels = LabelsFromCommunities(community, 4, 0.0, 1);
  for (NodeId v = 0; v < 100; ++v) {
    ASSERT_EQ(labels.LabelsOf(v).size(), 1u);
    EXPECT_EQ(labels.LabelsOf(v)[0], community[v]);
  }
}

TEST(DatasetsTest, RegistryHasAllNinePaperDatasets) {
  const auto& reg = DatasetRegistry();
  ASSERT_EQ(reg.size(), 9u);
  std::set<std::string> papers;
  for (const auto& spec : reg) papers.insert(spec.paper_name);
  for (const char* name :
       {"BlogCatalog", "YouTube", "LiveJournal", "Friendster-small",
        "Hyperlink-PLD", "Friendster", "OAG", "ClueWeb-Sym",
        "Hyperlink2014-Sym"}) {
    EXPECT_TRUE(papers.count(name)) << name;
  }
}

TEST(DatasetsTest, FindByNameAndMissing) {
  EXPECT_TRUE(FindDataset("BlogCatalog-sim").ok());
  auto missing = FindDataset("NotAGraph");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatasetsTest, BuildBlogCatalogSimHasLabels) {
  auto ds = BuildDatasetByName("BlogCatalog-sim");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->graph.NumVertices(), 10312u);
  EXPECT_GT(ds->graph.NumUndirectedEdges(), 100000u);
  EXPECT_EQ(ds->labels.NumNodes(), 10312u);
  EXPECT_EQ(ds->labels.num_labels, 39u);
  EXPECT_EQ(ds->community.size(), 10312u);
}

TEST(DatasetsTest, RmatDatasetHasNoLabels) {
  DatasetSpec spec;
  spec.name = "custom-rmat";
  spec.kind = DatasetSpec::Kind::kRmat;
  spec.task = DatasetSpec::Task::kLinkPrediction;
  spec.rmat_scale = 12;
  spec.sampled_edges = 30000;
  spec.seed = 5;
  Dataset ds = BuildDataset(spec);
  EXPECT_EQ(ds.graph.NumVertices(), 4096u);
  EXPECT_EQ(ds.labels.NumNodes(), 0u);
  EXPECT_TRUE(ds.community.empty());
}

TEST(DatasetsTest, LinkPredictionStandInsAreClustered) {
  auto spec = FindDataset("LiveJournal-sim");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, DatasetSpec::Kind::kSbm);
  EXPECT_EQ(spec->task, DatasetSpec::Task::kLinkPrediction);
  EXPECT_GT(spec->communities, 100u);
  EXPECT_GE(spec->intra_fraction, 0.85);
}

// Global clustering coefficient, 3 * triangles / wedges, counted
// sequentially: each triangle {u < v < w} once, as the common neighbours of
// u and v above v (adjacency lists are sorted).
double GlobalClustering(const CsrGraph& g) {
  uint64_t triangles = 0;
  uint64_t wedges = 0;
  std::vector<NodeId> common;
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    auto nu = g.Neighbors(u);
    if (nu.empty()) continue;
    wedges += nu.size() * (nu.size() - 1) / 2;
    for (NodeId v : nu) {
      if (v <= u) continue;
      auto nv = g.Neighbors(v);
      common.clear();
      std::set_intersection(std::upper_bound(nu.begin(), nu.end(), v),
                            nu.end(),
                            std::upper_bound(nv.begin(), nv.end(), v),
                            nv.end(), std::back_inserter(common));
      triangles += common.size();
    }
  }
  return 3.0 * static_cast<double>(triangles) / static_cast<double>(wedges);
}

TEST(DatasetsTest, ClusteredStandInsBeatRandomGraphs) {
  // The DESIGN.md claim: link-prediction stand-ins are clustered.
  std::vector<NodeId> community;
  CsrGraph sbm = CsrGraph::FromEdges(
      GenerateSbm(5000, 100, 60000, 0.9, 3, &community));
  CsrGraph er = CsrGraph::FromEdges(GenerateErdosRenyi(5000, 60000, 3));
  EXPECT_GT(GlobalClustering(sbm), 5.0 * GlobalClustering(er));
}

TEST(DatasetsTest, DeterministicAcrossBuilds) {
  auto a = BuildDatasetByName("YouTube-sim");
  auto b = BuildDatasetByName("YouTube-sim");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->graph.NumDirectedEdges(), b->graph.NumDirectedEdges());
  EXPECT_EQ(a->graph.neighbors(), b->graph.neighbors());
  EXPECT_EQ(a->labels.labels, b->labels.labels);
}

}  // namespace
}  // namespace lightne
