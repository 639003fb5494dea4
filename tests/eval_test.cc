#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "data/generators.h"
#include "data/labels.h"
#include "eval/classification.h"
#include "eval/cost_model.h"
#include "eval/embedding_quality.h"
#include "eval/link_prediction.h"
#include "graph/csr.h"
#include "parallel/parallel_for.h"
#include "util/random.h"

namespace lightne {
namespace {

// ------------------------------------------------------------- edge split --

TEST(SplitTest, PartitionsEdgesAtRequestedFraction) {
  EdgeList list = GenerateErdosRenyi(2000, 30000, 3);
  SymmetrizeAndClean(&list);
  const uint64_t undirected = list.edges.size() / 2;
  EdgeSplit split = SplitEdges(list, 0.2, 7);
  EXPECT_NEAR(static_cast<double>(split.test_positives.size()) / undirected,
              0.2, 0.02);
  // Train keeps both directions and remains symmetric.
  EXPECT_EQ(split.train.edges.size() % 2, 0u);
  EXPECT_EQ(split.train.edges.size() / 2 + split.test_positives.size(),
            undirected);
  std::set<std::pair<NodeId, NodeId>> train_set(split.train.edges.begin(),
                                                split.train.edges.end());
  for (const auto& [u, v] : split.train.edges) {
    EXPECT_TRUE(train_set.count({v, u})) << u << "," << v;
  }
  // Test positives are canonical (u < v) and disjoint from training.
  for (const auto& [u, v] : split.test_positives) {
    EXPECT_LT(u, v);
    EXPECT_FALSE(train_set.count({u, v}));
  }
}

TEST(SplitTest, DeterministicInSeed) {
  EdgeList list = GenerateErdosRenyi(500, 5000, 1);
  SymmetrizeAndClean(&list);
  EdgeSplit a = SplitEdges(list, 0.1, 11);
  EdgeSplit b = SplitEdges(list, 0.1, 11);
  EXPECT_EQ(a.test_positives, b.test_positives);
  EdgeSplit c = SplitEdges(list, 0.1, 12);
  EXPECT_NE(a.test_positives, c.test_positives);
}

// -------------------------------------------------------- ranking metrics --

// An embedding where structure is planted: nodes in the same group have
// identical one-hot rows, so same-group dot products are 1, cross-group 0.
Matrix GroupedEmbedding(NodeId n, uint32_t groups) {
  Matrix x(n, groups);
  for (NodeId v = 0; v < n; ++v) x.At(v, v % groups) = 1.0f;
  return x;
}

TEST(RankingTest, PerfectEmbeddingGetsTopRanks) {
  const NodeId n = 1000;
  const uint32_t groups = 50;  // 20 nodes per group
  Matrix x = GroupedEmbedding(n, groups);
  std::vector<std::pair<NodeId, NodeId>> positives;
  for (NodeId v = 0; v + groups < n && positives.size() < 200; v += 7) {
    positives.push_back({v, v + groups});  // same group
  }
  RankingMetrics m = EvaluateRanking(x, positives, 500, {1, 10}, 3);
  // A positive scores 1; only the ~2% same-group negatives tie (rank counts
  // strictly better only), so expected rank is 1.
  EXPECT_DOUBLE_EQ(m.mean_rank, 1.0);
  EXPECT_DOUBLE_EQ(m.mean_reciprocal_rank, 1.0);
  EXPECT_DOUBLE_EQ(m.hits_at[0], 1.0);
  EXPECT_DOUBLE_EQ(m.hits_at[1], 1.0);
}

TEST(RankingTest, AntiCorrelatedEmbeddingRanksPoorly) {
  const NodeId n = 500;
  Matrix x = GroupedEmbedding(n, 10);
  std::vector<std::pair<NodeId, NodeId>> positives;
  for (NodeId v = 0; v < 200; ++v) {
    positives.push_back({v, v + 1});  // different groups: score 0
  }
  RankingMetrics m = EvaluateRanking(x, positives, 300, {1}, 5);
  // ~10% of negatives score 1 (> 0), so mean rank ~ 31.
  EXPECT_GT(m.mean_rank, 10.0);
  EXPECT_LT(m.hits_at[0], 0.5);
}

TEST(RankingTest, EmptyPositives) {
  Matrix x = GroupedEmbedding(10, 2);
  RankingMetrics m = EvaluateRanking(x, {}, 10, {1, 10}, 1);
  EXPECT_EQ(m.mean_rank, 0.0);
  EXPECT_EQ(m.hits_at.size(), 2u);
}

// -------------------------------------------------------------------- AUC --

TEST(AucTest, PerfectAndRandomEmbeddings) {
  const NodeId n = 2000;
  const uint32_t groups = 40;
  Matrix x = GroupedEmbedding(n, groups);
  std::vector<std::pair<NodeId, NodeId>> positives;
  for (NodeId v = 0; v + groups < n; v += 3) {
    positives.push_back({v, v + groups});
  }
  // Positives score 1; random pairs score 1 only with prob 1/40.
  double auc = EvaluateAuc(x, positives, 7);
  EXPECT_GT(auc, 0.95);

  // A constant embedding carries no signal: AUC ~ 0.5 up to tie handling.
  Matrix junk = Matrix::Gaussian(n, 8, 5);
  std::vector<std::pair<NodeId, NodeId>> random_pairs;
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    random_pairs.push_back({static_cast<NodeId>(rng.UniformInt(n)),
                            static_cast<NodeId>(rng.UniformInt(n))});
  }
  double auc_junk = EvaluateAuc(junk, random_pairs, 11);
  EXPECT_NEAR(auc_junk, 0.5, 0.05);
}

TEST(RankingTest, FilteredProtocolExcludesTrueEdges) {
  // Clique of 20 with one-hot group embedding: unfiltered ranking of a test
  // edge suffers from other clique members tying; filtered ranking excludes
  // them.
  const NodeId n = 400;
  EdgeList list;
  list.num_vertices = n;
  for (NodeId u = 0; u < 20; ++u) {
    for (NodeId v = u + 1; v < 20; ++v) list.Add(u, v);
  }
  CsrGraph known = CsrGraph::FromEdges(std::move(list));
  // Embedding: clique members share a hot dimension with DIFFERENT strong
  // magnitudes so clique negatives strictly outscore the weakest test edge.
  Matrix x(n, 2);
  for (NodeId v = 0; v < n; ++v) {
    x.At(v, 0) = v < 20 ? 1.0f + 0.1f * static_cast<float>(v) : 0.0f;
    x.At(v, 1) = 0.01f;
  }
  std::vector<std::pair<NodeId, NodeId>> positives = {{0, 1}};
  RankingMetrics unfiltered = EvaluateRanking(x, positives, 5000, {1}, 3);
  RankingMetrics filtered =
      EvaluateRanking(x, positives, 5000, {1}, 3, &known);
  // Unfiltered: clique members w >= 2 score higher than the positive (0,1).
  EXPECT_GT(unfiltered.mean_rank, 100.0);
  // Filtered: those are true edges of `known` and are excluded.
  EXPECT_DOUBLE_EQ(filtered.mean_rank, 1.0);
}

TEST(EvalTest, RankingBitIdenticalAcrossWorkerCounts) {
  // The MRR is a floating-point sum of 1/rank; it must be summed in index
  // order, not in the order the pool finishes positives. Compared against a
  // forced 1-worker run; the eval_test_mt4 variant is where it bites.
  const NodeId n = 5000;
  const Matrix x = Matrix::Gaussian(n, 16, 21);
  std::vector<std::pair<NodeId, NodeId>> positives(20000);
  for (uint64_t i = 0; i < positives.size(); ++i) {
    Rng rng = ItemRng(5, i);
    positives[i] = {static_cast<NodeId>(rng.UniformInt(n)),
                    static_cast<NodeId>(rng.UniformInt(n))};
  }
  const std::vector<uint32_t> ks = {1, 10};
  const RankingMetrics serial = [&] {
    SequentialRegion seq;
    return EvaluateRanking(x, positives, 50, ks, 9);
  }();
  for (int run = 0; run < 3; ++run) {
    const RankingMetrics pooled = EvaluateRanking(x, positives, 50, ks, 9);
    EXPECT_EQ(std::bit_cast<uint64_t>(pooled.mean_reciprocal_rank),
              std::bit_cast<uint64_t>(serial.mean_reciprocal_rank));
    EXPECT_EQ(pooled.mean_rank, serial.mean_rank);
    EXPECT_EQ(pooled.hits_at, serial.hits_at);
  }
}

// ------------------------------------------------------- embedding quality --

TEST(EmbeddingQualityTest, SeparationPositiveForPlantedNegativeForNone) {
  const NodeId n = 1000;
  std::vector<NodeId> community(n);
  Matrix planted(n, 4);
  Rng rng(7);
  for (NodeId v = 0; v < n; ++v) {
    community[v] = static_cast<NodeId>(v % 4);
    planted.At(v, community[v]) = 1.0f;
  }
  EXPECT_GT(CommunitySeparation(planted, community), 0.9);
  Matrix random = Matrix::Gaussian(n, 4, 5);
  EXPECT_NEAR(CommunitySeparation(random, community), 0.0, 0.05);
}

TEST(EmbeddingQualityTest, MeanPairSimilarityBounds) {
  Matrix x(4, 2);
  x.At(0, 0) = 1.0f;
  x.At(1, 0) = 2.0f;   // same direction as 0
  x.At(2, 1) = 1.0f;   // orthogonal
  x.At(3, 0) = -1.0f;  // opposite
  EXPECT_NEAR(MeanPairSimilarity(x, {{0, 1}}), 1.0, 1e-6);
  EXPECT_NEAR(MeanPairSimilarity(x, {{0, 2}}), 0.0, 1e-6);
  EXPECT_NEAR(MeanPairSimilarity(x, {{0, 3}}), -1.0, 1e-6);
  EXPECT_EQ(MeanPairSimilarity(x, {}), 0.0);
}

// --------------------------------------------------------- classification --

// Clearly separable features: one-hot of the node's label plus noise.
void SeparableProblem(NodeId n, uint32_t num_labels, double noise,
                      uint64_t seed, Matrix* features, MultiLabels* labels) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> lists(n);
  *features = Matrix(n, num_labels + 2);
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t y = static_cast<uint32_t>(rng.UniformInt(num_labels));
    lists[v].push_back(y);
    features->At(v, y) = 1.0f;
    for (uint64_t j = 0; j < num_labels + 2; ++j) {
      features->At(v, j) += static_cast<float>(noise * rng.Gaussian());
    }
  }
  *labels = MultiLabels::FromLists(lists, num_labels);
}

TEST(LogRegTest, LearnsSeparableProblem) {
  Matrix features;
  MultiLabels labels;
  SeparableProblem(3000, 6, 0.05, 3, &features, &labels);
  F1Scores f1 = EvaluateNodeClassification(features, labels, 0.5, 7);
  EXPECT_GT(f1.micro, 0.95);
  EXPECT_GT(f1.macro, 0.95);
}

TEST(LogRegTest, RandomFeaturesScoreNearChance) {
  Matrix features = Matrix::Gaussian(2000, 16, 9);
  std::vector<std::vector<uint32_t>> lists(2000);
  Rng rng(5);
  for (auto& l : lists) {
    l.push_back(static_cast<uint32_t>(rng.UniformInt(8)));
  }
  MultiLabels labels = MultiLabels::FromLists(lists, 8);
  F1Scores f1 = EvaluateNodeClassification(features, labels, 0.5, 3);
  EXPECT_LT(f1.micro, 0.35);  // chance is ~1/8 with top-1 prediction
}

TEST(LogRegTest, MultiLabelTopKProtocol) {
  // Nodes with two labels get exactly two predictions.
  Matrix features;
  MultiLabels single;
  SeparableProblem(200, 4, 0.01, 1, &features, &single);
  std::vector<std::vector<uint32_t>> lists(200);
  for (NodeId v = 0; v < 200; ++v) {
    lists[v] = {single.LabelsOf(v)[0]};
    if (v % 3 == 0) {
      uint32_t extra = (single.LabelsOf(v)[0] + 1) % 4;
      if (extra != lists[v][0]) lists[v].push_back(extra);
      std::sort(lists[v].begin(), lists[v].end());
    }
  }
  MultiLabels labels = MultiLabels::FromLists(lists, 4);
  std::vector<NodeId> train, test;
  for (NodeId v = 0; v < 150; ++v) train.push_back(v);
  for (NodeId v = 150; v < 200; ++v) test.push_back(v);
  auto model = OneVsRestLogReg::Train(features, labels, train, {});
  for (NodeId v : test) {
    auto pred = model.PredictTopK(
        features, v, static_cast<uint32_t>(labels.LabelsOf(v).size()));
    EXPECT_EQ(pred.size(), labels.LabelsOf(v).size());
    EXPECT_TRUE(std::is_sorted(pred.begin(), pred.end()));
  }
}

TEST(LogRegTest, MoreTrainingDataHelps) {
  Matrix features;
  MultiLabels labels;
  SeparableProblem(4000, 10, 0.6, 13, &features, &labels);
  F1Scores low = EvaluateNodeClassification(features, labels, 0.02, 7);
  F1Scores high = EvaluateNodeClassification(features, labels, 0.7, 7);
  EXPECT_GT(high.micro, low.micro);
}

TEST(LogRegTest, ZeroLabelNodesExcluded) {
  Matrix features = Matrix::Gaussian(100, 4, 1);
  std::vector<std::vector<uint32_t>> lists(100);
  for (NodeId v = 0; v < 50; ++v) lists[v] = {v % 2};
  // Nodes 50..99 unlabeled.
  MultiLabels labels = MultiLabels::FromLists(lists, 2);
  // Must not crash and must return finite scores.
  F1Scores f1 = EvaluateNodeClassification(features, labels, 0.5, 3);
  EXPECT_GE(f1.micro, 0.0);
  EXPECT_LE(f1.micro, 1.0);
}

// --------------------------------------------------------------- cost model --

TEST(CostModelTest, Table2Catalog) {
  EXPECT_EQ(AzureCatalog().size(), 4u);
  EXPECT_EQ(SystemCatalog().size(), 4u);
  auto m128s = FindInstance("M128s");
  ASSERT_TRUE(m128s.ok());
  EXPECT_EQ(m128s->vcores, 128);
  EXPECT_DOUBLE_EQ(m128s->price_per_hour, 13.338);
  EXPECT_FALSE(FindInstance("Z9000").ok());
}

TEST(CostModelTest, SystemInstanceMapping) {
  auto gv = InstanceForSystem("GraphVite");
  ASSERT_TRUE(gv.ok());
  EXPECT_EQ(gv->name, "NC24s v2");
  EXPECT_EQ(gv->gpus, 4);
  auto lightne = InstanceForSystem("LightNE");
  ASSERT_TRUE(lightne.ok());
  EXPECT_EQ(lightne->name, "M128s");
  EXPECT_FALSE(InstanceForSystem("DeepWalk").ok());
}

TEST(CostModelTest, CostArithmeticMatchesPaper) {
  // Paper §5.2.1: LightNE takes 16 min on M128s => $2.76 (incl. rounding).
  auto m128s = FindInstance("M128s");
  ASSERT_TRUE(m128s.ok());
  EXPECT_NEAR(EstimateCostUsd(*m128s, 16 * 60), 3.56, 0.01);
  // PBG: 7.25 h on E48 v3 => $21.92 ~ paper's $21.95.
  auto e48 = FindInstance("E48 v3");
  ASSERT_TRUE(e48.ok());
  EXPECT_NEAR(EstimateCostUsd(*e48, 7.25 * 3600), 21.95, 0.05);
}

}  // namespace
}  // namespace lightne
