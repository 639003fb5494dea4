#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "baselines/alias.h"
#include "baselines/deepwalk.h"
#include "baselines/line.h"
#include "baselines/netmf_dense.h"
#include "baselines/netsmf_original.h"
#include "baselines/nrp.h"
#include "baselines/prone.h"
#include "core/lightne.h"
#include "data/generators.h"
#include "eval/classification.h"
#include "eval/embedding_quality.h"
#include "graph/csr.h"

namespace lightne {
namespace {

// Shared fixture data: a well-separated SBM with labels.
struct Planted {
  CsrGraph graph;
  std::vector<NodeId> community;
  MultiLabels labels;
};

const Planted& PlantedSbm() {
  static const Planted* p = [] {
    auto* planted = new Planted;
    planted->graph = CsrGraph::FromEdges(GenerateSbm(
        1500, 4, 15000, 0.85, 77, &planted->community));
    planted->labels =
        LabelsFromCommunities(planted->community, 4, 0.0, 77);
    return planted;
  }();
  return *p;
}

// Community-separation score (shared metric from eval/embedding_quality.h).
double SeparationScore(const Matrix& embedding,
                       const std::vector<NodeId>& community) {
  return CommunitySeparation(embedding, community);
}

// ------------------------------------------------------------------ alias --

TEST(AliasTest, MatchesTargetDistribution) {
  std::vector<double> weights = {1.0, 2.0, 0.0, 4.0, 1.0};
  AliasTable table(weights);
  std::vector<int> hits(weights.size(), 0);
  Rng rng(3);
  const int trials = 400000;
  for (int t = 0; t < trials; ++t) ++hits[table.Sample(rng)];
  const double total = 8.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials, weights[i] / total,
                0.005)
        << i;
  }
  EXPECT_EQ(hits[2], 0);  // zero-weight index never sampled
}

TEST(AliasTest, SingleAndUniform) {
  AliasTable one({5.0});
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(one.Sample(rng), 0u);
  AliasTable uniform(std::vector<double>(16, 1.0));
  std::vector<int> hits(16, 0);
  for (int t = 0; t < 160000; ++t) ++hits[uniform.Sample(rng)];
  for (int h : hits) EXPECT_NEAR(h, 10000, 700);
}

// ------------------------------------------------------------------- SGNS --

TEST(SgnsTest, PositivePairsGainSimilarity) {
  const CsrGraph g = PlantedSbm().graph;
  SgnsOptions opt;
  opt.dim = 16;
  SgnsModel model(g.NumVertices(), opt);
  AliasTable noise = DegreeNoiseTable(g);
  Rng rng(5);
  // Repeatedly train the same pair; its input/output dot must rise.
  auto score = [&] {
    double dot = 0;
    for (uint64_t j = 0; j < 16; ++j) {
      dot += static_cast<double>(model.embedding().At(10, j)) *
             model.embedding().At(20, j);
    }
    return dot;
  };
  for (int i = 0; i < 3000; ++i) {
    model.TrainPair(10, 20, 0.05f, noise, rng);
    model.TrainPair(20, 10, 0.05f, noise, rng);
  }
  EXPECT_GT(score(), 0.3);
}

// -------------------------------------------------------- embedding quality --

TEST(DeepWalkTest, SeparatesPlantedCommunities) {
  const Planted& p = PlantedSbm();
  DeepWalkOptions opt;
  opt.dim = 32;
  opt.walks_per_node = 10;
  opt.walk_length = 20;
  opt.window = 5;
  opt.learning_rate = 0.05;
  Matrix x = TrainDeepWalk(p.graph, opt);
  EXPECT_EQ(x.rows(), p.graph.NumVertices());
  EXPECT_GT(SeparationScore(x, p.community), 0.15);
}

TEST(LineTest, SeparatesPlantedCommunities) {
  const Planted& p = PlantedSbm();
  LineOptions opt;
  opt.dim = 32;
  opt.samples_per_edge = 30;
  Matrix x = TrainLine(p.graph, opt);
  EXPECT_GT(SeparationScore(x, p.community), 0.1);
}

TEST(ProneTest, SeparatesPlantedCommunitiesAndStages) {
  const Planted& p = PlantedSbm();
  ProneOptions opt;
  opt.dim = 32;
  auto r = RunProne(p.graph, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(SeparationScore(r->embedding, p.community), 0.15);
  EXPECT_GT(r->timing.SecondsFor("factorization"), 0.0);
  EXPECT_GT(r->timing.SecondsFor("propagation"), 0.0);
}

TEST(ProneTest, MatrixMatchesFormulaOnToyGraph) {
  // Path graph 0-1-2: degrees 1,2,1. tau_0 = 1/2, tau_1 = 2, tau_2 = 1/2.
  EdgeList list;
  list.num_vertices = 3;
  list.Add(0, 1);
  list.Add(1, 2);
  const CsrGraph g = CsrGraph::FromEdges(std::move(list));
  SparseMatrix m = BuildProneMatrix(g, 0.75, 1.0);
  const double tau0 = 0.5, tau1 = 2.0;
  const double z = 2.0 * std::pow(tau0, 0.75) + std::pow(tau1, 0.75);
  // M_01 = log( (1/d_0) * z / tau_1^0.75 ).
  EXPECT_NEAR(m.At(0, 1), std::log(z / std::pow(tau1, 0.75)), 1e-5);
  // M_10 = log( (1/2) * z / tau_0^0.75 ).
  EXPECT_NEAR(m.At(1, 0), std::log(0.5 * z / std::pow(tau0, 0.75)), 1e-5);
  EXPECT_EQ(m.nnz(), 4u);
}

TEST(NrpTest, SeparatesPlantedCommunities) {
  const Planted& p = PlantedSbm();
  NrpOptions opt;
  opt.dim = 32;
  auto r = RunNrp(p.graph, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(SeparationScore(*r, p.community), 0.1);
}

TEST(NetsmfOriginalTest, SeparatesCommunitiesAndReportsStats) {
  const Planted& p = PlantedSbm();
  NetsmfOptions opt;
  opt.dim = 32;
  opt.window = 5;
  opt.samples_ratio = 2.0;
  auto r = RunNetsmfOriginal(p.graph, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(SeparationScore(r->embedding, p.community), 0.15);
  EXPECT_GT(r->samples_drawn, 0u);
  EXPECT_GT(r->buffer_bytes, 0u);
  EXPECT_GT(r->sparsifier_nnz, 0u);
}

// NetSMF samples on LightNE's pass with downsampling off and only keeps the
// samples in lists instead of the table, so its embedding is LightNE's
// sparsifier without downsampling -> NetMF transform -> rSVD, bit for bit.
TEST(NetsmfOriginalTest, EqualsLightNeSparsifierWithoutDownsampling) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 6000, 11));
  NetsmfOptions nopt;
  nopt.dim = 16;
  nopt.window = 5;
  nopt.samples_ratio = 3.0;
  nopt.seed = 9;
  auto netsmf = RunNetsmfOriginal(g, nopt);
  ASSERT_TRUE(netsmf.ok());
  // Two (key, double) records per sample.
  EXPECT_EQ(netsmf->buffer_bytes, 32 * netsmf->samples_drawn);

  SparsifierOptions sopt;
  sopt.num_samples = static_cast<uint64_t>(
      nopt.samples_ratio * nopt.window *
      (static_cast<double>(g.NumDirectedEdges()) / 2.0));
  sopt.window = nopt.window;
  sopt.seed = nopt.seed;
  sopt.downsample = false;
  auto sparsifier = BuildSparsifier(g, sopt);
  ASSERT_TRUE(sparsifier.ok());
  EXPECT_EQ(sparsifier->samples_drawn, netsmf->samples_drawn);
  SparseMatrix matrix = std::move(sparsifier->matrix);
  ApplyNetmfTransform(g, sopt.num_samples, nopt.negative_samples, &matrix);
  EXPECT_EQ(matrix.nnz(), netsmf->sparsifier_nnz);
  RandomizedSvdOptions ropt;
  ropt.rank = nopt.dim;
  ropt.oversample = nopt.svd_oversample;
  ropt.power_iters = nopt.svd_power_iters;
  ropt.symmetric = true;
  ropt.seed = nopt.seed + 7;
  auto svd = RandomizedSvd(matrix, ropt);
  ASSERT_TRUE(svd.ok());
  const Matrix embedding = EmbeddingFromSvd(std::move(*svd));
  ASSERT_EQ(embedding.rows(), netsmf->embedding.rows());
  ASSERT_EQ(embedding.cols(), netsmf->embedding.cols());
  EXPECT_EQ(0, std::memcmp(embedding.data(), netsmf->embedding.data(),
                           embedding.rows() * embedding.cols() *
                               sizeof(float)));
}

TEST(NetsmfOriginalTest, BuffersCostMoreMemoryThanLightNeTable) {
  // The §5.2.4 ablation: NetSMF buffers one record per *sample*; LightNE's
  // table stores one slot per *distinct* pair. At high sample ratios (the
  // paper's M = 20Tm regime) the support saturates and the table wins big.
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 10000, 3));
  const double ratio = 64.0;
  NetsmfOptions nopt;
  nopt.dim = 16;
  nopt.window = 10;
  nopt.samples_ratio = ratio;
  auto netsmf = RunNetsmfOriginal(g, nopt);
  ASSERT_TRUE(netsmf.ok());

  SparsifierOptions sopt;
  sopt.num_samples = static_cast<uint64_t>(
      ratio * nopt.window * static_cast<double>(g.NumUndirectedEdges()));
  sopt.window = nopt.window;
  sopt.downsample = true;
  auto lightne = BuildSparsifier(g, sopt);
  ASSERT_TRUE(lightne.ok());
  EXPECT_GT(netsmf->buffer_bytes, lightne->table_bytes);
}

TEST(NetmfDenseTest, WorksOnSmallAndRejectsLarge) {
  const Planted& p = PlantedSbm();
  NetmfDenseOptions opt;
  opt.dim = 32;
  opt.window = 5;
  auto r = RunNetmfDense(p.graph, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(SeparationScore(*r, p.community), 0.2);

  const CsrGraph big = CsrGraph::FromEdges(GenerateRmat(13, 20000, 1));
  EXPECT_FALSE(RunNetmfDense(big, opt).ok());
}

// LightNE should match or beat its two building blocks on the planted task
// (the paper's Table 4 story, qualitatively).
TEST(QualityTest, LightNeCompetitiveWithIngredients) {
  const Planted& p = PlantedSbm();
  LightNeOptions lopt;
  lopt.dim = 32;
  lopt.window = 5;
  lopt.samples_ratio = 4.0;
  auto lightne = RunLightNe(p.graph, lopt);
  ASSERT_TRUE(lightne.ok());
  const double score_lightne = SeparationScore(lightne->embedding, p.community);

  ProneOptions popt;
  popt.dim = 32;
  auto prone = RunProne(p.graph, popt);
  ASSERT_TRUE(prone.ok());
  const double score_prone = SeparationScore(prone->embedding, p.community);

  EXPECT_GT(score_lightne, 0.2);
  // LightNE >= ProNE+ minus noise margin.
  EXPECT_GT(score_lightne, score_prone - 0.1);
}

TEST(BaselineErrorsTest, AllRejectEmptyGraph) {
  EdgeList empty;
  empty.num_vertices = 10;
  const CsrGraph g = CsrGraph::FromEdges(std::move(empty));
  EXPECT_FALSE(RunProne(g, {}).ok());
  EXPECT_FALSE(RunNrp(g, {}).ok());
  EXPECT_FALSE(RunNetsmfOriginal(g, {}).ok());
  EXPECT_FALSE(RunNetmfDense(g, {}).ok());
}

}  // namespace
}  // namespace lightne
