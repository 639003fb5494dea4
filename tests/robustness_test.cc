// Failure-injection and edge-condition tests: the sparsifier table's
// grow-in-place path under forced overflow and under a memory budget,
// boundary geometry in the compressed format, SGNS internals, and
// option-validation behavior.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/deepwalk.h"
#include "baselines/line.h"
#include "baselines/sgns.h"
#include "core/lightne.h"
#include "core/sparsifier.h"
#include "data/generators.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/io.h"
#include "la/embedding_io.h"
#include "util/fault_injection.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/retry.h"

namespace lightne {
namespace {

// --------------------------------------------- compressed-format geometry ----

TEST(CompressionBoundary, DegreeExactlyMultipleOfBlock) {
  // Degrees of 64 and 128 with block 64: no partial trailing block.
  EdgeList list;
  list.num_vertices = 200;
  for (NodeId v = 1; v <= 64; ++v) list.Add(0, v);
  for (NodeId v = 66; v < 194; ++v) list.Add(65, v);
  CsrGraph g = CsrGraph::FromEdges(std::move(list));
  ASSERT_EQ(g.Degree(0), 64u);
  ASSERT_EQ(g.Degree(65), 128u);
  CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_EQ(cg.Neighbor(0, i), g.Neighbor(0, i));
  }
  for (uint64_t i = 0; i < 128; ++i) {
    ASSERT_EQ(cg.Neighbor(65, i), g.Neighbor(65, i));
  }
}

TEST(CompressionBoundary, FirstNeighborFarBelowAndAboveSource) {
  // Zigzag first-delta handling: neighbor ids far below and above source.
  EdgeList list;
  list.num_vertices = 1 << 20;
  list.Add(1 << 19, 0);
  list.Add(1 << 19, (1 << 20) - 1);
  CsrGraph g = CsrGraph::FromEdges(std::move(list));
  CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
  EXPECT_EQ(cg.Neighbor(1 << 19, 0), 0u);
  EXPECT_EQ(cg.Neighbor(1 << 19, 1), static_cast<NodeId>((1 << 20) - 1));
  EXPECT_EQ(cg.Neighbor(0, 0), static_cast<NodeId>(1 << 19));
}

// ----------------------------------------------------------------- SGNS ----

TEST(SgnsInternals, NoiseTableFollowsDegreeThreeQuarters) {
  EdgeList list;
  list.num_vertices = 3;
  // degrees: 0 -> 2, 1 -> 1, 2 -> 1.
  list.Add(0, 1);
  list.Add(0, 2);
  CsrGraph g = CsrGraph::FromEdges(std::move(list));
  AliasTable noise = DegreeNoiseTable(g);
  Rng rng(3);
  std::vector<int> hits(3, 0);
  const int trials = 90000;
  for (int t = 0; t < trials; ++t) ++hits[noise.Sample(rng)];
  const double w0 = std::pow(2.0, 0.75);
  const double total = w0 + 2.0;
  EXPECT_NEAR(hits[0] / static_cast<double>(trials), w0 / total, 0.01);
  EXPECT_NEAR(hits[1] / static_cast<double>(trials), 1.0 / total, 0.01);
}

TEST(SgnsInternals, GradientMovesScoreTowardLabel) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateErdosRenyi(50, 300, 1));
  SgnsOptions opt;
  opt.dim = 8;
  SgnsModel model(50, opt);
  AliasTable noise = DegreeNoiseTable(g);
  Rng rng(5);
  auto dot = [&](NodeId a, NodeId b) {
    double acc = 0;
    for (uint64_t j = 0; j < 8; ++j) {
      acc += static_cast<double>(model.embedding().At(a, j)) *
             model.embedding().At(b, j);
    }
    return acc;
  };
  const double before = dot(3, 4);
  for (int i = 0; i < 500; ++i) model.TrainPair(3, 4, 0.1f, noise, rng);
  EXPECT_GT(dot(3, 4), before);
}

TEST(SgnsInternals, DeterministicWithFixedSeedOnOneWorker) {
  if (NumWorkers() != 1) GTEST_SKIP() << "hogwild is only deterministic at 1";
  const CsrGraph g = CsrGraph::FromEdges(GenerateErdosRenyi(200, 2000, 9));
  DeepWalkOptions opt;
  opt.dim = 8;
  opt.walks_per_node = 2;
  opt.walk_length = 10;
  Matrix a = TrainDeepWalk(g, opt);
  Matrix b = TrainDeepWalk(g, opt);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0);
}

// ----------------------------------------------------- option validation ----

TEST(OptionValidation, LightNeExplicitSampleCountOverridesRatio) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateErdosRenyi(500, 4000, 3));
  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 3;
  opt.samples_ratio = 1000.0;  // would be huge
  opt.num_samples = 50000;     // explicit override
  auto r = RunLightNe(g, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(static_cast<double>(r->sparsifier_stats.samples_drawn), 50000,
              2500);
}

// ------------------------------------------------------- fault injection ----

class FaultSuite : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }

  /// A RetryOptions whose clock records the backoff schedule instead of
  /// sleeping.
  RetryOptions RecordingRetry() {
    RetryOptions opt;
    opt.sleep = [this](uint64_t ms) { schedule_.push_back(ms); };
    return opt;
  }

  static bool FileExists(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    std::fclose(f);
    return true;
  }

  std::vector<uint64_t> schedule_;
};

TEST_F(FaultSuite, TransientReadFaultRecoveredByOneRetry) {
  EdgeList list;
  list.num_vertices = 5;
  list.Add(0, 1);
  list.Add(2, 3);
  const std::string path = ::testing::TempDir() + "/fault_recover.txt";
  ASSERT_TRUE(SaveEdgeListText(list, path).ok());

  FaultRegistry::Global().ArmFailOnNthHit("io/read", 1);
  auto r = LoadEdgeListText(path, RecordingRetry());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->edges, list.edges);
  // Exactly one backoff (the default 2 ms) before the successful attempt.
  EXPECT_EQ(schedule_, (std::vector<uint64_t>{2}));
  EXPECT_EQ(FaultRegistry::Global().HitCount("io/read"), 2u);
  std::remove(path.c_str());
}

TEST_F(FaultSuite, ReadRetryExhaustionSurfacesIOError) {
  const std::string path = ::testing::TempDir() + "/fault_exhaust.txt";
  EdgeList list;
  list.num_vertices = 2;
  list.Add(0, 1);
  ASSERT_TRUE(SaveEdgeListText(list, path).ok());

  FaultRegistry::Global().ArmAlwaysFail("io/read");
  auto r = LoadEdgeListText(path, RecordingRetry());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  // Default policy: 3 attempts, exponential 2 ms -> 4 ms between them.
  EXPECT_EQ(schedule_, (std::vector<uint64_t>{2, 4}));
  EXPECT_EQ(FaultRegistry::Global().HitCount("io/read"), 3u);
  std::remove(path.c_str());
}

TEST_F(FaultSuite, FailedEmbeddingSaveLeavesNoPartialFile) {
  Matrix x = Matrix::Gaussian(20, 4, 7);
  const std::string path = ::testing::TempDir() + "/fault_partial.emb";
  FaultRegistry::Global().ArmAlwaysFail("io/write");
  Status s = SaveEmbeddingText(x, path, RecordingRetry());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  // The header had already been written when the fault fired; the saver must
  // have removed the partial file.
  EXPECT_FALSE(FileExists(path));

  // Disarmed, the same call succeeds and round-trips.
  FaultRegistry::Global().Disarm("io/write");
  ASSERT_TRUE(SaveEmbeddingText(x, path).ok());
  auto loaded = LoadEmbeddingText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(MaxAbsDiff(*loaded, x), 1e-4f);  // %.6g text round-trip
  std::remove(path.c_str());
}

TEST_F(FaultSuite, FailedEdgeListSaveLeavesNoPartialFile) {
  EdgeList list;
  list.num_vertices = 3;
  list.Add(0, 1);
  const std::string path = ::testing::TempDir() + "/fault_partial.txt";
  FaultRegistry::Global().ArmAlwaysFail("io/write");
  Status s = SaveEdgeListText(list, path, RecordingRetry());
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(FileExists(path));
}

TEST_F(FaultSuite, SvdNonConvergenceSurfacesWithoutAborting) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateErdosRenyi(300, 2500, 3));
  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 3;
  opt.num_samples = 20000;
  FaultRegistry::Global().ArmAlwaysFail("svd/converge");
  auto r = RunLightNe(g, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().ToString().find("converge"), std::string::npos);

  // The failure is injected, not structural: disarm and the same pipeline
  // succeeds.
  FaultRegistry::Global().Disarm("svd/converge");
  auto ok = RunLightNe(g, opt);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->embedding.rows(), g.NumVertices());
}

TEST_F(FaultSuite, ForcedTableOverflowGrowsWithoutResampling) {
  // An overflow forced in the middle of the pass: the table grows in place
  // and the pass carries on from where each worker stopped, so no edge is
  // sampled twice. The walk counters are pure functions of the walk stream,
  // so any resampled edge would show up as extra draws.
  const CompressedGraph g =
      CompressedGraph::FromCsr(CsrGraph::FromEdges(GenerateRmat(10, 8000, 3)));
  SparsifierOptions opt;
  opt.num_samples = 200000;
  opt.window = 5;
  opt.seed = 9;
  auto walk_draws = [] {
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    return snap.CounterValue("walk/pin_hits") +
           snap.CounterValue("walk/decode_misses");
  };
  // A policy that never fires counts the pass's table inserts.
  FaultRegistry::Global().ArmFailOnNthHit("sparsifier/table_insert",
                                          ~uint64_t{0});
  MetricsRegistry::Global().ResetForTest();
  auto baseline = BuildSparsifier(g, opt);
  ASSERT_TRUE(baseline.ok());
  const uint64_t baseline_draws = walk_draws();
  const uint64_t inserts =
      FaultRegistry::Global().HitCount("sparsifier/table_insert");
  ASSERT_GT(baseline_draws, 0u);
  ASSERT_GT(inserts, 2u);

  FaultRegistry::Global().Reset();
  FaultRegistry::Global().ArmFailOnNthHit("sparsifier/table_insert",
                                          inserts / 2);
  MetricsRegistry::Global().ResetForTest();
  auto grown = BuildSparsifier(g, opt);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ(FaultRegistry::Global().FireCount("sparsifier/table_insert"), 1u);
  EXPECT_EQ(walk_draws(), baseline_draws);
  EXPECT_EQ(grown->samples_drawn, baseline->samples_drawn);
  EXPECT_GE(grown->attempts, 2);
  EXPECT_EQ(grown->matrix.row_offsets(), baseline->matrix.row_offsets());
  EXPECT_EQ(grown->matrix.col_indices(), baseline->matrix.col_indices());
  ASSERT_EQ(grown->matrix.nnz(), baseline->matrix.nnz());
  EXPECT_EQ(0, std::memcmp(grown->matrix.values().data(),
                           baseline->matrix.values().data(),
                           baseline->matrix.nnz() * sizeof(float)));
}

TEST_F(FaultSuite, PoolTaskFaultSurfacesAsParallelTaskError) {
  FaultRegistry::Global().ArmFailOnNthHit("pool/task", 1);
  try {
    ThreadPool::Global().RunOnAll([](int) {});
    FAIL() << "expected ParallelTaskError";
  } catch (const ParallelTaskError& e) {
    EXPECT_GE(e.worker(), 0);
    EXPECT_NE(std::string(e.what()).find("pool/task"), std::string::npos);
  }
  // The pool survives the failure and runs the next round normally.
  std::atomic<int> ran{0};
  ThreadPool::Global().RunOnAll([&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), ThreadPool::Global().num_workers());
}

TEST_F(FaultSuite, ThrowingTaskBodyReportsWorkerAndMessage) {
  try {
    ThreadPool::Global().RunOnAll(
        [](int) { throw std::runtime_error("boom in task"); });
    FAIL() << "expected ParallelTaskError";
  } catch (const ParallelTaskError& e) {
    EXPECT_GE(e.worker(), 0);
    EXPECT_NE(std::string(e.what()).find("boom in task"), std::string::npos);
  }
}

// ------------------------------------------------------ memory governor ----

TEST(MemoryGovernor, DegradesSparsifierInsteadOfFailing) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 3));
  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 5;
  opt.num_samples = 60000;
  opt.seed = 9;

  auto unbudgeted = RunLightNe(g, opt);
  ASSERT_TRUE(unbudgeted.ok());
  EXPECT_FALSE(unbudgeted->degraded);
  EXPECT_EQ(unbudgeted->peak_reserved_bytes, 0u);

  // Too small for the unbudgeted hash table, but comfortably above the
  // dense rSVD/propagation workspaces — the governor must tighten the
  // downsampling until the table fits and still deliver a usable embedding.
  opt.memory_budget_bytes = 450000;
  ASSERT_LT(opt.memory_budget_bytes, unbudgeted->sparsifier_stats.table_bytes);
  auto budgeted = RunLightNe(g, opt);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_TRUE(budgeted->degraded);
  EXPECT_TRUE(budgeted->sparsifier_stats.degraded);
  EXPECT_GE(budgeted->sparsifier_stats.budget_tightenings, 1);
  EXPECT_LT(budgeted->sparsifier_stats.downsample_constant_used,
            unbudgeted->sparsifier_stats.downsample_constant_used);
  EXPECT_LE(budgeted->sparsifier_stats.table_bytes, opt.memory_budget_bytes);
  EXPECT_EQ(budgeted->embedding.rows(), g.NumVertices());
  EXPECT_EQ(budgeted->embedding.cols(), opt.dim);
  EXPECT_GT(budgeted->peak_reserved_bytes, 0u);
  EXPECT_LE(budgeted->peak_reserved_bytes, opt.memory_budget_bytes);
}

TEST(MemoryGovernor, RefusedGrowIsResourceExhausted) {
  // Without downsampling the ladder cannot halve C, so a budget below the
  // table the distinct pairs need caps the first table. The pass outgrows
  // it, and the budget refuses the grow.
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 3));
  SparsifierOptions opt;
  opt.num_samples = 200000;
  opt.window = 5;
  opt.seed = 9;
  opt.downsample = false;
  auto unbudgeted = BuildSparsifier(g, opt);
  ASSERT_TRUE(unbudgeted.ok());
  // It grew, so half its final table cannot hold the distinct pairs.
  ASSERT_GE(unbudgeted->attempts, 2);

  MemoryBudget budget(unbudgeted->table_bytes / 2);
  opt.memory_budget = &budget;
  auto r = BuildSparsifier(g, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().ToString().find("grow"), std::string::npos)
      << r.status().ToString();
  EXPECT_GT(budget.peak_reserved_bytes(), 0u);
  EXPECT_LE(budget.peak_reserved_bytes(), budget.limit_bytes());
  EXPECT_EQ(budget.reserved_bytes(), 0u);
}

TEST(MemoryGovernor, ImpossibleBudgetReturnsResourceExhausted) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(10, 8000, 3));
  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 5;
  opt.num_samples = 60000;
  // Far below even the degraded table / rSVD workspace.
  opt.memory_budget_bytes = 4096;
  auto r = RunLightNe(g, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// RMAT-10 with 20000 edge draws, embedded at d = 4: the average degree is
// well above d, so the operator SpectralPropagate copies the graph into
// outweighs the recurrence's five n x d panels, and a budget must hold both.
CsrGraph DenseGraph() {
  return CsrGraph::FromEdges(GenerateRmat(10, 20000, 5));
}

LightNeOptions DenseGraphOptions() {
  LightNeOptions opt;
  opt.dim = 4;
  opt.window = 3;
  opt.num_samples = 20000;
  return opt;
}

// The propagation stage's two allocations, the operator measured from one.
struct PropagationNeed {
  uint64_t panels = 0;
  uint64_t operator_bytes = 0;
};

PropagationNeed NeedOf(const CsrGraph& g, uint64_t dim) {
  const internal::PropagationOperator op =
      internal::BuildPropagationOperator(g);
  PropagationNeed need;
  need.panels = 5 * g.NumVertices() * dim * sizeof(float);
  need.operator_bytes = op.offsets.size() * sizeof(op.offsets[0]) +
                        op.neighbors.size() * sizeof(op.neighbors[0]) +
                        op.weights.size() * sizeof(op.weights[0]) +
                        op.scale.size() * sizeof(op.scale[0]);
  return need;
}

TEST(MemoryGovernor, PropagationBudgetWithoutTheOperatorIsResourceExhausted) {
  const CsrGraph g = DenseGraph();
  LightNeOptions opt = DenseGraphOptions();
  const PropagationNeed need = NeedOf(g, opt.dim);
  ASSERT_GT(need.operator_bytes, need.panels);
  // Room for the five panels, one byte short of the operator beside them.
  opt.memory_budget_bytes = need.panels + need.operator_bytes - 1;
  auto r = RunLightNe(g, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("spectral-propagation workspace"),
            std::string::npos)
      << r.status().ToString();
}

TEST(MemoryGovernor, PropagationBudgetJustAboveTheOperatorRuns) {
  const CsrGraph g = DenseGraph();
  LightNeOptions opt = DenseGraphOptions();
  const PropagationNeed need = NeedOf(g, opt.dim);
  opt.memory_budget_bytes = need.panels + need.operator_bytes + 64;
  auto r = RunLightNe(g, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->embedding.rows(), g.NumVertices());
  EXPECT_GE(r->peak_reserved_bytes, need.panels + need.operator_bytes);
  EXPECT_LE(r->peak_reserved_bytes, opt.memory_budget_bytes);
}

// A propagation-free run on RMAT-10 at d = 32: the rSVD's q = 42 columns
// make its workspace the run's largest reservation, so a budget can hold
// the sparsifier's table and two n x q panels but not a third.
LightNeOptions RsvdOnlyOptions() {
  LightNeOptions opt;
  opt.dim = 32;
  opt.window = 3;
  opt.num_samples = 4000;
  opt.spectral_propagation = false;
  return opt;
}

uint64_t RsvdPanelBytes(const CsrGraph& g, const LightNeOptions& opt) {
  return g.NumVertices() * (opt.dim + opt.svd_oversample) * sizeof(float);
}

TEST(MemoryGovernor, RsvdBudgetBelowThreePanelsIsResourceExhausted) {
  // A panel that falls back to HouseholderQr holds its n x q double
  // workspace beside it: three float panels, which the stage reserves.
  const CsrGraph g = DenseGraph();
  LightNeOptions opt = RsvdOnlyOptions();
  const uint64_t panel = RsvdPanelBytes(g, opt);
  auto unbudgeted = RunLightNe(g, opt);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
  ASSERT_LE(unbudgeted->sparsifier_stats.table_bytes, 2 * panel);
  opt.memory_budget_bytes = 3 * panel - 1;
  auto r = RunLightNe(g, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("randomized-SVD workspace"),
            std::string::npos)
      << r.status().ToString();
}

TEST(MemoryGovernor, RsvdBudgetJustAboveThreePanelsRuns) {
  const CsrGraph g = DenseGraph();
  LightNeOptions opt = RsvdOnlyOptions();
  const uint64_t panel = RsvdPanelBytes(g, opt);
  opt.memory_budget_bytes = 3 * panel + 64;
  auto r = RunLightNe(g, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->degraded);
  EXPECT_EQ(r->embedding.rows(), g.NumVertices());
  EXPECT_GE(r->peak_reserved_bytes, 3 * panel);
  EXPECT_LE(r->peak_reserved_bytes, opt.memory_budget_bytes);
}

TEST(MemoryGovernor, UnbudgetedRunIsBitIdenticalToSeedBehavior) {
  const CsrGraph g = CsrGraph::FromEdges(GenerateErdosRenyi(400, 3000, 11));
  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 3;
  opt.num_samples = 30000;
  auto a = RunLightNe(g, opt);
  auto b = RunLightNe(g, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(MaxAbsDiff(a->embedding, b->embedding), 0.0f);
}

// ------------------------------------------------------ hardened parsing ----

TEST(TextParsing, CrlfAndBlankLinesAccepted) {
  const std::string path = ::testing::TempDir() + "/crlf.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fprintf(f, "# nodes: 9\r\n\r\n1 2\r\n  \r\n3 4\r\n\r\n");
  std::fclose(f);
  auto r = LoadEdgeListText(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_vertices, 9u);
  ASSERT_EQ(r->edges.size(), 2u);
  EXPECT_EQ(r->edges[1], std::make_pair(NodeId{3}, NodeId{4}));
  std::remove(path.c_str());
}

TEST(TextParsing, GarbageTokensRejectedWithLineNumber) {
  const std::string path = ::testing::TempDir() + "/garbage.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "1 2\n3 four\n5 6\n");
  std::fclose(f);
  auto r = LoadEdgeListText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find(":2:"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(TextParsing, TrailingJunkAfterWeightRejected) {
  const std::string path = ::testing::TempDir() + "/junk.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "1 2 0.5 extra\n");
  std::fclose(f);
  auto r = LoadWeightedEdgeListText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find(":1:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TextParsing, NegativeIdRejected) {
  const std::string path = ::testing::TempDir() + "/negid.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "-1 2\n");
  std::fclose(f);
  auto r = LoadEdgeListText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TextParsing, UnweightedLoaderToleratesWeightColumn) {
  const std::string path = ::testing::TempDir() + "/wcol.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "1 2 0.25\n3 4\n");
  std::fclose(f);
  auto r = LoadEdgeListText(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->edges.size(), 2u);
  std::remove(path.c_str());
}

// -------------------------------------- embedding header/size validation ----
// Regression suite for the pre-allocation shape check: a declared (rows,
// cols) is validated against the actual file size BEFORE any Matrix
// allocation, so a garbage header cannot become a multi-gigabyte alloc and
// a truncated file is kDataLoss, never a short read.

class EmbeddingValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/emb_validate.bin";
    Matrix x = Matrix::Gaussian(10, 4, 3);
    ASSERT_TRUE(SaveEmbeddingBinary(x, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void TruncateTo(uint64_t bytes) {
    ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(bytes)), 0);
  }

  /// Overwrites the (rows, cols) fields of the binary header in place.
  void RewriteDims(uint64_t rows, uint64_t cols) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);  // past the magic
    const uint64_t dims[2] = {rows, cols};
    ASSERT_EQ(std::fwrite(dims, sizeof(uint64_t), 2, f), 2u);
    std::fclose(f);
  }

  std::string path_;
};

TEST_F(EmbeddingValidationTest, TruncatedBinaryPayloadIsDataLoss) {
  TruncateTo(24 + 10 * 4 * sizeof(float) - 7);
  auto r = LoadEmbeddingBinary(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(EmbeddingValidationTest, TruncatedBinaryHeaderIsDataLoss) {
  TruncateTo(12);  // mid-header
  auto r = LoadEmbeddingBinary(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(EmbeddingValidationTest, OversizedHeaderRejectedBeforeAllocation) {
  // Declares ~4 PiB of payload over a ~180-byte file: must be rejected by
  // the size check, not attempted as an allocation.
  RewriteDims(1ull << 30, 1ull << 20);
  auto r = LoadEmbeddingBinary(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(EmbeddingValidationTest, OverflowingDimensionProductIsInvalidArgument) {
  // rows * cols * sizeof(float) overflows 64 bits: garbage by construction.
  RewriteDims(1ull << 62, 1ull << 62);
  auto r = LoadEmbeddingBinary(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EmbeddingValidationTest, TrailingBytesAreInvalidArgument) {
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("junk", f);
  std::fclose(f);
  auto r = LoadEmbeddingBinary(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EmbeddingTextValidation, HeaderDeclaringMoreThanFileHoldsIsDataLoss) {
  const std::string path = ::testing::TempDir() + "/emb_overdecl.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // Declares 100000 x 1000 values over a few bytes of payload.
  std::fprintf(f, "100000 1000\n0 1.0\n");
  std::fclose(f);
  auto r = LoadEmbeddingText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(EmbeddingTextValidation, TruncatedRowIsDataLoss) {
  const std::string path = ::testing::TempDir() + "/emb_shortrow.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // Header fits the byte-count floor (2 bytes/value), but the last row ends
  // mid-way: the per-row parse must report the loss.
  std::fprintf(f, "2 3\n0 1 2 3\n1 4 5\n");
  std::fclose(f);
  auto r = LoadEmbeddingText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(EmbeddingTextValidation, GarbageHeaderIsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "/emb_badheader.txt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "banana split\n");
  std::fclose(f);
  auto r = LoadEmbeddingText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lightne
