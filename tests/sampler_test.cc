// Sampler hot-path tests (DESIGN.md §11, §13): combiner-vs-direct
// equivalence (bit-identical integer counters and matrix values, ingest
// counters equal at any worker count), the exact fixed-point table (order-
// and worker-count-independent matrices, the derived scale and its bound),
// the table grown in place during the pass (byte-equal to a pass that never
// grew, wherever an overflow is forced), the weighted sampler's draw
// frequencies on a skewed hub, the compressed-graph walk engine (hub-pinned
// tier and direct block decode) against walks on the CSR graph it was built
// from, and the edge-balanced scheduling partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/sparsifier.h"
#include "data/generators.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/walk_cursor.h"
#include "graph/weighted_csr.h"
#include "graph/weights.h"
#include "parallel/parallel_for.h"
#include "util/fault_injection.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/random.h"

namespace lightne {
namespace {

CsrGraph SamplerGraph() {
  return CsrGraph::FromEdges(GenerateRmat(10, 8000, 42));
}

SparsifierOptions BaseOptions() {
  SparsifierOptions opt;
  opt.num_samples = 300000;
  opt.window = 6;
  opt.seed = 123;
  return opt;
}

// Byte equality of two CSR matrices: offsets, columns and value bits.
void ExpectByteEqualMatrices(const SparseMatrix& a, const SparseMatrix& b) {
  EXPECT_EQ(a.row_offsets(), b.row_offsets());
  EXPECT_EQ(a.col_indices(), b.col_indices());
  ASSERT_EQ(a.values().size(), b.values().size());
  EXPECT_EQ(0, std::memcmp(a.values().data(), b.values().data(),
                           a.values().size() * sizeof(float)));
}

void ExpectEquivalentSparsifiers(const SparsifierResult& a,
                                 const SparsifierResult& b) {
  // Integer-domain quantities: bit-identical (the determinism contract).
  EXPECT_EQ(a.samples_drawn, b.samples_drawn);
  EXPECT_EQ(a.samples_accepted, b.samples_accepted);
  EXPECT_EQ(a.mass_fp20, b.mass_fp20);
  EXPECT_EQ(a.distinct_entries, b.distinct_entries);
  // The sparsity pattern is the distinct-key set, and the values are exact
  // fixed-point integer sums: the whole matrix is bit-identical.
  ASSERT_EQ(a.matrix.nnz(), b.matrix.nnz());
  ExpectByteEqualMatrices(a.matrix, b.matrix);
}

// ------------------------------------------- combiner / direct equivalence ----

TEST(CombinerTest, CombinerMatchesDirectPath) {
  const CsrGraph g = SamplerGraph();
  for (const uint32_t window : {6u, 1u}) {
    SCOPED_TRACE(window);
    SparsifierOptions direct = BaseOptions();
    direct.window = window;
    direct.combiner = false;
    SparsifierOptions combined = direct;
    combined.combiner = true;
    auto rd = BuildSparsifier(g, direct);
    auto rc = BuildSparsifier(g, combined);
    ASSERT_TRUE(rd.ok());
    ASSERT_TRUE(rc.ok());
    ExpectEquivalentSparsifiers(*rd, *rc);
    // Accounting: the direct path upserts once per accepted sample; the
    // combiner path upserts once per same-key run, and every accepted
    // sample either starts a run or merges into one.
    EXPECT_EQ(rd->table_upserts, rd->samples_accepted);
    EXPECT_EQ(rd->combiner_hits, 0u);
    EXPECT_EQ(rc->table_upserts + rc->combiner_hits, rc->samples_accepted);
    EXPECT_LT(rc->table_upserts, rc->samples_accepted);
    EXPECT_GT(rc->combiner_hits, 0u);
    if (window == 1) {
      // A length-1 path is the edge itself, so every accepted sample repeats
      // its edge's key: at most one run per directed edge.
      EXPECT_LE(rc->table_upserts, g.NumDirectedEdges());
    }
  }
}

TEST(CombinerTest, CountersBitIdenticalAcrossWorkerCounts) {
  const CsrGraph g = SamplerGraph();
  for (const bool use_combiner : {false, true}) {
    SparsifierOptions opt = BaseOptions();
    opt.combiner = use_combiner;
    Result<SparsifierResult> serial = [&] {
      SequentialRegion seq;
      return BuildSparsifier(g, opt);
    }();
    auto parallel = BuildSparsifier(g, opt);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    ExpectEquivalentSparsifiers(*serial, *parallel);
    // Runs never span a vertex, so the ingest counters do not depend on how
    // vertices are split across workers either.
    EXPECT_EQ(serial->combiner_hits, parallel->combiner_hits);
    EXPECT_EQ(serial->table_upserts, parallel->table_upserts);
  }
}

TEST(CombinerTest, CombinerWorksAcrossRepresentations) {
  // The compressed path adds the walk context on top of the combiner; both
  // representations must agree with each other (they draw identical walk
  // endpoints) and with the direct path.
  const CsrGraph csr = SamplerGraph();
  const CompressedGraph cg = CompressedGraph::FromCsr(csr);
  SparsifierOptions opt = BaseOptions();
  opt.combiner = true;
  auto rcsr = BuildSparsifier(csr, opt);
  auto rcomp = BuildSparsifier(cg, opt);
  ASSERT_TRUE(rcsr.ok());
  ASSERT_TRUE(rcomp.ok());
  EXPECT_EQ(rcsr->samples_drawn, rcomp->samples_drawn);
  EXPECT_EQ(rcsr->samples_accepted, rcomp->samples_accepted);
  EXPECT_EQ(rcsr->mass_fp20, rcomp->mass_fp20);
  EXPECT_EQ(rcsr->distinct_entries, rcomp->distinct_entries);
  EXPECT_EQ(rcsr->matrix.col_indices(), rcomp->matrix.col_indices());
}

TEST(CombinerTest, MetricsSurfaceCombinerCounters) {
  const CsrGraph g = SamplerGraph();
  MetricsRegistry::Global().ResetForTest();
  SparsifierOptions opt = BaseOptions();
  opt.combiner = true;
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok());
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("sparsifier/table_upserts"), r->table_upserts);
  EXPECT_EQ(snap.CounterValue("sparsifier/combiner_hits"), r->combiner_hits);
}

// ------------------------------------------------------ exact fixed point ----

TEST(ExactTableTest, UpsertOrderAndWorkerCountDoNotChangeTheMatrix) {
  // One multiset of canonical records with weights like the sampler's
  // (1 or 2)/p_e in fixed point: heavy repeats on a few keys, diagonal keys,
  // and weights whose float sums would round differently by order.
  constexpr uint64_t kN = 300;
  const internal::WeightFixedPoint fp(40);
  std::vector<std::pair<uint64_t, uint64_t>> records;
  for (uint64_t i = 0; i < 60000; ++i) {
    Rng rng = ItemRng(17, i);
    NodeId a = static_cast<NodeId>(rng.UniformInt(i % 4 == 0 ? 8 : kN));
    NodeId b = static_cast<NodeId>(rng.UniformInt(kN));
    if (a > b) std::swap(a, b);
    const double inv_pe = 1.0 + 997.0 * rng.Uniform();
    records.push_back({PackEdge(a, b), fp.Encode((a == b ? 2 : 1) * inv_pe)});
  }
  auto build = [&](const std::vector<std::pair<uint64_t, uint64_t>>& recs) {
    ConcurrentHashTable<uint64_t> table(recs.size());
    ParallelFor(0, recs.size(), [&](uint64_t i) {
      EXPECT_TRUE(table.Upsert(recs[i].first, recs[i].second));
    });
    // Read out as the sparsifier does.
    return SparseMatrix::FromCanonicalSlots(
        kN, table.capacity(), [&](uint64_t i) { return table.SlotKey(i); },
        [&](uint64_t i) { return fp.Decode(table.SlotValue(i)); });
  };
  const SparseMatrix reference = [&] {
    SequentialRegion seq;
    return build(records);
  }();
  ASSERT_GT(reference.nnz(), 0u);
  for (uint64_t order = 0; order < 8; ++order) {
    SCOPED_TRACE(order);
    std::vector<std::pair<uint64_t, uint64_t>> shuffled = records;
    Rng rng(1000 + order);
    for (uint64_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
    }
    ExpectByteEqualMatrices(build(shuffled), reference);
    SequentialRegion seq;
    ExpectByteEqualMatrices(build(shuffled), reference);
  }
}

WeightedCsrGraph TinyWeightGraph(float tiny) {
  // A heavy triangle plus vertex 3, tied to 0 by a heavy edge and to 1 by an
  // edge of weight `tiny`: that edge's p_e ~ C tiny / 1000 is the smallest
  // by far.
  WeightedEdgeList list;
  list.num_vertices = 4;
  list.Add(0, 1, 1000.0f);
  list.Add(1, 2, 1000.0f);
  list.Add(2, 0, 1000.0f);
  list.Add(0, 3, 1000.0f);
  list.Add(1, 3, tiny);
  return WeightedCsrGraph::FromEdges(std::move(list));
}

TEST(ExactTableTest, ScaleKeepsTheLargestPossibleSumBelowTwoTo63) {
  const WeightedCsrGraph g = TinyWeightGraph(1e-4f);
  SparsifierOptions opt;
  opt.num_samples = 200000;
  opt.window = 3;
  const double c = std::log(static_cast<double>(g.NumVertices()));
  const double per_edge = static_cast<double>(opt.num_samples) / g.Volume();
  const internal::PassBound bound =
      internal::ComputePassBound(g, opt, per_edge, c);
  const int bits = internal::WeightFractionBits(bound.mass_bound);
  ASSERT_GE(bits, internal::kMinWeightFractionBits);
  const internal::WeightFixedPoint fp(bits);
  // Recount, independently and in long double, the largest table mass the
  // pass can reach: every edge draws its maximal n_e and every sample adds
  // the diagonal weight 2/p_e.
  long double largest = 0;
  double smallest_pe = 1.0;
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
      const double pe = internal::DownsampleProbability(g, u, v, c, w);
      smallest_pe = std::min(smallest_pe, pe);
      const long double most = std::ceil(per_edge * w);
      largest += most * static_cast<long double>(fp.Encode(2.0 / pe));
    });
  }
  EXPECT_LT(smallest_pe, 1e-5);
  EXPECT_LT(largest, std::ldexp(1.0L, 63));
  // The width is not wasted: the largest sum reaches 2^61, so two more bits
  // would overflow.
  EXPECT_GE(largest * 4, std::ldexp(1.0L, 63));
  auto r = BuildSparsifier(g, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->matrix.nnz(), 0u);
}

TEST(ExactTableTest, TooFewFractionalBitsIsInvalidArgumentBeforeSampling) {
  const WeightedCsrGraph g = TinyWeightGraph(1e-12f);
  SparsifierOptions opt;
  opt.num_samples = 200000;
  opt.window = 3;
  const double c = std::log(static_cast<double>(g.NumVertices()));
  const internal::PassBound bound = internal::ComputePassBound(
      g, opt, static_cast<double>(opt.num_samples) / g.Volume(), c);
  ASSERT_LT(internal::WeightFractionBits(bound.mass_bound),
            internal::kMinWeightFractionBits);
  // Count table inserts: any sampling pass would evaluate this fault point.
  FaultRegistry::Global().Reset();
  FaultRegistry::Global().ArmFailOnNthHit("sparsifier/table_insert",
                                          ~uint64_t{0});
  auto r = BuildSparsifier(g, opt);
  EXPECT_EQ(FaultRegistry::Global().HitCount("sparsifier/table_insert"), 0u);
  FaultRegistry::Global().Reset();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Without downsampling every p_e is 1, so the same graph is fine.
  opt.downsample = false;
  EXPECT_TRUE(BuildSparsifier(g, opt).ok());
}

TEST(ExactTableTest, PassBoundIsIndependentOfTheWorkerCount) {
  const CsrGraph g = SamplerGraph();
  const SparsifierOptions opt = BaseOptions();
  const double per_edge = static_cast<double>(opt.num_samples) / g.Volume();
  const double c = std::log(static_cast<double>(g.NumVertices()));
  const internal::PassBound pooled =
      internal::ComputePassBound(g, opt, per_edge, c);
  SequentialRegion seq;
  EXPECT_EQ(internal::ComputePassBound(g, opt, per_edge, c).mass_bound,
            pooled.mass_bound);
}

// --------------------------------------------------------- grow in place ----

// One pass of internal::RunPerEdgeSampling into a table built from
// `capacity_hint`, read out as BuildSparsifier reads its table.
struct DirectPass {
  SparseMatrix matrix;
  internal::SamplerPassStats stats;
  uint64_t distinct = 0;
};

template <GraphView G>
DirectPass RunPass(const G& g, const SparsifierOptions& opt,
                   uint64_t capacity_hint) {
  const double per_edge = static_cast<double>(opt.num_samples) / g.Volume();
  const double c = std::log(static_cast<double>(g.NumVertices()));
  const internal::WeightFixedPoint weights(internal::WeightFractionBits(
      internal::ComputePassBound(g, opt, per_edge, c).mass_bound));
  const WalkAccel<G> accel = MakeWalkAccel(g, opt.walk_pin_budget_bytes);
  ConcurrentHashTable<uint64_t> table(capacity_hint);
  BudgetReservation unbudgeted;
  DirectPass pass;
  EXPECT_TRUE(internal::RunPerEdgeSampling(g, opt, per_edge, c, weights,
                                           opt.seed, accel, &table,
                                           &unbudgeted, &pass.stats)
                  .ok());
  pass.distinct = table.NumEntries();
  pass.matrix = SparseMatrix::FromCanonicalSlots(
      g.NumVertices(), table.capacity(),
      [&](uint64_t i) { return table.SlotKey(i); },
      [&](uint64_t i) { return weights.Decode(table.SlotValue(i)); });
  return pass;
}

// Every SamplerPassStats field; the static_assert makes a new field fail to
// compile here until it is compared.
void ExpectSamePassStats(const internal::SamplerPassStats& a,
                         const internal::SamplerPassStats& b) {
  static_assert(sizeof(internal::SamplerPassStats) == 6 * sizeof(uint64_t));
  EXPECT_EQ(a.drawn, b.drawn);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.mass_fp, b.mass_fp);
  EXPECT_EQ(a.table_upserts, b.table_upserts);
  EXPECT_EQ(a.combiner_hits, b.combiner_hits);
  EXPECT_EQ(a.grows, b.grows);
}

template <GraphView G>
void ExpectGrownPassEqualsOnePass(const G& g) {
  SparsifierOptions opt = BaseOptions();
  for (const bool use_combiner : {false, true}) {
    SCOPED_TRACE(use_combiner);
    opt.combiner = use_combiner;
    // From the smallest table (hint 16, 32 slots) the pass grows many times.
    const DirectPass grown = RunPass(g, opt, 16);
    // With room for every accepted sample, the table never passes its load
    // limit.
    const DirectPass one = RunPass(g, opt, grown.stats.accepted);
    EXPECT_GE(grown.stats.grows, 8u);
    EXPECT_EQ(one.stats.grows, 0u);
    EXPECT_EQ(grown.stats.drawn, one.stats.drawn);
    EXPECT_EQ(grown.stats.accepted, one.stats.accepted);
    EXPECT_EQ(grown.stats.mass_fp, one.stats.mass_fp);
    EXPECT_EQ(grown.stats.table_upserts, one.stats.table_upserts);
    EXPECT_EQ(grown.stats.combiner_hits, one.stats.combiner_hits);
    EXPECT_EQ(grown.distinct, one.distinct);
    ExpectByteEqualMatrices(grown.matrix, one.matrix);
    // Where a worker's records are rejected, and so how often the pass
    // re-offers them after a grow, is up to thread timing; no counter may
    // depend on it.
    for (int rep = 0; rep < 8; ++rep) {
      SCOPED_TRACE(rep);
      ExpectSamePassStats(RunPass(g, opt, 16).stats, grown.stats);
    }
  }
}

TEST(GrowTest, GrownPassEqualsOnePassOnCsrAndCompressedGraphs) {
  const CsrGraph csr = SamplerGraph();
  ExpectGrownPassEqualsOnePass(csr);
  ExpectGrownPassEqualsOnePass(CompressedGraph::FromCsr(csr));
}

TEST(GrowTest, AttemptsAndTableBytesIndependentOfTheWorkerCount) {
  const CsrGraph g = SamplerGraph();
  const SparsifierOptions opt = BaseOptions();
  auto pooled = BuildSparsifier(g, opt);
  Result<SparsifierResult> serial = [&] {
    SequentialRegion seq;
    return BuildSparsifier(g, opt);
  }();
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(serial.ok());
  EXPECT_GE(pooled->attempts, 2);  // the default first table grows here
  EXPECT_EQ(serial->attempts, pooled->attempts);
  EXPECT_EQ(serial->table_bytes, pooled->table_bytes);
  ExpectEquivalentSparsifiers(*serial, *pooled);
}

TEST(GrowTest, ForcedOverflowAnywhereInThePassLeavesTheMatrixUnchanged) {
  const CsrGraph g = SamplerGraph();
  const SparsifierOptions opt = BaseOptions();
  FaultRegistry& faults = FaultRegistry::Global();
  faults.Reset();
  // A policy that never fires counts the pass's table inserts.
  faults.ArmFailOnNthHit("sparsifier/table_insert", ~uint64_t{0});
  auto reference = BuildSparsifier(g, opt);
  const uint64_t inserts = faults.HitCount("sparsifier/table_insert");
  faults.Reset();
  ASSERT_TRUE(reference.ok());
  ASSERT_GE(inserts, 9u);
  for (uint64_t k = 1; k <= 8; ++k) {
    const uint64_t hit = inserts * k / 9;
    SCOPED_TRACE(hit);
    faults.ArmFailOnNthHit("sparsifier/table_insert", hit);
    auto forced = BuildSparsifier(g, opt);
    const uint64_t fired = faults.FireCount("sparsifier/table_insert");
    faults.Reset();
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    EXPECT_EQ(fired, 1u);
    EXPECT_GE(forced->attempts, reference->attempts);
    ExpectEquivalentSparsifiers(*reference, *forced);
  }
}

// ------------------------------------------------------ weighted sampling ----

WeightedCsrGraph SkewedWeightedGraph() {
  // A star plus a ring: vertex 0 has a wide, heavily skewed adjacency
  // (weights 1, 2, ..., d) — the deepest inverse-CDF search in the graph.
  WeightedEdgeList list;
  list.num_vertices = 64;
  for (NodeId v = 1; v < 64; ++v) {
    list.Add(0, v, static_cast<float>(v));
    list.Add(v, v % 63 + 1, 1.0f);
  }
  return WeightedCsrGraph::FromEdges(std::move(list));
}

TEST(WeightedSamplerTest, HubDrawFrequenciesTrackWeights) {
  const WeightedCsrGraph g = SkewedWeightedGraph();
  // Frequencies of 200k draws at the hub must track the (heavily skewed)
  // weights: any systematic deviation is an off-by-one in the search or a
  // wrong cumulative row.
  const NodeId hub = 0;
  const uint64_t d = g.Degree(hub);
  std::vector<uint64_t> counts(65, 0);
  Rng rng(7);
  const uint64_t draws = 200000;
  for (uint64_t s = 0; s < draws; ++s) ++counts[g.SampleNeighbor(hub, rng)];
  for (uint64_t i = 0; i < d; ++i) {
    const NodeId nbr = g.Neighbor(hub, i);
    const double expect = static_cast<double>(draws) *
                          static_cast<double>(g.Weight(hub, i)) /
                          g.WeightedDegree(hub);
    // 6-sigma Poisson band.
    EXPECT_NEAR(static_cast<double>(counts[nbr]), expect,
                6.0 * std::sqrt(expect) + 6.0)
        << "neighbor " << nbr;
  }
}

// ------------------------------------------------------------ degree guard ----

TEST(WeightsTest, SampleNeighborProportionalRejectsZeroDegree) {
  // Vertex 3 is isolated: the plain entry point must report InvalidArgument
  // instead of aborting or silently indexing past the adjacency. (The ctx
  // hot-path form keeps its CHECK — see weights.h.)
  EdgeList list;
  list.num_vertices = 4;
  list.Add(0, 1);
  list.Add(1, 2);
  const CsrGraph g = CsrGraph::FromEdges(list);
  Rng rng(1);
  const Result<NodeId> bad = SampleNeighborProportional(g, NodeId{3}, rng);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const Result<NodeId> good = SampleNeighborProportional(g, NodeId{0}, rng);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, NodeId{1});
}

// ------------------------------------------------------------ walk context ----

TEST(WalkContextTest, WalkContextMatchesPlainWalks) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(9, 6000, 21));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  WalkContext<CompressedGraph> ctx;
  for (uint64_t s = 0; s < 500; ++s) {
    Rng rng_a(s), rng_b(s);
    const NodeId start = static_cast<NodeId>(s % g.NumVertices());
    if (g.Degree(start) == 0) continue;
    const NodeId with_ctx = WeightedRandomWalk(g, ctx, start, 8, rng_a);
    const NodeId without = WeightedRandomWalk(g, start, 8, rng_b);
    ASSERT_EQ(with_ctx, without) << "walk " << s;
  }
}

// --------------------------------------------------------- walk engine ----

// Replays one deterministic PathSampling-shaped draw stream through a
// step function; used to compare decode variants draw by draw. A CSR graph
// and its compression have equal degrees, so both replay the same indices.
template <typename G, typename StepFn>
std::vector<NodeId> DrawStream(const G& g, const StepFn& step) {
  std::vector<NodeId> stream;
  Rng rng(4242);
  for (int walk = 0; walk < 4000; ++walk) {
    NodeId v = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
    if (g.Degree(v) == 0) continue;
    for (int k = 0; k < 6; ++k) {
      v = step(v, rng.UniformInt(g.Degree(v)));
      stream.push_back(v);
    }
  }
  return stream;
}

TEST(WalkEngineTest, StreamsBitIdenticalAcrossDecodeVariants) {
  // The walk engine contract: the plain compressed Neighbor (inline and
  // SIMD-decoder arms) and the hub-pinned context draw the same vertex
  // sequence, bit for bit, as the CSR graph the compression was built from.
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(10, 12000, 77));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  const std::vector<NodeId> reference = DrawStream(
      csr, [&](NodeId v, uint64_t i) { return csr.Neighbor(v, i); });
  {
    WalkContext<CompressedGraph> plain;
    const std::vector<NodeId> stream = DrawStream(
        g, [&](NodeId v, uint64_t i) { return plain.Neighbor(g, v, i); });
    ASSERT_EQ(stream, reference);
    EXPECT_EQ(plain.pin_hits(), 0u);
    EXPECT_EQ(plain.decode_misses(), stream.size());
  }
  {
    const WalkAccel<CompressedGraph> accel =
        MakeWalkAccel(g, /*pin_budget_bytes=*/uint64_t{1} << 30);
    ASSERT_FALSE(accel.pinned.empty());
    WalkContext<CompressedGraph> pinned(accel);
    const std::vector<NodeId> stream = DrawStream(
        g, [&](NodeId v, uint64_t i) { return pinned.Neighbor(g, v, i); });
    ASSERT_EQ(stream, reference);
    EXPECT_GT(pinned.pin_hits(), 0u);
  }
}

TEST(WalkEngineTest, SparsifierBitIdenticalAcrossTiersAndWorkerCounts) {
  // End to end: pinning fully on (a budget pinning every vertex), fully off
  // (every draw decodes its block), at one worker and at the full pool — all
  // four runs must produce the same sparsifier as the raw-CSR build.
  const CsrGraph csr = SamplerGraph();
  const CompressedGraph cg = CompressedGraph::FromCsr(csr);
  SparsifierOptions opt = BaseOptions();
  auto reference = BuildSparsifier(csr, opt);
  ASSERT_TRUE(reference.ok());
  for (const uint64_t pin_budget : {uint64_t{0}, uint64_t{1} << 30}) {
    opt.walk_pin_budget_bytes = pin_budget;
    auto parallel = BuildSparsifier(cg, opt);
    Result<SparsifierResult> serial = [&] {
      SequentialRegion seq;
      return BuildSparsifier(cg, opt);
    }();
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(serial.ok());
    ExpectEquivalentSparsifiers(*reference, *parallel);
    ExpectEquivalentSparsifiers(*reference, *serial);
  }
}

TEST(WalkEngineTest, HubCachePinsBlockAlignedPrefixesWithinBudget) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(10, 12000, 5));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  // A budget well below the full edge set: the cache is built for the
  // skewed regime where pinned vertices are a small fraction of n, which is
  // where the per-pinned-vertex hash index beats any per-vertex array.
  const uint64_t budget = 16 << 10;
  const CompressedGraph::HubCache cache =
      CompressedGraph::HubCache::Build(g, budget);
  ASSERT_FALSE(cache.empty());
  EXPECT_LE(cache.pinned_bytes(), budget);
  EXPECT_GT(cache.pinned_vertices(), 0u);
  EXPECT_LT(cache.pinned_vertices(), g.NumVertices());
  // Every pinned prefix is block-aligned or the whole row, never exceeds
  // the degree, and decodes to exactly the row prefix.
  uint64_t entries = 0;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t len = cache.PinnedLen(v);
    if (len == 0) continue;
    ASSERT_LE(len, g.Degree(v)) << "v=" << v;
    if (len != g.Degree(v)) {
      ASSERT_EQ(len % g.block_size(), 0u) << "v=" << v;
    }
    for (uint64_t i = 0; i < len; ++i) {
      ASSERT_EQ(cache.PinnedNeighbor(v, i), g.Neighbor(v, i))
          << "v=" << v << " i=" << i;
    }
    entries += len;
  }
  EXPECT_EQ(entries, cache.pinned_entries());
  // Small graph: every node id fits 24 bits, so the pool packs at 3 bytes.
  EXPECT_EQ(cache.pool_entry_width(), 3u);
  // Accounting identity: hash index slots + packed entries. The index is
  // power-of-two sized at a load factor of at most 1/2.
  EXPECT_EQ(cache.pinned_bytes(),
            cache.index_slots() * sizeof(CompressedGraph::HubCache::Entry) +
                entries * cache.pool_entry_width());
  // Every index entry carries the exact degree of its vertex (the walk's
  // probe-first Degree() depends on it).
  for (uint64_t s = 0; s < cache.index_slots(); ++s) {
    const CompressedGraph::HubCache::Entry& e = cache.index()[s];
    if (e.key == CompressedGraph::HubCache::kEmptyKey) continue;
    ASSERT_EQ(e.deg, g.Degree(e.key)) << "key=" << e.key;
  }
  EXPECT_GE(cache.index_slots(), 2 * cache.pinned_vertices());
  EXPECT_EQ(cache.index_slots() & (cache.index_slots() - 1), 0u);
  // The degree gate is the smallest pinned degree: admission is degree-
  // descending, so draws on vertices below it can skip the index probe.
  uint64_t min_pinned_degree = ~uint64_t{0};
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (cache.PinnedLen(v) == 0) continue;
    min_pinned_degree = std::min(min_pinned_degree, g.Degree(v));
  }
  EXPECT_EQ(cache.degree_gate(), min_pinned_degree);
  // The block-granular knapsack must pin strictly more entries than the
  // whole-row greedy packer it replaced (8-byte pointer index, whole rows
  // in (degree desc, id asc) order) under the same budget.
  std::vector<NodeId> order(g.NumVertices());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const uint64_t da = g.Degree(a), db = g.Degree(b);
    return da != db ? da > db : a < b;
  });
  uint64_t old_entries = 0;
  uint64_t old_bytes = static_cast<uint64_t>(g.NumVertices()) * 8;
  for (const NodeId v : order) {
    const uint64_t d = g.Degree(v);
    if (d == 0) break;
    if (old_bytes + d * sizeof(NodeId) > budget) break;
    old_bytes += d * sizeof(NodeId);
    old_entries += d;
  }
  EXPECT_GT(cache.pinned_entries(), old_entries);
  // Deterministic: a rebuild pins the identical prefix set.
  const CompressedGraph::HubCache again =
      CompressedGraph::HubCache::Build(g, budget);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(cache.PinnedLen(v), again.PinnedLen(v)) << "v=" << v;
  }
}

TEST(WalkEngineTest, HubCacheReservesAndReleasesGovernorBytes) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(9, 6000, 8));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  MemoryBudget budget(uint64_t{8} << 20);
  {
    const WalkAccel<CompressedGraph> accel =
        MakeWalkAccel(g, uint64_t{1} << 20, &budget);
    ASSERT_FALSE(accel.pinned.empty());
    // The accounted footprint is reserved against the governor and capped
    // by both the pin budget and a quarter of what was available.
    EXPECT_EQ(budget.reserved_bytes(), accel.pinned.pinned_bytes());
    EXPECT_LE(accel.pinned.pinned_bytes(), uint64_t{1} << 20);
    EXPECT_LE(accel.pinned.pinned_bytes(), (uint64_t{8} << 20) / 4);
  }
  // Destroying the accel releases the reservation.
  EXPECT_EQ(budget.reserved_bytes(), 0u);
  // A budget too small for even the minimum hash index plus one entry
  // yields an empty cache, not a failed reservation. (The quarter cap makes
  // the effective spend 64 bytes here — below the 8-slot index.)
  MemoryBudget tiny(256);
  const WalkAccel<CompressedGraph> none = MakeWalkAccel(g, 1 << 20, &tiny);
  EXPECT_TRUE(none.pinned.empty());
  EXPECT_EQ(tiny.reserved_bytes(), 0u);
}

TEST(WalkEngineTest, BatchDecodeMatchesMapNeighbors) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(9, 8000, 13));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  std::vector<NodeId> block(g.block_size());
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t d = g.Degree(v);
    if (d == 0) continue;
    std::vector<NodeId> expect;
    expect.reserve(d);
    g.MapNeighbors(v, [&](NodeId u) { expect.push_back(u); });
    uint64_t seen = 0;
    const uint64_t nblocks = (d + g.block_size() - 1) / g.block_size();
    for (uint64_t b = 0; b < nblocks; ++b) {
      const uint64_t len = g.DecodeBlock(v, b, block.data());
      ASSERT_GT(len, 0u);
      for (uint64_t k = 0; k < len; ++k) {
        ASSERT_EQ(block[k], expect[seen + k]) << "v=" << v << " b=" << b;
      }
      seen += len;
    }
    ASSERT_EQ(seen, d);
  }
}

TEST(WalkEngineTest, WalkCountersReachMetricsRegistry) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(9, 6000, 31));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  MetricsRegistry::Global().ResetForTest();
  uint64_t pin_hits = 0, misses = 0;
  {
    const WalkAccel<CompressedGraph> accel =
        MakeWalkAccel(g, uint64_t{1} << 30);
    WalkContext<CompressedGraph> ctx(accel);
    (void)DrawStream(
        g, [&](NodeId v, uint64_t i) { return ctx.Neighbor(g, v, i); });
    pin_hits = ctx.pin_hits();
    misses = ctx.decode_misses();
  }  // destructor publishes the counters
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("walk/pin_hits"), pin_hits);
  EXPECT_EQ(snap.CounterValue("walk/decode_misses"), misses);
  EXPECT_GT(snap.GaugeValue("walk/pinned_bytes"), 0u);
  EXPECT_GT(snap.GaugeValue("walk/pinned_vertices"), 0u);
  EXPECT_GT(pin_hits, 0u);
}

// -------------------------------------------------- edge-balanced schedule ----

TEST(SchedulingTest, EdgeBalancedBoundariesPartitionAndBalance) {
  const CsrGraph g = SamplerGraph();
  const uint64_t chunks = 32;
  const std::vector<NodeId> bounds =
      internal::EdgeBalancedBoundaries(g, chunks);
  ASSERT_EQ(bounds.size(), chunks + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), g.NumVertices());
  uint64_t total = 0, max_degree = 0;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    total += g.Degree(v) + 1;
    max_degree = std::max(max_degree, g.Degree(v));
  }
  uint64_t max_chunk = 0;
  for (uint64_t cidx = 0; cidx < chunks; ++cidx) {
    ASSERT_LE(bounds[cidx], bounds[cidx + 1]);
    uint64_t work = 0;
    for (NodeId v = bounds[cidx]; v < bounds[cidx + 1]; ++v) {
      work += g.Degree(v) + 1;
    }
    max_chunk = std::max(max_chunk, work);
  }
  // A chunk can exceed the ideal share by at most one vertex's work (the
  // boundary vertex is indivisible).
  EXPECT_LE(max_chunk, total / chunks + max_degree + 1);
}

TEST(SchedulingTest, BoundariesHandleDegenerateShapes) {
  // chunks > vertices and a graph with an isolated-vertex tail.
  EdgeList list;
  list.num_vertices = 5;
  list.Add(0, 1);
  const CsrGraph g = CsrGraph::FromEdges(list);
  const std::vector<NodeId> bounds = internal::EdgeBalancedBoundaries(g, 4);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 5u);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    EXPECT_LE(bounds[i], bounds[i + 1]);
  }
}

}  // namespace
}  // namespace lightne
