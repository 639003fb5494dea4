// Parallel sparsifier construction (§3.2 + §4.2 of the paper):
// downsampled per-edge PathSampling (Algorithm 2) aggregated into the sparse
// parallel hash table, then read out as a symmetric SparseMatrix.
//
// The estimator: with M the target number of path samples over the 2m
// directed edges, each directed edge e = (u, v) draws
//     n_e = floor(M / 2m) + Bernoulli(frac(M / 2m))
// attempts. With downsampling on, each attempt survives a coin flip with
//     p_e = min(1, C (1/d_u + 1/d_v)),   C = log(n) by default,
// and an accepted attempt runs Algo 1 with r ~ Uniform[1, T], adding weight
// 1/p_e to both (u', v') and (v', u'). The resulting matrix S is an unbiased
// estimator of
//     S*_{ab} = (M / (T m)) * d_a * sum_{r=1..T} (D^{-1} A)^r_{ab},
// which ApplyNetmfTransform (core/netmf.h) rescales into the NetMF matrix.
//
// Exact aggregation: the table adds integers, as the paper's xadd does. Each
// accepted sample's weight (1 or 2)/p_e enters as a 64-bit fixed-point
// integer with `bits` fractional bits, where bits is the largest width at
// which an integer bound on the pass's total mass (internal::PassBound,
// computed from per-edge maxima, so the same at any worker count) stays
// below 2^63. Every sum is then exact, so the matrix is bit-identical under
// any schedule, aggregation strategy or combiner setting. A graph whose
// bound leaves fewer than kMinWeightFractionBits is refused up front.
#ifndef LIGHTNE_CORE_SPARSIFIER_H_
#define LIGHTNE_CORE_SPARSIFIER_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregation.h"
#include "core/path_sampling.h"
#include "graph/graph_view.h"
#include "graph/walk_cursor.h"
#include "graph/weights.h"
#include "la/sparse.h"
#include "parallel/concurrent_hash_table.h"
#include "parallel/reduce.h"
#include "parallel/scan.h"
#include "parallel/sort.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace lightne {

struct SparsifierOptions {
  /// Target number of path samples M. The paper parameterizes this as a
  /// multiple of T*m; see LightNeOptions::samples_ratio.
  uint64_t num_samples = 0;
  /// Context window size T (walk length upper bound).
  uint32_t window = 10;
  /// The paper's edge-downsampling technique (§3.2). Off reproduces plain
  /// NetSMF per-edge sampling.
  bool downsample = true;
  /// C in p_e = min(1, C (1/d_u + 1/d_v)); 0 means use log(n).
  double downsample_constant = 0.0;
  uint64_t seed = 1;
  /// How accepted samples are aggregated (§4.2). The shared hash table is
  /// the paper's choice; kSortHistogram is the per-worker-lists alternative
  /// the paper considered, kept for the ablation. Both sum the same
  /// fixed-point integers and go through the same CSR builder, so they
  /// yield bit-identical sparsifiers.
  AggregationStrategy aggregation = AggregationStrategy::kSharedHashTable;
  /// Optional memory-budget governor. When limited, the builder reserves the
  /// hash-table footprint before allocating and walks the degradation ladder
  /// (tighten downsampling, then cap table capacity) instead of OOM-dying;
  /// kResourceExhausted is returned only when no degradation fits. Null or
  /// unlimited = the exact paper behavior.
  MemoryBudget* memory_budget = nullptr;
  /// Per-worker run-merging upsert batch in front of the shared hash table
  /// (see RunPerEdgeSampling): consecutive records of one key merge into one
  /// record, and records reach the table 64 at a time through UpsertBatch.
  /// Off = every accepted sample upserts the shared table directly (the
  /// reference path for tests and the benchmarks). Table sums are exact
  /// integers, so the matrix values, the integer counters and the
  /// distinct-key set are bit-identical either way.
  bool combiner = true;
  /// Byte budget for the walk accelerator (graph/walk_cursor.h): on
  /// compressed graphs, the hub-pinned decode cache shared by all sampling
  /// workers. 0 disables pinning (every draw then decodes its block).
  /// Pinning is a pure decode cache — the sparsifier is bit-identical with
  /// any value — so this is a perf/memory knob, not a semantic one. When a
  /// memory_budget governor is set, the actual footprint is reserved against
  /// it and capped so the hash table always has room.
  uint64_t walk_pin_budget_bytes = uint64_t{4} << 20;
};

struct SparsifierResult {
  SparseMatrix matrix;          // symmetric weighted sparsifier
  uint64_t samples_drawn = 0;   // sum of n_e
  uint64_t samples_accepted = 0;
  uint64_t distinct_entries = 0;
  uint64_t table_bytes = 0;     // final hash table footprint
  int attempts = 1;             // 1 + times the table grew during the pass
  /// True when the memory-budget governor changed the build (the sparsifier
  /// is still a valid unbiased estimator, just sparser than requested).
  bool degraded = false;
  /// Times the downsampling constant C was halved to fit the budget.
  int budget_tightenings = 0;
  /// True when the table capacity was clamped to the budget ceiling.
  bool capacity_capped = false;
  /// The C actually used (== the configured/log(n) one unless degraded).
  double downsample_constant_used = 0.0;
  /// Total sparsifier matrix mass (sum of all entries, diagonal and mirrored
  /// off-diagonal) in 2^-20 fixed point, rounded per accepted sample. The
  /// per-sample rounding makes the sum order-independent, so this value is
  /// bit-identical across worker counts — the measurement channel for the
  /// edge-count-conservation property test.
  uint64_t mass_fp20 = 0;
  /// Records delivered to the shared hash table (a record offered again
  /// after a grow counts once). Without the combiner this equals
  /// samples_accepted; with it, it is the number of same-key runs. Like
  /// combiner_hits, a function of the per-edge RNG streams only, so equal at
  /// any worker count.
  uint64_t table_upserts = 0;
  /// Records merged into the pending run of their key (0 with combiner off);
  /// table_upserts + combiner_hits == samples_accepted.
  uint64_t combiner_hits = 0;
};

namespace internal {

/// Fixed-point scale for the sparsifier mass counter (2^20 ulps per unit).
inline constexpr double kMassFpScale = 1048576.0;

/// Rounds a per-sample weight contribution to 2^-20 fixed point.
inline uint64_t MassFp(double w) {
  return static_cast<uint64_t>(w * kMassFpScale + 0.5);
}

/// Fewest fractional bits a table value may have: the resolution mass_fp20
/// already assumes.
inline constexpr int kMinWeightFractionBits = 20;

/// Largest fractional width at which a pass whose table mass is bounded by
/// `mass_bound` (see PassBound) keeps every sum below 2^63.
inline int WeightFractionBits(uint64_t mass_bound) {
  return 63 - static_cast<int>(std::bit_width(mass_bound));
}

/// Fixed-point format of the table values: a sample weight w = (1 or 2)/p_e
/// is stored as round(w 2^bits). Multiplying by a power of two is exact, so
/// Encode rounds once; Decode rounds the exact integer sum to float once
/// and rescales exactly.
struct WeightFixedPoint {
  explicit WeightFixedPoint(int fraction_bits)
      : scale(std::ldexp(1.0, fraction_bits)),
        inv_scale(std::ldexp(1.0f, -fraction_bits)) {}
  uint64_t Encode(double w) const {
    return static_cast<uint64_t>(w * scale + 0.5);
  }
  float Decode(uint64_t value) const {
    return static_cast<float>(value) * inv_scale;
  }
  double scale;
  float inv_scale;
};

/// p_e = min(1, C A_uv (1/d_u + 1/d_v)) for edge (u, v) of weight `w` under
/// degree downsampling (weighted degrees; w = 1 on unweighted graphs).
template <GraphView G>
double DownsampleProbability(const G& g, NodeId u, NodeId v, double c,
                             double w = 1.0) {
  const double inv =
      1.0 / VertexWeightedDegree(g, u) + 1.0 / VertexWeightedDegree(g, v);
  const double p = c * w * inv;
  return p < 1.0 ? p : 1.0;
}

/// Runs Algorithm 2 for the edges incident to u at sampling intensity
/// `per_edge`, emitting canonical (min, max)-keyed weighted records through
/// `sink(key, weight)`. Deterministic in the per-edge RNG streams regardless
/// of the worker count.
///
/// The sparsifier is symmetric: only the canonical pair is emitted — half
/// the aggregation traffic and memory — and mirrored when the CSR is built.
/// Diagonal hits carry double weight so the estimator matches the
/// symmetrized two-insert scheme.
template <GraphView G, typename Sink>
void SampleVertexEdges(const G& g, const SparsifierOptions& opt,
                       double per_unit_weight, double c, uint64_t seed,
                       NodeId u, WalkContext<G>& ctx, Sink&& sink,
                       uint64_t* drawn, uint64_t* accepted,
                       uint64_t* mass_fp) {
  MapNeighborsWeighted(g, u, [&](NodeId v, float weight) {
    Rng rng(HashCombine64(PackEdge(u, v), seed));
    // n_e = floor(M w / vol) + Bernoulli(frac): the weighted generalization
    // of floor(M/2m) + Bernoulli(frac(M/2m)) — heavier edges start more
    // walks, exactly as uniform weight-proportional edge draws would.
    const double intensity = per_unit_weight * static_cast<double>(weight);
    uint64_t ne = static_cast<uint64_t>(intensity);
    if (rng.Bernoulli(intensity - std::floor(intensity))) ++ne;
    *drawn += ne;
    const double pe =
        opt.downsample ? DownsampleProbability(g, u, v, c, weight) : 1.0;
    // Total matrix contribution of a sample is 2/p_e whether or not it hits
    // the diagonal (off-diagonal entries are mirrored in the CSR).
    const uint64_t sample_mass = MassFp(2.0 / pe);
    for (uint64_t i = 0; i < ne; ++i) {
      const uint64_t r = 1 + rng.UniformInt(opt.window);
      // opt.downsample is fixed for the whole run, so the draw count is
      // identical on every schedule; the per-edge rng replays from a
      // counter seed either way.
      if (opt.downsample && !rng.Bernoulli(pe)) continue;  // lint-ok: rngflow (run-constant guard)
      auto [a, b] = PathSample(g, ctx, u, v, r, rng);
      const uint64_t key = a <= b ? PackEdge(a, b) : PackEdge(b, a);
      sink(key, (a == b ? 2.0 : 1.0) / pe);
      ++*accepted;
      *mass_fp += sample_mass;
    }
  });
}

/// Exact integer counters of one sampling pass, none of them dependent on
/// the schedule. `drawn`, `accepted` and `mass_fp` are bit-identical across
/// worker counts and combiner settings, `table_upserts`, `combiner_hits`
/// and `grows` across worker counts.
struct SamplerPassStats {
  uint64_t drawn = 0;
  uint64_t accepted = 0;
  uint64_t mass_fp = 0;
  uint64_t table_upserts = 0;   // records delivered to the shared table
  uint64_t combiner_hits = 0;
  uint64_t grows = 0;           // times the shared table doubled
};

/// Degree-aware scheduling: partitions [0, n) into `chunks` contiguous
/// vertex ranges of roughly equal incident-edge count, each vertex costing
/// degree + 1 units so that empty vertices still advance the partition. No
/// hub-heavy range then dominates a pass on power-law graphs. Boundaries are
/// a pure function of the graph and `chunks`, with no dynamic claiming.
template <GraphView G>
std::vector<NodeId> EdgeBalancedBoundaries(const G& g, uint64_t chunks) {
  const NodeId n = g.NumVertices();
  LIGHTNE_CHECK_GE(chunks, 1u);
  std::vector<uint64_t> before(n);  // work units strictly before vertex v
  ParallelFor(0, n, [&](uint64_t v) {
    before[v] = g.Degree(static_cast<NodeId>(v)) + 1;
  });
  const uint64_t total = ParallelScanExclusive(before.data(), n);
  std::vector<NodeId> bounds(chunks + 1);
  bounds[0] = 0;
  bounds[chunks] = n;
  for (uint64_t cidx = 1; cidx < chunks; ++cidx) {
    const uint64_t target = total / chunks * cidx;
    // First vertex whose preceding work reaches the target; monotone in
    // cidx, so the ranges are contiguous and non-overlapping.
    bounds[cidx] = static_cast<NodeId>(
        std::lower_bound(before.begin(), before.end(), target) -
        before.begin());
  }
  return bounds;
}

/// The schedule of every sampling pass: the worker count ParallelForWorkers
/// runs it with (1 inside a parallel region), and 8 edge-balanced chunks per
/// worker, which worker w takes round-robin: w, w + W, w + 2W, ...
struct PassSchedule {
  uint64_t workers = 1;
  std::vector<NodeId> bounds;  // chunk k is [bounds[k], bounds[k + 1])
};

template <GraphView G>
PassSchedule SchedulePass(const G& g) {
  const uint64_t workers =
      (InParallelRegion() || NumWorkers() <= 1) ? 1 : NumWorkers();
  const uint64_t chunks = std::max<uint64_t>(
      1, std::min<uint64_t>(g.NumVertices(), workers * 8));
  return {workers, EdgeBalancedBoundaries(g, chunks)};
}

/// What one sampling pass of a build can put into the table, from the
/// graph, the intensity and C alone (recomputed when the governor halves C).
struct PassBound {
  /// sum_e E[n_e] p_e: the capacity bound on distinct entries. It sizes the
  /// first table and, under a memory budget, picks the degradation rungs,
  /// which change the samples. So it is summed over kPassBoundBlocks fixed
  /// vertex blocks, each in vertex order and the blocks in block order: the
  /// same bits at any worker count.
  double expected_accepted = 0;
  /// Integer bound on the pass's table mass in weight units: sum over
  /// directed edges of max n_e * (ceil(2/p_e) + 1), saturating at 2^62. A
  /// sample adds at most Encode(2/p_e) <= 2^bits (2/p_e + 1) to the table,
  /// so the pass's total stays below 2^bits * mass_bound. An integer sum of
  /// per-edge terms, hence equal at any worker count.
  uint64_t mass_bound = 0;
};

inline constexpr uint64_t kPassBoundBlocks = 64;

template <GraphView G>
PassBound ComputePassBound(const G& g, const SparsifierOptions& opt,
                           double per_unit_weight, double c) {
  constexpr uint64_t kSaturated = uint64_t{1} << 62;
  const uint64_t n = g.NumVertices();
  std::array<double, kPassBoundBlocks> expected{};
  std::array<uint64_t, kPassBoundBlocks> mass{};
  ParallelFor(0, kPassBoundBlocks, [&](uint64_t block) {
    const NodeId lo = static_cast<NodeId>(n * block / kPassBoundBlocks);
    const NodeId hi = static_cast<NodeId>(n * (block + 1) / kPassBoundBlocks);
    double local_expected = 0;
    uint64_t local_mass = 0;
    for (NodeId u = lo; u < hi; ++u) {
      MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
        const double pe =
            opt.downsample ? DownsampleProbability(g, u, v, c, w) : 1.0;
        local_expected += static_cast<double>(w) * pe;
        // n_e is floor(x) plus a Bernoulli(frac(x)) coin: at most ceil(x).
        const double most_samples =
            std::ceil(per_unit_weight * static_cast<double>(w));
        if (most_samples == 0) return;
        const double term = most_samples * (std::ceil(2.0 / pe) + 1.0);
        const uint64_t units = term < static_cast<double>(kSaturated)
                                   ? static_cast<uint64_t>(term)
                                   : kSaturated;
        local_mass = std::min(local_mass + units, kSaturated);
      });
    }
    expected[block] = local_expected;
    mass[block] = local_mass;
  }, /*grain=*/1);
  PassBound bound;
  double sum_wp = 0.0;
  for (const double e : expected) sum_wp += e;
  bound.expected_accepted = opt.downsample
                                ? per_unit_weight * sum_wp
                                : static_cast<double>(opt.num_samples);
  for (const uint64_t m : mass) {
    bound.mass_bound = std::min(bound.mass_bound + m, kSaturated);
  }
  return bound;
}

/// One full pass of Algorithm 2 into the shared hash table (the paper's
/// strategy), which doubles in place whenever it passes its load limit.
/// `reservation` holds the table's footprint against opt.memory_budget and
/// is replaced at each grow; a grow the budget refuses ends the pass with
/// kResourceExhausted.
///
/// Scheduling: SchedulePass's chunks. Each worker owns one WalkContext per
/// round (on compressed graphs, a view of the phase-shared `accel`'s pinned
/// hub prefixes plus draw counters).
///
/// With opt.combiner, each worker also owns a run-merging upsert batch. A
/// record whose key equals the pending run's key is added to it (a combiner
/// hit; an edge's n_e samples arrive back to back); any other key pushes
/// the run into the worker's pending list, which drains through UpsertBatch
/// when it holds 64 records and at the pass end. The pending run is pushed
/// at the end of every vertex, so runs never span vertices and the hit and
/// upsert counts depend on the per-edge RNG streams alone, not on the
/// worker count. Without the combiner each record goes to Upsert directly.
///
/// Growth (DESIGN §11, "The reject path"): the pass runs in rounds, one
/// ParallelForWorkers call each. A worker whose record is rejected keeps
/// it and the rest of its vertex's records pending and stops at the vertex
/// boundary; the others stop at theirs once the table reads overflowed.
/// Between rounds the table doubles; then each worker offers its pending
/// records and samples on. No vertex is sampled twice and the sums are
/// integers, so the grown table equals one that never overflowed.
template <GraphView G>
Status RunPerEdgeSampling(const G& g, const SparsifierOptions& opt,
                          double per_edge, double c,
                          const WeightFixedPoint& weights,
                          const WalkAccel<G>& accel,
                          ConcurrentHashTable<uint64_t>* table,
                          BudgetReservation* reservation,
                          SamplerPassStats* stats) {
  using Record = std::pair<uint64_t, uint64_t>;
  constexpr uint64_t kEmptyKey = ConcurrentHashTable<uint64_t>::kEmptyKey;
  constexpr size_t kBatch = 64;  // records per UpsertBatch (1 KiB)
  const PassSchedule schedule = SchedulePass(g);
  const uint64_t workers = schedule.workers;
  const uint64_t chunks = schedule.bounds.size() - 1;
  const std::vector<NodeId>& bounds = schedule.bounds;
  // What a worker carries from one round to the next; cache-line aligned
  // so no two workers' counters share a line.
  struct alignas(64) WorkerState {
    uint64_t chunk = 0;  // chunk being sampled; >= chunks once all are done
    NodeId next = 0;     // its next vertex
    std::vector<Record> pending;  // records the table has not accepted yet
    SamplerPassStats counts;
  };
  std::vector<WorkerState> state(workers);
  for (uint64_t w = 0; w < workers; ++w) {
    state[w].chunk = w;
    if (w < chunks) state[w].next = bounds[w];
    state[w].pending.reserve(kBatch);
  }
  auto round = [&](int worker, int nworkers) {
    LIGHTNE_CHECK_EQ(static_cast<uint64_t>(nworkers), workers);
    WorkerState& self = state[static_cast<size_t>(worker)];
    SamplerPassStats& count = self.counts;
    std::vector<Record>& pending = self.pending;
    bool rejected = false;
    // Offers the pending list, 64 records per UpsertBatch, and keeps the
    // suffix from the first rejected record.
    auto offer = [&] {
      size_t applied = 0;
      while (!rejected && applied < pending.size()) {
        const uint32_t len =
            static_cast<uint32_t>(std::min(kBatch, pending.size() - applied));
        const uint32_t took =
            table->UpsertBatch(pending.data() + applied, len);
        applied += took;
        rejected = took < len;
      }
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(applied));
    };
    uint64_t run_key = kEmptyKey;
    uint64_t run_weight = 0;
    auto push_run = [&] {
      if (run_key == kEmptyKey) return;
      pending.push_back({run_key, run_weight});
      ++count.table_upserts;
      run_key = kEmptyKey;
      if (pending.size() >= kBatch) offer();
    };
    auto sink = [&](uint64_t key, double weight) {
      const uint64_t w = weights.Encode(weight);
      if (!opt.combiner) {
        ++count.table_upserts;
        if (rejected || !table->Upsert(key, w)) {
          rejected = true;
          pending.push_back({key, w});
        }
        return;
      }
      LIGHTNE_CHECK_NE(key, kEmptyKey);
      if (key == run_key) {
        run_weight += w;
        ++count.combiner_hits;
        return;
      }
      push_run();
      run_key = key;
      run_weight = w;
    };
    offer();  // what the last round left
    WalkContext<G> ctx(accel);
    while (self.chunk < chunks && !table->overflowed()) {
      if (self.next == bounds[self.chunk + 1]) {
        self.chunk += workers;
        if (self.chunk < chunks) self.next = bounds[self.chunk];
        continue;
      }
      SampleVertexEdges(g, opt, per_edge, c, opt.seed, self.next++, ctx,
                        sink, &count.drawn, &count.accepted, &count.mass_fp);
      push_run();
    }
    if (self.chunk >= chunks) offer();  // the pass-end drain
  };
  uint64_t grows = 0;
  for (;;) {
    ParallelForWorkers(round);
    if (!table->overflowed()) break;
    const uint64_t grown_bytes = 2 * table->MemoryBytes();
    BudgetReservation grown(opt.memory_budget, grown_bytes);
    if (!grown.ok()) {
      return Status::ResourceExhausted(
          "sparsifier hash table cannot grow to " + HumanBytes(grown_bytes) +
          " within the memory budget");
    }
    {
      TraceSpan span("sparsifier/grow");
      table->Grow();
    }
    *reservation = std::move(grown);  // releases the old table's bytes
    ++grows;
  }
  SamplerPassStats total;
  for (const WorkerState& w : state) {
    total.drawn += w.counts.drawn;
    total.accepted += w.counts.accepted;
    total.mass_fp += w.counts.mass_fp;
    total.table_upserts += w.counts.table_upserts;
    total.combiner_hits += w.counts.combiner_hits;
  }
  total.grows = grows;
  *stats = total;
  return Status::Ok();
}

/// One full pass of Algorithm 2 on the table pass's schedule, handing each
/// accepted sample's canonical key and weight to `emit(worker, key, weight)`
/// instead of to a table: the pass of the sort-histogram ablation and of
/// the NetSMF baseline. Returns the drawn, accepted and mass_fp counts,
/// summed in worker order. Never fails.
template <GraphView G, typename Emit>
SamplerPassStats RunPerEdgeSamplingInto(const G& g,
                                        const SparsifierOptions& opt,
                                        double per_edge, double c,
                                        const WalkAccel<G>& accel,
                                        Emit&& emit) {
  const PassSchedule schedule = SchedulePass(g);
  // One cache line per worker's counters.
  struct alignas(64) Slot { SamplerPassStats counts; };
  std::vector<Slot> slots(schedule.workers);
  ParallelForWorkers([&](int worker, int nworkers) {
    LIGHTNE_CHECK_EQ(static_cast<uint64_t>(nworkers), schedule.workers);
    SamplerPassStats& count = slots[static_cast<size_t>(worker)].counts;
    auto sink = [&](uint64_t key, double weight) { emit(worker, key, weight); };
    WalkContext<G> ctx(accel);
    for (uint64_t k = static_cast<uint64_t>(worker);
         k + 1 < schedule.bounds.size(); k += schedule.workers) {
      for (NodeId u = schedule.bounds[k]; u < schedule.bounds[k + 1]; ++u) {
        SampleVertexEdges(g, opt, per_edge, c, opt.seed, u, ctx, sink,
                          &count.drawn, &count.accepted, &count.mass_fp);
      }
    }
  });
  SamplerPassStats total;
  for (const Slot& w : slots) {
    total.drawn += w.counts.drawn;
    total.accepted += w.counts.accepted;
    total.mass_fp += w.counts.mass_fp;
  }
  return total;
}

/// Publishes a completed build into the process metrics registry. A build
/// samples every edge exactly once, so the sampler counters are
/// deterministic per build; `table_rebuilds` counts the table's grows.
inline void RecordSparsifierMetrics(const SparsifierResult& r,
                                    uint64_t table_capacity) {
  MetricsRegistry& m = MetricsRegistry::Global();
  m.GetCounter("sparsifier/builds")->Increment();
  m.GetCounter("sparsifier/samples_drawn")->Add(r.samples_drawn);
  m.GetCounter("sparsifier/samples_accepted")->Add(r.samples_accepted);
  m.GetCounter("sparsifier/mass_fp20")->Add(r.mass_fp20);
  m.GetCounter("sparsifier/table_rebuilds")
      ->Add(static_cast<uint64_t>(r.attempts - 1));
  m.GetCounter("sparsifier/budget_tightenings")
      ->Add(static_cast<uint64_t>(r.budget_tightenings));
  m.GetCounter("sparsifier/table_upserts")->Add(r.table_upserts);
  m.GetCounter("sparsifier/combiner_hits")->Add(r.combiner_hits);
  m.GetGauge("sparsifier/distinct_entries")->Set(r.distinct_entries);
  m.GetGauge("sparsifier/table_bytes")->Set(r.table_bytes);
  if (table_capacity > 0) {
    m.GetGauge("sparsifier/table_occupancy_pct")
        ->Set(100 * r.distinct_entries / table_capacity);
  }
}

}  // namespace internal

/// Builds the sparsifier in one sampling pass, into a table that grows in
/// place to the smallest power of two holding the distinct pairs. Fails
/// with ResourceExhausted if the memory budget cannot hold the table or a
/// grow of it, and with InvalidArgument, before any sampling, if the sample
/// weights span too wide a range for exact 64-bit fixed point (see
/// internal::PassBound).
template <GraphView G>
Result<SparsifierResult> BuildSparsifier(const G& g,
                                         const SparsifierOptions& opt) {
  const NodeId n = g.NumVertices();
  const EdgeId directed = g.NumDirectedEdges();
  if (directed == 0) {
    return Status::InvalidArgument("graph has no edges");
  }
  if (opt.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  double c = opt.downsample_constant > 0
                 ? opt.downsample_constant
                 : std::log(static_cast<double>(n));
  // Sampling intensity per unit of edge weight: E[sum_e n_e] = M exactly
  // (for unweighted graphs Volume() = 2m, so this is the paper's M/2m).
  const double per_edge =
      static_cast<double>(opt.num_samples) / g.Volume();

  // Expected accepted samples (the bound on distinct entries) and the
  // fixed-point width of the table values, both recomputed by the budget
  // governor when it tightens C.
  internal::PassBound bound = internal::ComputePassBound(g, opt, per_edge, c);
  auto weight_format = [&]() -> Result<internal::WeightFixedPoint> {
    const int bits = internal::WeightFractionBits(bound.mass_bound);
    if (bits < internal::kMinWeightFractionBits) {
      return Status::InvalidArgument(
          "sample weights 1/p_e span too wide a range for exact 64-bit "
          "fixed point: " + std::to_string(bits) + " fractional bits left, " +
          std::to_string(internal::kMinWeightFractionBits) + " needed");
    }
    return internal::WeightFixedPoint(bits);
  };
  Result<internal::WeightFixedPoint> weights = weight_format();
  if (!weights.ok()) return weights.status();

  // Walk accelerator for the build's sampling pass: on compressed graphs
  // this pins the decoded top-degree adjacencies, with the footprint
  // reserved against the governor for the build's lifetime. A pure decode
  // cache — the sparsifier is bit-identical with or without it.
  const WalkAccel<G> walk_accel =
      MakeWalkAccel(g, opt.walk_pin_budget_bytes, opt.memory_budget);

  // --- alternative strategy: per-worker lists + sparse histogram ---------
  if (opt.aggregation == AggregationStrategy::kSortHistogram) {
    using Record = std::pair<uint64_t, uint64_t>;  // key, fixed-point weight
    WorkerBuffers<Record> buffers(NumWorkers());
    const internal::WeightFixedPoint& fp = *weights;
    internal::SamplerPassStats stats;
    {
      TraceSpan span("sparsifier/main");
      stats = internal::RunPerEdgeSamplingInto(
          g, opt, per_edge, c, walk_accel,
          [&](int worker, uint64_t key, double weight) {
            buffers.Add(worker, {key, fp.Encode(weight)});
          });
    }
    SparsifierResult result;
    result.samples_drawn = stats.drawn;
    result.samples_accepted = stats.accepted;
    result.mass_fp20 = stats.mass_fp;
    result.table_bytes = buffers.MemoryBytes();  // peak record bytes
    result.downsample_constant_used = c;
    TraceSpan span("sparsifier/extract");
    const std::vector<Record> canonical = SortHistogram(buffers.TakeAll());
    result.distinct_entries = canonical.size();
    result.matrix = SparseMatrix::FromCanonicalSlots(
        n, canonical.size(), [&](uint64_t i) { return canonical[i].first; },
        [&](uint64_t i) { return fp.Decode(canonical[i].second); });
    internal::RecordSparsifierMetrics(result, /*table_capacity=*/0);
    return result;
  }

  MemoryBudget* budget = opt.memory_budget;
  const bool budgeted = budget != nullptr && budget->limited();

  // The shared table's first size. Unbudgeted it has room for
  // min(expected accepted samples, directed edges) entries and grows from
  // there. The degradation ladder must know before sampling whether the
  // table fits, so under a budget it sizes from expected_accepted, the bound
  // on distinct entries, and a budgeted build normally never grows.
  uint64_t capacity_hint = static_cast<uint64_t>(
      budgeted ? bound.expected_accepted
               : std::min(bound.expected_accepted,
                          static_cast<double>(directed)));

  // ---- memory-budget governor: the degradation ladder --------------------
  // Rung 1: tighten edge downsampling (halve C) so fewer samples survive and
  // the table shrinks. Rung 2: cap the table at the largest capacity the
  // budget can hold and hope the distinct count fits (a grow the budget
  // refuses turns "it did not" into kResourceExhausted). Every rung is
  // recorded in the result so callers can see the embedding was degraded.
  bool degraded = false;
  bool capacity_capped = false;
  int tightenings = 0;
  if (budgeted) {
    constexpr int kMaxTightenings = 4;
    while (opt.downsample && tightenings < kMaxTightenings &&
           ConcurrentHashTable<uint64_t>::ProjectedMemoryBytes(capacity_hint) >
               budget->available_bytes()) {
      c *= 0.5;
      ++tightenings;
      degraded = true;
      // A smaller C raises 1/p_e, so the fixed-point width is re-derived.
      bound = internal::ComputePassBound(g, opt, per_edge, c);
      weights = weight_format();
      if (!weights.ok()) return weights.status();
      capacity_hint = static_cast<uint64_t>(bound.expected_accepted);
    }
    if (ConcurrentHashTable<uint64_t>::ProjectedMemoryBytes(capacity_hint) >
        budget->available_bytes()) {
      const uint64_t capped_hint = ConcurrentHashTable<uint64_t>::
          LargestHintFitting(budget->available_bytes());
      if (capped_hint == 0) {
        return Status::ResourceExhausted(
            "memory budget of " + HumanBytes(budget->limit_bytes()) +
            " cannot hold any sparsifier hash table");
      }
      capacity_hint = capped_hint;
      capacity_capped = true;
      degraded = true;
    }
    if (degraded) {
      LIGHTNE_LOG_WARN(
          "sparsifier degraded to fit memory budget %s: C halved %d time(s)"
          "%s",
          HumanBytes(budget->limit_bytes()).c_str(), tightenings,
          capacity_capped ? ", table capacity capped" : "");
    }
  }

  const uint64_t table_bytes =
      ConcurrentHashTable<uint64_t>::ProjectedMemoryBytes(capacity_hint);
  BudgetReservation table_reservation(budget, table_bytes);
  if (!table_reservation.ok()) {
    return Status::ResourceExhausted(
        "sparsifier hash table (" + HumanBytes(table_bytes) +
        ") exceeds the remaining memory budget after degradation");
  }
  ConcurrentHashTable<uint64_t> table = [&] {
    TraceSpan span("sparsifier/table");
    return ConcurrentHashTable<uint64_t>(capacity_hint);
  }();
  internal::SamplerPassStats stats;
  {
    TraceSpan span("sparsifier/main");
    const Status sampled = internal::RunPerEdgeSampling(
        g, opt, per_edge, c, *weights, walk_accel, &table,
        &table_reservation, &stats);
    if (!sampled.ok()) return sampled;
  }
  SparsifierResult result;
  result.samples_drawn = stats.drawn;
  result.samples_accepted = stats.accepted;
  result.mass_fp20 = stats.mass_fp;
  result.table_upserts = stats.table_upserts;
  result.combiner_hits = stats.combiner_hits;
  result.distinct_entries = table.NumEntries();
  result.table_bytes = table.MemoryBytes();
  result.attempts = static_cast<int>(1 + stats.grows);
  result.degraded = degraded;
  result.budget_tightenings = tightenings;
  result.capacity_capped = capacity_capped;
  result.downsample_constant_used = c;
  {
    TraceSpan span("sparsifier/extract");
    static_assert(ConcurrentHashTable<uint64_t>::kEmptyKey ==
                  SparseMatrix::kNoKey);
    result.matrix = SparseMatrix::FromCanonicalSlots(
        n, table.capacity(), [&](uint64_t i) { return table.SlotKey(i); },
        [&](uint64_t i) { return weights->Decode(table.SlotValue(i)); });
  }
  internal::RecordSparsifierMetrics(result, table.capacity());
  return result;
}

}  // namespace lightne

#endif  // LIGHTNE_CORE_SPARSIFIER_H_
