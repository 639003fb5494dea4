// Machine-readable sampler perf baseline (DESIGN.md §11), schema v8.
//
// Measures the sparsifier ingestion hot path on a skewed RMAT graph — the
// run-merging upsert batch (the "combiner" rows) vs direct shared-table
// upserts at the same worker count, plus a contended 4-thread section that
// revalidates UpsertBatch's prefetch pipeline under real cross-thread
// traffic and times xadd against a CAS loop (§4.2) — and the walk-step
// primitives: CSR, compressed decode variants (naive per-draw Neighbor()
// and the hub-pinned context), the weighted inverse-CDF draw, and an
// out-of-LLC RMAT-20 section where the adjacency no longer fits any cache
// level. Every walk row but the two naive decode references draws through
// SampleNeighborProportional, the step the sparsifier's own walks take. A
// cross-variant checksum matrix — {csr, compressed, pinned} x {1, 4
// threads} with per-start seeded RNGs and an order-independent XOR
// reduction — proves compressed walks, pinned or not, draw exactly the CSR
// walks: any divergence fails the run. Every row is a wall-clock median.
// Writes a JSON trajectory artifact (default BENCH_sampler.json,
// overridable as argv[1]).
// `scripts/bench_baseline.sh` commits the median of three runs at scale
// 1.0; scripts/check.sh runs a reduced-scale smoke and validates the
// schema.
//
// The headline rows isolate aggregation cost: window=1 degenerates
// PathSampling to returning the edge endpoints (no walk steps), so the pass
// is RNG + key canonicalization + aggregation — the component the upsert
// batch changes. The window=10 rows measure the full pipeline mix. Sampling
// rows time internal::RunPerEdgeSampling into a pre-allocated table
// (cleared between runs) so table sizing/extraction are excluded from the
// medians.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/sparsifier.h"
#include "data/generators.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/varint_simd.h"
#include "graph/walk_cursor.h"
#include "graph/weighted_csr.h"
#include "graph/weights.h"
#include "parallel/atomics.h"
#include "parallel/concurrent_hash_table.h"
#include "parallel/parallel_for.h"
#include "util/artifact_io.h"
#include "util/random.h"

namespace lightne::bench {
namespace {

// Pin budget for the hub-pinned walk rows. On the cache-resident RMAT-14
// graph this pins essentially every row (the decoded graph is ~3.6 MiB);
// on the out-of-LLC graph it fits the per-vertex prefix index plus
// block-aligned prefixes of the hottest rows only, which is the realistic
// partial-coverage regime the block knapsack was built for.
constexpr uint64_t kPinBudget = uint64_t{4} << 20;
constexpr uint64_t kPinBudgetXllc = uint64_t{16} << 20;
// Alternating naive/pinned pass pairs of the out-of-LLC walk rows.
constexpr int kXllcPairs = 7;

struct ResultRow {
  std::string name;     // stable key, e.g. "sampler_w1_combiner_mt"
  std::string kind;     // sampling | walk
  std::string variant;  // direct | combiner | csr | naive | pinned | ...
  int threads = 1;
  int runs = 0;
  double median_ms = 0.0;
  double rate_per_sec = 0.0;  // samples/sec or steps/sec
  std::string unit;           // "samples" | "steps"
};

std::vector<ResultRow> g_rows;

double FindMs(const std::string& name) {
  for (const ResultRow& r : g_rows) {
    if (r.name == name) return r.median_ms;
  }
  return -1.0;
}

void PrintRow(const ResultRow& r) {
  std::printf("  %-34s %4d thread(s)  %10.3f ms  %12.3e %s/s\n",
              r.name.c_str(), r.threads, r.median_ms, r.rate_per_sec,
              r.unit.c_str());
}

// ---------------------------------------------------------------- sampling

struct SamplingConfig {
  uint32_t window;
  bool combiner;
  uint64_t num_samples;
};

// Times one ingestion pass (table cleared between runs) and records an
// events/sec row where the event count is the pass's accepted samples.
void RecordSamplingRow(const std::string& name, const CsrGraph& g,
                       const SamplingConfig& cfg, bool sequential, int runs) {
  SparsifierOptions opt;
  opt.num_samples = cfg.num_samples;
  opt.window = cfg.window;
  opt.downsample = false;  // every draw is accepted: pure ingestion load
  opt.seed = 7;
  opt.combiner = cfg.combiner;
  const double per_edge =
      static_cast<double>(opt.num_samples) / g.Volume();
  const WalkAccel<CsrGraph> accel;  // no-op on direct-access graphs
  // Size the table generously once so no run grows it and re-allocation
  // stays out of the timing loop.
  ConcurrentHashTable<uint64_t> table(g.NumDirectedEdges() + 1024);
  BudgetReservation unbudgeted;
  // Without downsampling every weight is 1 or 2, so any width fits.
  const internal::WeightFixedPoint weights(internal::kMinWeightFractionBits);
  internal::SamplerPassStats stats;
  auto pass = [&] {
    table.Clear();
    internal::SamplerPassStats run_stats;
    if (!internal::RunPerEdgeSampling(g, opt, per_edge, /*c=*/1.0, weights,
                                      opt.seed, accel, &table, &unbudgeted,
                                      &run_stats)
             .ok() ||
        run_stats.grows > 0) {
      std::fprintf(stderr, "%s: table overflowed\n", name.c_str());
      std::exit(1);
    }
    stats = run_stats;
  };
  ResultRow row;
  row.name = name;
  row.kind = "sampling";
  row.variant = cfg.combiner ? "combiner" : "direct";
  if (sequential) {
    SequentialRegion guard;
    row.median_ms = MedianMs(runs, pass);
    row.threads = 1;
  } else {
    row.median_ms = MedianMs(runs, pass);
    row.threads = NumWorkers();
  }
  row.runs = runs;
  row.unit = "samples";
  row.rate_per_sec =
      static_cast<double>(stats.accepted) / (row.median_ms / 1000.0);
  PrintRow(row);
  g_rows.push_back(std::move(row));
}

// ------------------------------------------------ contended table upserts
// UpsertBatch's hash-prefetch pipeline was tuned on single-threaded runs;
// these rows revalidate it with kContendedThreads plain threads hammering
// one shared table — the regime the sampler's batches drain in. The key
// mix sends a quarter of traffic to 1K hot keys (batches colliding on
// popular edges) and the rest across ~1M cold keys (the hash-miss traffic
// the prefetch stage exists for). hw_cores is recorded in the JSON: on a
// machine with fewer cores than threads the rows measure oversubscribed
// interleaving rather than true parallel contention, and readers should
// weigh them accordingly.
constexpr int kContendedThreads = 4;
constexpr uint32_t kContendedBatch = 64;
constexpr uint64_t kContendedKeyspace = uint64_t{1} << 20;

uint64_t ContendedOpsPerThread() {
  return std::max<uint64_t>(
      static_cast<uint64_t>(262144 * BenchScale()), 16384);
}

void RecordContendedRow(const std::string& name, bool batched,
                        ConcurrentHashTable<uint64_t>& table, int runs) {
  const uint64_t ops = ContendedOpsPerThread();
  auto worker = [&table, ops, batched](int t) {
    Rng rng(HashCombine64(0xC0117E47, static_cast<uint64_t>(t)));
    std::pair<uint64_t, uint64_t> batch[kContendedBatch];
    uint32_t fill = 0;
    bool ok = true;
    for (uint64_t op = 0; op < ops; ++op) {
      const uint64_t r = rng.Next();
      const uint64_t key = ((r & 3) == 0)
                               ? ((r >> 2) & 1023)
                               : (((r >> 2) % kContendedKeyspace) + 1024);
      if (batched) {
        batch[fill++] = {key, 1};
        if (fill == kContendedBatch) {
          ok = table.UpsertBatch(batch, fill) == fill && ok;
          fill = 0;
        }
      } else {
        ok = table.Upsert(key, 1) && ok;
      }
    }
    if (fill > 0) ok = table.UpsertBatch(batch, fill) == fill && ok;
    if (!ok) {
      std::fprintf(stderr, "contended table overflowed\n");
      std::abort();
    }
  };
  auto pass = [&] {
    table.Clear();
    std::vector<std::thread> threads;
    threads.reserve(kContendedThreads);
    for (int t = 0; t < kContendedThreads; ++t) {
      threads.emplace_back(worker, t);
    }
    for (std::thread& th : threads) th.join();
  };
  ResultRow row;
  row.name = name;
  row.kind = "sampling";
  row.variant = batched ? "contended_batch" : "contended_direct";
  row.threads = kContendedThreads;
  row.runs = runs;
  row.median_ms = MedianMs(runs, pass);
  row.unit = "samples";
  row.rate_per_sec = static_cast<double>(ops) * kContendedThreads /
                     (row.median_ms / 1000.0);
  PrintRow(row);
  g_rows.push_back(std::move(row));
}

// ----------------------------------------------- xadd against a CAS loop
// The paper aggregates with lock xadd, not a compare-and-swap loop (§4.2,
// citing Shun et al. 2013). These rows time kContendedThreads plain threads
// making ContendedOpsPerThread() adds each through `add` — AtomicFetchAdd or
// CasLoopFetchAdd (parallel/atomics.h) — either on one hot counter, where
// every add contends, or on kSpreadCounters counters that each thread sweeps
// from its own quarter, where almost none does.
constexpr uint64_t kSpreadCounters = uint64_t{1} << 16;

template <typename AddFn>
void RecordAtomicRow(const std::string& name, const std::string& variant,
                     uint64_t num_counters, int runs, const AddFn& add) {
  const uint64_t ops = ContendedOpsPerThread();
  const uint64_t mask = num_counters - 1;  // num_counters is a power of two
  std::vector<std::atomic<uint64_t>> counters(num_counters);
  auto pass = [&] {
    for (std::atomic<uint64_t>& c : counters) {
      c.store(0, std::memory_order_relaxed);
    }
    std::vector<std::thread> threads;
    threads.reserve(kContendedThreads);
    for (int t = 0; t < kContendedThreads; ++t) {
      threads.emplace_back([&, t] {
        const uint64_t first =
            static_cast<uint64_t>(t) * num_counters / kContendedThreads;
        for (uint64_t op = 0; op < ops; ++op) {
          add(counters[(first + op) & mask]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  };
  ResultRow row;
  row.name = name;
  row.kind = "atomic";
  row.variant = variant;
  row.threads = kContendedThreads;
  row.runs = runs;
  row.median_ms = MedianMs(runs, pass);
  row.unit = "adds";
  row.rate_per_sec = static_cast<double>(ops) * kContendedThreads /
                     (row.median_ms / 1000.0);
  PrintRow(row);
  g_rows.push_back(std::move(row));
}

// ------------------------------------------------------------------- walks

// Walk starts with degree >= 1, fixed across variants.
template <typename G>
std::vector<NodeId> WalkStarts(const G& g, uint64_t count) {
  std::vector<NodeId> starts;
  starts.reserve(count);
  Rng rng(1234);
  while (starts.size() < count) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
    if (g.Degree(v) > 0) starts.push_back(v);
  }
  return starts;
}

// Per-draw primitive rows: several short walks per start.
constexpr uint64_t kWalksPerStart = 8;
constexpr uint64_t kStepsPerWalk = 8;

// The sparsifier's actual walk pattern (PathSampling, Algo 1): every edge
// (u, v) starts kAttemptsPerEdge attempts, each splitting window-1 steps
// between a walk from u and a walk from v. ~2/(window-1) of all draws land
// on the current edge's endpoints and consecutive edges share u, so those
// blocks stay cache-resident while interior steps scatter.
constexpr uint64_t kAttemptsPerEdge = 4;
constexpr uint64_t kPathWindow = 10;

// All undirected edges in CSR order — the order the sparsifier walks them.
std::vector<std::pair<NodeId, NodeId>> PathEdges(const CsrGraph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(g.NumUndirectedEdges());
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    for (const NodeId v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

// Records a one-worker walk row of `steps` steps per pass.
void AddWalkRow(const std::string& name, const std::string& variant, int runs,
                double median_ms, double steps) {
  ResultRow row;
  row.name = name;
  row.kind = "walk";
  row.variant = variant;
  row.median_ms = median_ms;
  row.threads = 1;
  row.runs = runs;
  row.unit = "steps";
  row.rate_per_sec = steps / (median_ms / 1000.0);
  PrintRow(row);
  g_rows.push_back(std::move(row));
}

// Times the PathSampling pattern over the edge stream via one-step
// `step(v, rng) -> next`, accumulating endpoints into a checksum so the
// loops cannot be dead-code eliminated. All variants consume one RNG draw
// per step, so they walk identical trajectories; the returned per-pass
// checksum lets main() assert the decode variants really did.
template <typename StepFn>
uint64_t RecordPathWalkRow(const std::string& name, const std::string& variant,
                           const std::vector<std::pair<NodeId, NodeId>>& edges,
                           int runs, const StepFn& step) {
  uint64_t pass_checksum = 0;
  auto pass = [&] {
    Rng rng(99);
    uint64_t local = 0;
    for (const auto& [u, v] : edges) {
      for (uint64_t a = 0; a < kAttemptsPerEdge; ++a) {
        const uint64_t s = rng.UniformInt(kPathWindow);
        NodeId x = u;
        for (uint64_t k = 0; k < s; ++k) x = step(x, rng);
        NodeId y = v;
        for (uint64_t k = s + 1; k < kPathWindow; ++k) y = step(y, rng);
        local += x + y;
      }
    }
    pass_checksum = local;
  };
  double median_ms = 0.0;
  {
    SequentialRegion guard;
    median_ms = MedianMs(runs, pass);
  }
  AddWalkRow(name, variant, runs, median_ms,
             static_cast<double>(edges.size()) *
                 static_cast<double>(kAttemptsPerEdge) *
                 static_cast<double>(kPathWindow - 1));
  return pass_checksum;
}

constexpr double WalkPassSteps(uint64_t num_starts) {
  return static_cast<double>(num_starts * kWalksPerStart * kStepsPerWalk);
}

// One pass of kWalksPerStart walks of kStepsPerWalk steps from every start
// via `fn(start, steps, rng) -> end`. Returns the endpoints' sum, a
// checksum that keeps the walk loops from being dead-code eliminated.
template <typename Fn>
uint64_t WalkPass(const std::vector<NodeId>& starts, const Fn& fn) {
  Rng rng(99);
  uint64_t sum = 0;
  for (const NodeId s : starts) {
    for (uint64_t a = 0; a < kWalksPerStart; ++a) {
      sum += fn(s, kStepsPerWalk, rng);
    }
  }
  return sum;
}

// Times WalkPass over `fn` (median of `runs` passes after a warmup) on one
// worker and records the row; returns the pass checksum.
template <typename Fn>
uint64_t RecordWalkRow(const std::string& name, const std::string& variant,
                       const std::vector<NodeId>& starts, int runs,
                       const Fn& fn) {
  uint64_t checksum = 0;
  double median_ms = 0.0;
  {
    SequentialRegion guard;
    median_ms = MedianMs(runs, [&] { checksum = WalkPass(starts, fn); });
  }
  AddWalkRow(name, variant, runs, median_ms, WalkPassSteps(starts.size()));
  return checksum;
}

// Two walk variants timed in alternating passes on one worker — a, b, a,
// b, ... after one warmup pass each — so host drift lands on both alike.
// Records both rows, each the median of its `pairs` passes, and returns the
// per-pair ratios a/b; the pass checksums go to *sum_a and *sum_b.
template <typename FnA, typename FnB>
std::vector<double> RecordAlternatingWalkRows(
    const std::vector<NodeId>& starts, int pairs, const std::string& name_a,
    const std::string& variant_a, const FnA& a, const std::string& name_b,
    const std::string& variant_b, const FnB& b, uint64_t* sum_a,
    uint64_t* sum_b) {
  std::vector<double> ms_a, ms_b, ratios;
  {
    SequentialRegion guard;
    *sum_a = WalkPass(starts, a);
    *sum_b = WalkPass(starts, b);
    for (int p = 0; p < pairs; ++p) {
      Timer time_a;
      *sum_a = WalkPass(starts, a);
      ms_a.push_back(time_a.Millis());
      Timer time_b;
      *sum_b = WalkPass(starts, b);
      ms_b.push_back(time_b.Millis());
      ratios.push_back(ms_a.back() / ms_b.back());
    }
  }
  std::sort(ms_a.begin(), ms_a.end());
  std::sort(ms_b.begin(), ms_b.end());
  AddWalkRow(name_a, variant_a, pairs, ms_a[ms_a.size() / 2],
             WalkPassSteps(starts.size()));
  AddWalkRow(name_b, variant_b, pairs, ms_b[ms_b.size() / 2],
             WalkPassSteps(starts.size()));
  std::sort(ratios.begin(), ratios.end());
  return ratios;
}

// Decode-cache tier counters of a hub-pinned walk row, captured before the
// measuring context dies (its destructor drains them into the global
// metrics registry).
struct WalkCacheStats {
  uint64_t pinned_vertices = 0;
  uint64_t pinned_entries = 0;
  uint64_t pinned_bytes = 0;
  uint64_t pin_hits = 0;
  uint64_t decode_misses = 0;
};

// ------------------------------------------- cross-variant walk checksums
// Proof rows for the "pure decode cache" contract: every combination of
// tier {csr, compressed, pinned} and thread count {1, kChecksumThreads} must
// draw the identical walk stream. The CSR walk over the graph the compressed
// one was built from is the independent reference; the compressed tier
// decodes every draw through Neighbor() (inline and SIMD-decoder arms), the
// pinned tier serves hub draws from the pinned pool. Each start's RNG is
// seeded from its index alone and its trajectory folds into a per-start
// hash; the per-start hashes XOR-reduce, so the total is independent of
// which thread walked which start and in what order. Any divergence is a
// correctness bug (not a perf regression) and fails the run. Threads here
// are plain std::threads with their own contexts — this exercises real
// cross-thread context independence even when the process pool has a
// single worker.
enum class Tier { kCsr, kCompressed, kPinned };

constexpr int kChecksumThreads = 4;
constexpr uint64_t kChecksumSteps = 16;

struct ChecksumEntry {
  const char* tier;  // "csr" | "compressed" | "pinned"
  int threads = 1;
  uint64_t value = 0;
};

uint64_t ChecksumWalks(const CsrGraph& csr, const CompressedGraph& g,
                       Tier tier, const WalkAccel<CompressedGraph>& accel,
                       const std::vector<NodeId>& starts, int nthreads) {
  auto shard = [&](int t, int nt) -> uint64_t {
    WalkContext<CompressedGraph> pinned_ctx(accel);
    uint64_t local = 0;
    for (uint64_t s = static_cast<uint64_t>(t); s < starts.size();
         s += static_cast<uint64_t>(nt)) {
      Rng rng(HashCombine64(0x5EEDC0DE, s));
      NodeId v = starts[s];
      uint64_t h = 0;
      for (uint64_t k = 0; k < kChecksumSteps; ++k) {
        const uint64_t i = rng.UniformInt(g.Degree(v));
        switch (tier) {
          case Tier::kCsr:
            v = csr.Neighbor(v, i);
            break;
          case Tier::kCompressed:
            v = g.Neighbor(v, i);
            break;
          case Tier::kPinned:
            v = pinned_ctx.Neighbor(g, v, i);
            break;
        }
        h = HashCombine64(h, v);
      }
      local ^= h;
    }
    return local;
  };
  if (nthreads <= 1) return shard(0, 1);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&shard, &total, t, nthreads] {
      total.fetch_xor(shard(t, nthreads), std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) th.join();
  return total.load(std::memory_order_relaxed);
}

// Runs the full matrix. Exits nonzero on any divergence.
std::vector<ChecksumEntry> RunChecksumMatrix(
    const CsrGraph& csr, const CompressedGraph& g,
    const WalkAccel<CompressedGraph>& accel,
    const std::vector<NodeId>& starts) {
  struct TierCase {
    Tier tier;
    const char* name;
  };
  std::vector<ChecksumEntry> entries;
  for (const TierCase& tc : {TierCase{Tier::kCsr, "csr"},
                             TierCase{Tier::kCompressed, "compressed"},
                             TierCase{Tier::kPinned, "pinned"}}) {
    for (const int nthreads : {1, kChecksumThreads}) {
      ChecksumEntry e;
      e.tier = tc.name;
      e.threads = nthreads;
      e.value = ChecksumWalks(csr, g, tc.tier, accel, starts, nthreads);
      entries.push_back(e);
    }
  }
  bool all_equal = true;
  for (const ChecksumEntry& e : entries) {
    if (e.value != entries[0].value) {
      all_equal = false;
      std::fprintf(stderr,
                   "walk checksum diverged: tier=%s threads=%d "
                   "got %016llx want %016llx\n",
                   e.tier, e.threads,
                   static_cast<unsigned long long>(e.value),
                   static_cast<unsigned long long>(entries[0].value));
    }
  }
  std::printf("  checksum matrix: %zu variants, %s (value %016llx)\n",
              entries.size(), all_equal ? "all equal" : "DIVERGED",
              static_cast<unsigned long long>(entries[0].value));
  if (!all_equal) std::exit(1);
  return entries;
}

// ------------------------------------------------------------------- JSON

void WriteJson(const std::string& path, const CsrGraph& g,
               const CsrGraph& g_xllc, const CompressedGraph& cg_xllc,
               const SparsifierResult& direct_e2e,
               const SparsifierResult& combiner_e2e,
               const WalkCacheStats& cache, const WalkCacheStats& xllc_cache,
               const std::vector<ChecksumEntry>& checksums,
               const std::vector<double>& xllc_ratios) {
  // Atomic write-tmp -> fsync -> rename: a crash or disk-full mid-write
  // never replaces a previous baseline file with torn JSON.
  AtomicFileWriter writer;
  if (!writer.Open(path).ok()) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::FILE* f = writer.stream();
  const char* sha = std::getenv("LIGHTNE_GIT_SHA");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"lightne-sampler-v8\",\n");
  std::fprintf(f, "  \"schema_version\": 8,\n");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", sha ? sha : "unknown");
  std::fprintf(f, "  \"workers\": %d,\n", NumWorkers());
  std::fprintf(f, "  \"bench_scale\": %.3f,\n", BenchScale());
  std::fprintf(f, "  \"timestamp_unix\": %lld,\n",
               static_cast<long long>(
                   std::time(nullptr)));  // lint-ok: random (timestamp
                                          // field, not an RNG seed)
  // Which varint decode arm the CPU dispatch resolved to on this machine.
  std::fprintf(f, "  \"decode\": {\"backend\": \"%s\"},\n",
               VarintBackendName());
  std::fprintf(f,
               "  \"graph\": {\"vertices\": %llu, \"directed_edges\": %llu},\n",
               static_cast<unsigned long long>(g.NumVertices()),
               static_cast<unsigned long long>(g.NumDirectedEdges()));
  // The out-of-LLC graph the *_xllc rows walk: the CSR adjacency alone is
  // far beyond any cache level, so those rows measure DRAM-bound stepping.
  std::fprintf(f,
               "  \"xllc_graph\": {\"vertices\": %llu, \"directed_edges\": "
               "%llu, \"csr_bytes\": %llu, \"compressed_bytes\": %llu},\n",
               static_cast<unsigned long long>(g_xllc.NumVertices()),
               static_cast<unsigned long long>(g_xllc.NumDirectedEdges()),
               static_cast<unsigned long long>(g_xllc.SizeBytes()),
               static_cast<unsigned long long>(cg_xllc.SizeBytes()));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const ResultRow& r = g_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"kind\": \"%s\", \"variant\": "
                 "\"%s\", \"threads\": %d, \"runs\": %d, \"median_ms\": "
                 "%.4f, \"rate_per_sec\": %.1f, \"unit\": \"%s\"}%s\n",
                 r.name.c_str(), r.kind.c_str(), r.variant.c_str(), r.threads,
                 r.runs, r.median_ms, r.rate_per_sec, r.unit.c_str(),
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // End-to-end run merging at the paper's window (w=10, with downsampling),
  // from two full BuildSparsifier runs.
  const double hit_rate =
      combiner_e2e.samples_accepted > 0
          ? static_cast<double>(combiner_e2e.combiner_hits) /
                static_cast<double>(combiner_e2e.samples_accepted)
          : 0.0;
  std::fprintf(f, "  \"combiner\": {\n");
  std::fprintf(f, "    \"samples_accepted\": %llu,\n",
               static_cast<unsigned long long>(combiner_e2e.samples_accepted));
  std::fprintf(f, "    \"hit_rate\": %.4f,\n", hit_rate);
  std::fprintf(f, "    \"combiner_hits\": %llu,\n",
               static_cast<unsigned long long>(combiner_e2e.combiner_hits));
  std::fprintf(f, "    \"direct_table_upserts\": %llu,\n",
               static_cast<unsigned long long>(direct_e2e.table_upserts));
  std::fprintf(f, "    \"combiner_table_upserts\": %llu\n",
               static_cast<unsigned long long>(combiner_e2e.table_upserts));
  std::fprintf(f, "  },\n");
  // The contended revalidation of UpsertBatch's prefetch pipeline: medians
  // of the two 4-thread shared-table rows plus the honest hardware context
  // (oversubscribed when hw_cores < threads).
  const double contended_direct = FindMs("sampler_contended_direct_4t");
  const double contended_batch = FindMs("sampler_contended_batch_4t");
  std::fprintf(f, "  \"contended_combiner\": {\n");
  std::fprintf(f, "    \"threads\": %d,\n", kContendedThreads);
  std::fprintf(f, "    \"hw_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"ops_per_thread\": %llu,\n",
               static_cast<unsigned long long>(ContendedOpsPerThread()));
  std::fprintf(f, "    \"batch_size\": %u,\n", kContendedBatch);
  std::fprintf(f, "    \"direct_median_ms\": %.4f,\n", contended_direct);
  std::fprintf(f, "    \"batch_median_ms\": %.4f,\n", contended_batch);
  std::fprintf(f, "    \"batch_vs_direct\": %.3f\n",
               (contended_direct > 0 && contended_batch > 0)
                   ? contended_direct / contended_batch
                   : -1.0);
  std::fprintf(f, "  },\n");
  // Tier traffic of the two hub-pinned rows: the cache-resident RMAT-14 row
  // and the out-of-LLC RMAT-20 row (the regime the block-granular knapsack
  // was built for — compare pinned_vertices/pinned_entries across the two).
  auto write_cache = [&](const char* key, const WalkCacheStats& c,
                         uint64_t pin_budget) {
    const uint64_t draws = c.pin_hits + c.decode_misses;
    std::fprintf(f, "  \"%s\": {\n", key);
    std::fprintf(f, "    \"pin_budget_bytes\": %llu,\n",
                 static_cast<unsigned long long>(pin_budget));
    std::fprintf(f, "    \"pinned_vertices\": %llu,\n",
                 static_cast<unsigned long long>(c.pinned_vertices));
    std::fprintf(f, "    \"pinned_entries\": %llu,\n",
                 static_cast<unsigned long long>(c.pinned_entries));
    std::fprintf(f, "    \"pinned_bytes\": %llu,\n",
                 static_cast<unsigned long long>(c.pinned_bytes));
    std::fprintf(f, "    \"pin_hits\": %llu,\n",
                 static_cast<unsigned long long>(c.pin_hits));
    std::fprintf(f, "    \"decode_misses\": %llu,\n",
                 static_cast<unsigned long long>(c.decode_misses));
    std::fprintf(f, "    \"pin_hit_rate\": %.4f\n",
                 draws > 0 ? static_cast<double>(c.pin_hits) /
                                 static_cast<double>(draws)
                           : 0.0);
    std::fprintf(f, "  },\n");
  };
  write_cache("walk_cache", cache, kPinBudget);
  write_cache("walk_cache_xllc", xllc_cache, kPinBudgetXllc);
  // The out-of-LLC naive/pinned time ratio of each alternating pass pair
  // (sorted): the speedup below is their median.
  const double xllc_ratio = xllc_ratios[xllc_ratios.size() / 2];
  std::fprintf(f, "  \"walk_pairs_xllc\": {\n");
  std::fprintf(f, "    \"pairs\": %zu,\n", xllc_ratios.size());
  std::fprintf(f, "    \"ratio_median\": %.3f,\n", xllc_ratio);
  std::fprintf(f, "    \"ratio_min\": %.3f,\n", xllc_ratios.front());
  std::fprintf(f, "    \"ratio_max\": %.3f\n", xllc_ratios.back());
  std::fprintf(f, "  },\n");
  // The cross-variant checksum matrix (values as hex strings — JSON numbers
  // cannot carry 64 bits exactly). all_equal is the committed determinism
  // claim; main() already aborted if it does not hold.
  std::fprintf(f, "  \"checksums\": {\n");
  std::fprintf(f, "    \"steps_per_start\": %llu,\n",
               static_cast<unsigned long long>(kChecksumSteps));
  std::fprintf(f, "    \"all_equal\": true,\n");
  std::fprintf(f, "    \"value\": \"%016llx\",\n",
               static_cast<unsigned long long>(
                   checksums.empty() ? 0 : checksums[0].value));
  std::fprintf(f, "    \"entries\": [\n");
  for (size_t i = 0; i < checksums.size(); ++i) {
    const ChecksumEntry& e = checksums[i];
    std::fprintf(f,
                 "      {\"tier\": \"%s\", \"threads\": %d, \"value\": "
                 "\"%016llx\"}%s\n",
                 e.tier, e.threads,
                 static_cast<unsigned long long>(e.value),
                 i + 1 < checksums.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  },\n");
  auto ratio = [&](const char* num, const char* den) {
    const double a = FindMs(num), b = FindMs(den);
    return (a > 0 && b > 0) ? a / b : -1.0;
  };
  // The acceptance ratios this repo tracks. Keys of earlier schemas are kept
  // verbatim while their rows exist, so trajectory tooling can diff across
  // schema bumps.
  std::fprintf(f, "  \"speedups\": {\n");
  std::fprintf(f, "    \"sampler_w1_combiner_vs_direct_mt\": %.3f,\n",
               ratio("sampler_w1_direct_mt", "sampler_w1_combiner_mt"));
  std::fprintf(f, "    \"sampler_w1_combiner_vs_direct_1t\": %.3f,\n",
               ratio("sampler_w1_direct_1t", "sampler_w1_combiner_1t"));
  std::fprintf(f, "    \"sampler_w10_combiner_vs_direct_mt\": %.3f,\n",
               ratio("sampler_w10_direct_mt", "sampler_w10_combiner_mt"));
  std::fprintf(f, "    \"sampler_contended_batch_vs_direct\": %.3f,\n",
               ratio("sampler_contended_direct_4t",
                     "sampler_contended_batch_4t"));
  std::fprintf(f, "    \"xadd_vs_cas_hot_4t\": %.3f,\n",
               ratio("atomic_cas_hot_4t", "atomic_xadd_hot_4t"));
  std::fprintf(f, "    \"xadd_vs_cas_spread_4t\": %.3f,\n",
               ratio("atomic_cas_spread_4t", "atomic_xadd_spread_4t"));
  std::fprintf(f, "    \"walk_pinned_vs_naive_compressed\": %.3f,\n",
               ratio("walk_compressed_naive", "walk_compressed_pinned"));
  std::fprintf(f, "    \"walk_pinned_vs_naive_xllc\": %.3f\n", xllc_ratio);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  if (!writer.Commit().ok()) {
    std::fprintf(stderr, "cannot commit %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("\nwrote %s (%zu results, pinned-vs-naive xllc %.2fx)\n",
              path.c_str(), g_rows.size(), xllc_ratio);
}

}  // namespace
}  // namespace lightne::bench

int main(int argc, char** argv) {
  using namespace lightne::bench;
  using namespace lightne;
  const std::string out = argc > 1 ? argv[1] : "BENCH_sampler.json";
  std::printf("LightNE sampler perf baseline (scale %.2f, %d workers, "
              "varint decode backend: %s)\n\n",
              BenchScale(), NumWorkers(), VarintBackendName());

  const uint64_t edges = std::max<uint64_t>(
      static_cast<uint64_t>(600000 * BenchScale()), 20000);
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(14, edges, 2026));
  const CompressedGraph cg = CompressedGraph::FromCsr(g);
  std::printf("RMAT scale 14: %u vertices, %llu directed edges\n\n",
              g.NumVertices(),
              static_cast<unsigned long long>(g.NumDirectedEdges()));

  // --- sampling ingestion (the tentpole rows) -----------------------------
  std::printf("Sampling ingestion (window=1: aggregation-bound)\n");
  // 16 samples per edge matches the paper's regime of M >> m; at window 1
  // an edge's n_e back-to-back samples share its key, so each edge's samples
  // merge into one run.
  const uint64_t m_w1 = 16 * g.NumDirectedEdges();
  RecordSamplingRow("sampler_w1_direct_1t", g, {1, false, m_w1}, true, 3);
  RecordSamplingRow("sampler_w1_combiner_1t", g, {1, true, m_w1}, true, 3);
  RecordSamplingRow("sampler_w1_direct_mt", g, {1, false, m_w1}, false, 5);
  RecordSamplingRow("sampler_w1_combiner_mt", g, {1, true, m_w1}, false, 5);

  std::printf("\nSampling ingestion (window=10: full pipeline mix)\n");
  const uint64_t m_w10 = 2 * g.NumDirectedEdges();
  RecordSamplingRow("sampler_w10_direct_mt", g, {10, false, m_w10}, false, 3);
  RecordSamplingRow("sampler_w10_combiner_mt", g, {10, true, m_w10}, false, 3);

  std::printf("\nContended shared-table upserts and atomic adds (%d plain "
              "threads, %u hw cores)\n",
              kContendedThreads, std::thread::hardware_concurrency());
  {
    // Sized so the full hot+cold keyspace fits without resize; shared by
    // both rows and cleared between runs (single-threaded at that point).
    ConcurrentHashTable<uint64_t> contended_table(kContendedKeyspace + 4096);
    RecordContendedRow("sampler_contended_direct_4t", /*batched=*/false,
                       contended_table, 3);
    RecordContendedRow("sampler_contended_batch_4t", /*batched=*/true,
                       contended_table, 3);
  }
  const auto xadd = [](std::atomic<uint64_t>& c) {
    AtomicFetchAdd(c, uint64_t{1});
  };
  const auto cas = [](std::atomic<uint64_t>& c) {
    CasLoopFetchAdd(c, uint64_t{1});
  };
  RecordAtomicRow("atomic_xadd_hot_4t", "xadd_hot", 1, 5, xadd);
  RecordAtomicRow("atomic_cas_hot_4t", "cas_hot", 1, 5, cas);
  RecordAtomicRow("atomic_xadd_spread_4t", "xadd_spread", kSpreadCounters, 5,
                  xadd);
  RecordAtomicRow("atomic_cas_spread_4t", "cas_spread", kSpreadCounters, 5,
                  cas);

  // --- walk-step primitives (cache-resident graph) ------------------------
  std::printf(
      "\nWalk steps (single thread; compressed rows replay the "
      "PathSampling edge stream)\n");
  const uint64_t num_starts = std::max<uint64_t>(
      static_cast<uint64_t>(40000 * BenchScale()), 2000);
  const std::vector<NodeId> starts = WalkStarts(g, num_starts);

  RecordWalkRow("walk_csr", "csr", starts, 5,
                [&](NodeId s, uint64_t steps, Rng& rng) {
                  WalkContext<CsrGraph> ctx;
                  return WeightedRandomWalk(g, ctx, s, steps, rng);
                });
  // Compressed rows replay PathSampling's edge-stream pattern so the pin
  // tier is measured on the traffic it was built for. Both variants must
  // produce the same per-pass checksum (pinning is a pure decode cache).
  const std::vector<std::pair<NodeId, NodeId>> path_edges = PathEdges(g);
  const uint64_t sum_naive =
      RecordPathWalkRow("walk_compressed_naive", "naive", path_edges, 3,
                        [&](NodeId v, Rng& rng) {
                          return cg.Neighbor(v, rng.UniformInt(cg.Degree(v)));
                        });
  WalkCacheStats cache_stats;
  {
    const WalkAccel<CompressedGraph> accel = MakeWalkAccel(cg, kPinBudget);
    WalkContext<CompressedGraph> ctx(accel);
    const uint64_t sum = RecordPathWalkRow(
        "walk_compressed_pinned", "pinned", path_edges, 5,
        [&](NodeId v, Rng& rng) {
          return SampleNeighborProportional(cg, ctx, v, rng);
        });
    cache_stats.pinned_vertices = accel.pinned.pinned_vertices();
    cache_stats.pinned_entries = accel.pinned.pinned_entries();
    cache_stats.pinned_bytes = accel.pinned.pinned_bytes();
    cache_stats.pin_hits = ctx.pin_hits();
    cache_stats.decode_misses = ctx.decode_misses();
    const double draws =
        static_cast<double>(ctx.pin_hits() + ctx.decode_misses());
    std::printf(
        "  (pinned %llu vertices / %.1f MiB, pin hit rate %.3f over %.0f "
        "draws)\n",
        static_cast<unsigned long long>(accel.pinned.pinned_vertices()),
        static_cast<double>(accel.pinned.pinned_bytes()) / (1 << 20),
        draws > 0 ? static_cast<double>(ctx.pin_hits()) / draws : 0.0, draws);
    if (sum != sum_naive) {
      std::fprintf(stderr, "pinned checksum diverged from naive decode\n");
      return 1;
    }
  }

  // --- cross-variant walk checksums ---------------------------------------
  std::printf("\nCross-variant walk checksums "
              "({csr, compressed, pinned} x {1, %d threads})\n",
              kChecksumThreads);
  std::vector<ChecksumEntry> checksums;
  {
    const WalkAccel<CompressedGraph> accel = MakeWalkAccel(cg, kPinBudget);
    checksums = RunChecksumMatrix(g, cg, accel, starts);
  }

  // --- out-of-LLC walks ---------------------------------------------------
  // RMAT scale 20: the adjacency no longer fits the fast cache levels, so a
  // walk step is a serial chain of dependent misses (degree -> draw ->
  // neighbor) — the regime where decoding compressed blocks competes
  // against cache-missing CSR reads instead of L1 hits. The naive row
  // resolves every draw with a full per-draw decode; the engine rows run
  // the same walks (same rng stream) through sequential WeightedRandomWalk
  // calls on one WalkContext, so their speedup measures the pinned tier.
  // Endpoint checksums assert every row resolved bit-identical walks.
  std::printf("\nWalk steps, out-of-LLC graph (single thread)\n");
  const uint64_t xllc_edges = std::max<uint64_t>(
      static_cast<uint64_t>(6000000 * BenchScale()), 200000);
  const CsrGraph g_xllc =
      CsrGraph::FromEdges(GenerateRmat(20, xllc_edges, 2026));
  const CompressedGraph cg_xllc = CompressedGraph::FromCsr(g_xllc);
  std::printf("RMAT scale 20: %u vertices, %llu directed edges "
              "(csr %.1f MiB, compressed %.1f MiB)\n",
              g_xllc.NumVertices(),
              static_cast<unsigned long long>(g_xllc.NumDirectedEdges()),
              static_cast<double>(g_xllc.SizeBytes()) / (1 << 20),
              static_cast<double>(cg_xllc.SizeBytes()) / (1 << 20));
  const std::vector<NodeId> xstarts = WalkStarts(g_xllc, num_starts);
  {
    WalkContext<CsrGraph> ctx;
    RecordWalkRow("walk_csr_xllc", "csr", xstarts, 3,
                  [&](NodeId s, uint64_t steps, Rng& rng) {
                    return WeightedRandomWalk(g_xllc, ctx, s, steps, rng);
                  });
  }
  WalkCacheStats xllc_cache_stats;
  std::vector<double> xllc_ratios;
  {
    const WalkAccel<CompressedGraph> accel =
        MakeWalkAccel(cg_xllc, kPinBudgetXllc);
    WalkContext<CompressedGraph> ctx(accel);
    uint64_t sum_naive = 0, sum_pinned = 0;
    xllc_ratios = RecordAlternatingWalkRows(
        xstarts, kXllcPairs, "walk_compressed_naive_xllc", "naive",
        [&](NodeId s, uint64_t steps, Rng& rng) {
          NodeId v = s;
          for (uint64_t k = 0; k < steps; ++k) {
            v = cg_xllc.Neighbor(v, rng.UniformInt(cg_xllc.Degree(v)));
          }
          return v;
        },
        "walk_compressed_pinned_xllc", "pinned",
        [&](NodeId s, uint64_t steps, Rng& rng) {
          return WeightedRandomWalk(cg_xllc, ctx, s, steps, rng);
        },
        &sum_naive, &sum_pinned);
    xllc_cache_stats.pinned_vertices = accel.pinned.pinned_vertices();
    xllc_cache_stats.pinned_entries = accel.pinned.pinned_entries();
    xllc_cache_stats.pinned_bytes = accel.pinned.pinned_bytes();
    xllc_cache_stats.pin_hits = ctx.pin_hits();
    xllc_cache_stats.decode_misses = ctx.decode_misses();
    const double draws =
        static_cast<double>(ctx.pin_hits() + ctx.decode_misses());
    std::printf(
        "  (pinned %llu vertices / %llu entries / %.1f MiB, pin hit rate "
        "%.3f over %.0f draws; naive/pinned per pair: median %.3f, "
        "min %.3f, max %.3f over %zu pairs)\n",
        static_cast<unsigned long long>(accel.pinned.pinned_vertices()),
        static_cast<unsigned long long>(accel.pinned.pinned_entries()),
        static_cast<double>(accel.pinned.pinned_bytes()) / (1 << 20),
        draws > 0 ? static_cast<double>(ctx.pin_hits()) / draws : 0.0, draws,
        xllc_ratios[xllc_ratios.size() / 2], xllc_ratios.front(),
        xllc_ratios.back(), xllc_ratios.size());
    if (sum_pinned != sum_naive) {
      std::fprintf(stderr, "xllc pinned checksum diverged from naive\n");
      return 1;
    }
  }

  // --- weighted draws -----------------------------------------------------
  // Same RMAT-14 topology with weights 1 + (u+v) % 8, skewed enough that
  // the inverse-CDF search depth matters on hubs.
  std::printf("\nWeighted draws (single thread)\n");
  WeightedEdgeList wlist;
  wlist.num_vertices = g.NumVertices();
  // Sequential edge walk: wlist.Add appends to one vector, so the parallel
  // MapEdges would race on it at more than one worker.
  for (const auto& [u, v] : path_edges) {
    wlist.Add(u, v, 1.0f + static_cast<float>((u + v) % 8));
  }
  const WeightedCsrGraph wg = WeightedCsrGraph::FromEdges(std::move(wlist));
  {
    WalkContext<WeightedCsrGraph> ctx;
    // Same vertex ids as `starts`, all of degree >= 1.
    RecordWalkRow("walk_weighted_prefix", "prefix_scan", starts, 3,
                  [&](NodeId s, uint64_t steps, Rng& rng) {
                    return WeightedRandomWalk(wg, ctx, s, steps, rng);
                  });
  }

  // --- end-to-end run-merging accounting (window=10, downsampling on) -----
  std::printf("\nEnd-to-end accounting (BuildSparsifier, w=10)\n");
  SparsifierOptions e2e;
  e2e.num_samples = m_w10;
  e2e.window = 10;
  e2e.seed = 5;
  e2e.combiner = false;
  auto direct_e2e = BuildSparsifier(g, e2e);
  e2e.combiner = true;
  auto combiner_e2e = BuildSparsifier(g, e2e);
  if (!direct_e2e.ok() || !combiner_e2e.ok()) {
    std::fprintf(stderr, "end-to-end sparsifier build failed\n");
    return 1;
  }
  std::printf("  accepted %llu, combiner hit rate %.3f, upserts %llu -> %llu\n",
              static_cast<unsigned long long>(combiner_e2e->samples_accepted),
              combiner_e2e->samples_accepted
                  ? static_cast<double>(combiner_e2e->combiner_hits) /
                        static_cast<double>(combiner_e2e->samples_accepted)
                  : 0.0,
              static_cast<unsigned long long>(direct_e2e->table_upserts),
              static_cast<unsigned long long>(combiner_e2e->table_upserts));

  WriteJson(out, g, g_xllc, cg_xllc, *direct_e2e, *combiner_e2e, cache_stats,
            xllc_cache_stats, checksums, xllc_ratios);
  return 0;
}
