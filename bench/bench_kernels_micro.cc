// Microbenchmarks for the bulk-parallel substrate (the GBBS-style layer):
// parallel_for/reduce/scan/sort throughput, per-edge path-sampling rate,
// and spectral-propagation SPMM-operator throughput.
#include <benchmark/benchmark.h>

#include "core/path_sampling.h"
#include "core/spectral_propagation.h"
#include "data/generators.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "parallel/parallel_for.h"
#include "parallel/reduce.h"
#include "parallel/scan.h"
#include "parallel/sort.h"
#include "util/random.h"

namespace lightne {
namespace {

void BM_ParallelReduce(benchmark::State& state) {
  const uint64_t n = 1u << 24;
  for (auto _ : state) {
    uint64_t s = ParallelSum<uint64_t>(0, n, [](uint64_t i) { return i; });
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelReduce);

void BM_ParallelScan(benchmark::State& state) {
  const uint64_t n = 1u << 24;
  std::vector<uint64_t> v(n, 1);
  for (auto _ : state) {
    state.PauseTiming();
    std::fill(v.begin(), v.end(), 1);
    state.ResumeTiming();
    uint64_t total = ParallelScanExclusive(v.data(), n);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelScan);

void BM_ParallelSort(benchmark::State& state) {
  const uint64_t n = 1u << 22;
  std::vector<uint64_t> base(n);
  Rng rng(3);
  for (auto& x : base) x = rng.Next();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> v = base;
    state.ResumeTiming();
    ParallelSort(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelSort)->Unit(benchmark::kMillisecond);

template <typename G>
const G& BenchGraph();

template <>
const CsrGraph& BenchGraph<CsrGraph>() {
  static const CsrGraph* g =
      new CsrGraph(CsrGraph::FromEdges(GenerateRmat(16, 1000000, 5)));
  return *g;
}

template <>
const CompressedGraph& BenchGraph<CompressedGraph>() {
  static const CompressedGraph* g = new CompressedGraph(
      CompressedGraph::FromCsr(BenchGraph<CsrGraph>(), 64));
  return *g;
}

template <typename G>
void BM_PathSampling(benchmark::State& state) {
  const G& g = BenchGraph<G>();
  const uint64_t samples = 1u << 18;
  for (auto _ : state) {
    std::atomic<uint64_t> sink{0};
    ParallelFor(0, samples, [&](uint64_t i) {
      Rng rng = ItemRng(11, i);
      NodeId u = 0;
      while (g.Degree(u) == 0) {
        u = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
      }
      NodeId v = g.Neighbor(u, rng.UniformInt(g.Degree(u)));
      auto [a, b] = PathSample(g, u, v, 1 + rng.UniformInt(10), rng);
      sink.fetch_add(a + b, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_PathSampling<CsrGraph>)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PathSampling<CompressedGraph>)->Unit(benchmark::kMillisecond);

// The propagation operator's row sweeps: the order-2 filter (Mop twice,
// then A + I) without smoothing, operator build included.
void BM_PropagationOperator(benchmark::State& state) {
  const CsrGraph& g = BenchGraph<CsrGraph>();
  Matrix x = Matrix::Gaussian(g.NumVertices(), 64, 3);
  SpectralPropagationOptions opt;
  opt.order = 2;
  opt.svd_smoothing = false;
  for (auto _ : state) {
    Matrix y = SpectralPropagate(g, x, opt).value();
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * g.NumDirectedEdges() * 64);
}
BENCHMARK(BM_PropagationOperator)->Unit(benchmark::kMillisecond);

void BM_CompressedEncode(benchmark::State& state) {
  const CsrGraph& g = BenchGraph<CsrGraph>();
  for (auto _ : state) {
    CompressedGraph cg = CompressedGraph::FromCsr(g, 64);
    benchmark::DoNotOptimize(cg.SizeBytes());
  }
  state.SetItemsProcessed(state.iterations() * g.NumDirectedEdges());
}
BENCHMARK(BM_CompressedEncode)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lightne

BENCHMARK_MAIN();
