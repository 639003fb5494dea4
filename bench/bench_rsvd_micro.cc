// Microbenchmarks for the randomized SVD substrate (§4.3, Algo 3): end-to-
// end rSVD at several sizes/ranks, its component kernels (SPMM, tall-skinny
// QR, q x q eigensolve), and the accuracy/time effect of power iterations.
#include <benchmark/benchmark.h>

#include "graph/types.h"
#include "la/kernels.h"
#include "la/qr.h"
#include "la/rsvd.h"
#include "la/sparse.h"
#include "la/svd.h"
#include "util/random.h"

namespace lightne {
namespace {

SparseMatrix RandomSymmetricSparse(uint64_t n, uint64_t nnz_per_row,
                                   uint64_t seed) {
  std::vector<std::pair<uint64_t, double>> entries;
  entries.reserve(2 * n * nnz_per_row);
  Rng rng(seed);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t k = 0; k < nnz_per_row; ++k) {
      const NodeId j = static_cast<NodeId>(rng.UniformInt(n));
      const double v = rng.Uniform() + 0.1;
      entries.push_back({PackEdge(static_cast<NodeId>(i), j), v});
      entries.push_back({PackEdge(j, static_cast<NodeId>(i)), v});
    }
  }
  return SparseMatrix::FromEntries(n, n, std::move(entries));
}

void BM_RandomizedSvd(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t rank = static_cast<uint64_t>(state.range(1));
  SparseMatrix a = RandomSymmetricSparse(n, 16, 3);
  RandomizedSvdOptions opt;
  opt.rank = rank;
  opt.symmetric = true;
  for (auto _ : state) {
    auto r = RandomizedSvd(a, opt).value();
    benchmark::DoNotOptimize(r.sigma.data());
  }
  state.SetLabel("n=" + std::to_string(n) + " d=" + std::to_string(rank) +
                 " nnz=" + std::to_string(a.nnz()));
}
BENCHMARK(BM_RandomizedSvd)
    ->Args({4096, 32})
    ->Args({4096, 128})
    ->Args({65536, 32})
    ->Unit(benchmark::kMillisecond);

void BM_PowerIterations(benchmark::State& state) {
  SparseMatrix a = RandomSymmetricSparse(16384, 16, 5);
  RandomizedSvdOptions opt;
  opt.rank = 64;
  opt.symmetric = true;
  opt.power_iters = static_cast<uint64_t>(state.range(0));
  // Label from a probe run (kept outside the timed loop; a plain local
  // assigned in the loop is eliminated by GCC despite DoNotOptimize).
  state.SetLabel("sigma_max=" +
                 std::to_string(RandomizedSvd(a, opt).value().sigma[0]));
  for (auto _ : state) {
    auto r = RandomizedSvd(a, opt).value();
    benchmark::DoNotOptimize(r.sigma.data());
  }
}
BENCHMARK(BM_PowerIterations)->Arg(0)->Arg(1)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_Spmm(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  SparseMatrix a = RandomSymmetricSparse(n, 16, 7);
  Matrix x = Matrix::Gaussian(n, 64, 9);
  for (auto _ : state) {
    Matrix y = a.Multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 64);
}
BENCHMARK(BM_Spmm)->Arg(16384)->Arg(262144)->Unit(benchmark::kMillisecond);

// Orthonormalize (CholeskyQR2) at the pipeline's three panel shapes:
// rmat-small (2^14 x 138), serve-topk (2^16 x 74), rmat-compressed
// (2^16 x 42).
void BM_TallSkinnyQr(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t q = static_cast<uint64_t>(state.range(1));
  Matrix a = Matrix::Gaussian(n, q, 11);
  for (auto _ : state) {
    Matrix copy = a;
    Orthonormalize(&copy);
    benchmark::DoNotOptimize(copy.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("n=" + std::to_string(n) + " q=" + std::to_string(q));
}
BENCHMARK(BM_TallSkinnyQr)
    ->Args({16384, 138})
    ->Args({65536, 74})
    ->Args({65536, 42})
    ->Unit(benchmark::kMillisecond);

void BM_SymmetricEigen(benchmark::State& state) {
  const uint64_t q = static_cast<uint64_t>(state.range(0));
  const Matrix c = Matrix::Gaussian(q, q, 13);
  const std::vector<double> gram = kernels::GemmTnDouble(c);
  for (auto _ : state) {
    SymmetricEigenResult r = SymmetricEigen(gram, q).value();
    benchmark::DoNotOptimize(r.values.data());
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(42)->Arg(74)->Arg(138);

}  // namespace
}  // namespace lightne

BENCHMARK_MAIN();
