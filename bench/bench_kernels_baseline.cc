// Machine-readable kernel perf baseline.
//
// Runs the dense/sparse kernel layer (naive reference vs blocked, 1 worker
// vs pool), panel orthonormalization (CholeskyQR2 vs the Householder
// fallback), the q x q symmetric eigensolve of the rSVD tail, the Chebyshev
// filter, plus rSVD end-to-end at a few fixed sizes and writes a JSON
// trajectory artifact (default BENCH_kernels.json, overridable as argv[1]).
// Every perf PR re-runs `scripts/bench_baseline.sh` and commits the result,
// so regressions and wins are visible in version control; scripts/check.sh
// runs a reduced-scale smoke of this binary and validates the JSON schema.
//
// Row semantics: median-of-N wall ms after one warmup, GFLOP/s where the
// kernel has a closed-form FLOP count, thread count actually used, and the
// git sha (LIGHTNE_GIT_SHA, exported by the wrapper script). Sizes honor
// LIGHTNE_BENCH_SCALE with a floor so the smoke run still exercises every
// code path. The two-arm kernels' pipeline-shape rows run on the arm the
// host dispatches to (`simd_arm` at the top level) and again, as `_generic`
// rows, under kernels::GenericSimdRegion; on a host without AVX2 both are
// the generic arm.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/spectral_propagation.h"
#include "data/generators.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/qr.h"
#include "la/rsvd.h"
#include "la/sparse.h"
#include "la/svd.h"
#include "parallel/parallel_for.h"
#include "util/artifact_io.h"

namespace lightne::bench {
namespace {

uint64_t Scaled(uint64_t n, uint64_t floor_value = 64) {
  const uint64_t s = static_cast<uint64_t>(static_cast<double>(n) * BenchScale());
  return std::max(s, floor_value);
}

struct ResultRow {
  std::string name;     // stable key, e.g. "gemm_512_blocked_1t"
  std::string kernel;   // gemm | gemm_tn | spmm | qr | eig | propagation | rsvd
  std::string variant;  // naive | blocked | upper | sym | householder | ...
  int threads = 1;
  std::vector<std::pair<std::string, uint64_t>> shape;
  int runs = 0;
  double median_ms = 0.0;
  double gflops = -1.0;  // < 0 => omitted (no closed-form FLOP count)
};

std::vector<ResultRow> g_rows;
// Speedups beyond the fixed three: each two-arm row pair's ratio.
std::vector<std::pair<std::string, double>> g_arm_speedups;

template <typename Fn>
void Record(ResultRow row, double flops, int runs, bool sequential,
            const Fn& fn) {
  if (sequential) {
    SequentialRegion guard;
    row.median_ms = MedianMs(runs, fn);
    row.threads = 1;
  } else {
    row.median_ms = MedianMs(runs, fn);
    row.threads = NumWorkers();
  }
  row.runs = runs;
  if (flops > 0 && row.median_ms > 0) {
    row.gflops = flops / (row.median_ms * 1e6);
  }
  std::printf("  %-34s %4d thread(s)  %10.3f ms", row.name.c_str(),
              row.threads, row.median_ms);
  if (row.gflops >= 0) std::printf("  %8.3f GFLOP/s", row.gflops);
  std::printf("\n");
  g_rows.push_back(std::move(row));
}

// Records `row` (named <stem>_<threads>) on the dispatched arm, then as
// <stem>_generic_<threads> under kernels::GenericSimdRegion, and adds the
// speedup <stem>_avx2_vs_generic_<threads>: generic ms over dispatched ms.
template <typename Fn>
void RecordBothArms(ResultRow row, double flops, int runs, bool sequential,
                    const Fn& fn) {
  const size_t cut = row.name.rfind('_');
  const std::string stem = row.name.substr(0, cut);
  const std::string threads = row.name.substr(cut + 1);
  ResultRow generic = row;
  generic.name = stem + "_generic_" + threads;
  generic.variant += "_generic";
  Record(std::move(row), flops, runs, sequential, fn);
  const double dispatched_ms = g_rows.back().median_ms;
  {
    kernels::GenericSimdRegion guard;
    Record(std::move(generic), flops, runs, sequential, fn);
  }
  const double generic_ms = g_rows.back().median_ms;
  g_arm_speedups.push_back(
      {stem + "_avx2_vs_generic_" + threads,
       dispatched_ms > 0 ? generic_ms / dispatched_ms : -1.0});
}

double FindMs(const std::string& name) {
  for (const ResultRow& r : g_rows) {
    if (r.name == name) return r.median_ms;
  }
  return -1.0;
}

// ------------------------------------------------------------------ benches

void BenchGemm() {
  std::printf("GEMM (C = A*B, square)\n");
  for (uint64_t base : {256ull, 512ull}) {
    const uint64_t n = Scaled(base);
    Matrix a = Matrix::Gaussian(n, n, base);
    Matrix b = Matrix::Gaussian(n, n, base + 1);
    const double flops = 2.0 * n * n * n;
    const std::string tag = "gemm_" + std::to_string(base);
    auto shape = std::vector<std::pair<std::string, uint64_t>>{
        {"m", n}, {"k", n}, {"n", n}};
    Record({tag + "_naive_1t", "gemm", "naive", 1, shape}, flops, 3, true,
           [&] { Matrix c = NaiveGemm(a, b); });
    Record({tag + "_blocked_1t", "gemm", "blocked", 1, shape}, flops, 5, true,
           [&] { Matrix c = Gemm(a, b); });
    Record({tag + "_blocked_mt", "gemm", "blocked", 1, shape}, flops, 5,
           false, [&] { Matrix c = Gemm(a, b); });
  }
}

// The n x q times q x q products of CholeskyQR2 (Y R^-1) and the rSVD
// recovery at the three pipeline panel shapes: a general q x q B through
// Gemm, and an upper-triangular U through GemmUpper. GFLOP/s counts the
// nominal 2nq^2 for both, so the upper rows' rate is not kernel efficiency.
void BenchGemmPanels() {
  std::printf("GEMM (n x q times q x q, pipeline panel shapes)\n");
  for (const auto& [scale, q] : {std::pair<int, uint64_t>{14, 138},
                                 std::pair<int, uint64_t>{16, 74},
                                 std::pair<int, uint64_t>{16, 42}}) {
    const uint64_t n = Scaled(1ull << scale, 1024);
    const Matrix y = Matrix::Gaussian(n, q, scale * 1000 + q);
    const Matrix b = Matrix::Gaussian(q, q, scale * 1000 + q + 1);
    Matrix u = b;
    for (uint64_t k = 1; k < q; ++k) {
      for (uint64_t j = 0; j < k; ++j) u.At(k, j) = 0.0f;
    }
    const double flops = 2.0 * n * q * q;
    const std::string tag =
        "gemm_s" + std::to_string(scale) + "x" + std::to_string(q);
    auto shape = std::vector<std::pair<std::string, uint64_t>>{
        {"m", n}, {"k", q}, {"n", q}};
    Record({tag + "_blocked_1t", "gemm", "blocked", 1, shape}, flops, 5, true,
           [&] { Matrix c = Gemm(y, b); });
    Record({tag + "_blocked_mt", "gemm", "blocked", 1, shape}, flops, 5,
           false, [&] { Matrix c = Gemm(y, b); });
    RecordBothArms({tag + "_upper_1t", "gemm", "upper", 1, shape}, flops, 5,
                   true, [&] { Matrix c = kernels::GemmUpper(y, u); });
    RecordBothArms({tag + "_upper_mt", "gemm", "upper", 1, shape}, flops, 5,
                   false, [&] { Matrix c = kernels::GemmUpper(y, u); });
  }
}

// The Gram A^T A through GemmTnDouble at two large shapes and at the rSVD's
// panel shapes: rmat-small's 16384 x 138, serve-topk's 65536 x 74 and
// rmat-compressed's 65536 x 42. GFLOP/s counts the nominal 2 rows m^2,
// twice the flops of the j >= i half the kernel sums.
void BenchGram() {
  std::printf("GemmTnDouble (G = A^T*A, tall-skinny)\n");
  struct Size {
    uint64_t rows, d;
    bool naive;
  };
  for (const Size& s : {Size{1u << 15, 64, true}, Size{1u << 17, 128, false},
                        Size{1u << 14, 138, false}, Size{1u << 16, 74, false},
                        Size{1u << 16, 42, false}}) {
    const uint64_t rows = Scaled(s.rows, 1024);
    Matrix a = Matrix::Gaussian(rows, s.d, s.rows);
    const double flops = 2.0 * rows * s.d * s.d;
    const std::string tag =
        "gemm_tn_" + std::to_string(s.rows) + "x" + std::to_string(s.d);
    auto shape = std::vector<std::pair<std::string, uint64_t>>{
        {"rows", rows}, {"m", s.d}, {"n", s.d}};
    if (s.naive) {
      Record({tag + "_naive_1t", "gemm_tn", "naive", 1, shape}, flops, 3,
             true, [&] { auto c = NaiveGemmTN(a, a); });
    }
    RecordBothArms({tag + "_sym_1t", "gemm_tn", "sym", 1, shape}, flops, 5,
                   true, [&] { auto c = kernels::GemmTnDouble(a); });
    RecordBothArms({tag + "_sym_mt", "gemm_tn", "sym", 1, shape}, flops, 5,
                   false, [&] { auto c = kernels::GemmTnDouble(a); });
  }
}

SparseMatrix RmatSparse(int scale, uint64_t edges, uint64_t seed) {
  EdgeList list = GenerateRmat(scale, edges, seed);
  const uint64_t n = 1ull << scale;
  std::vector<std::pair<uint64_t, double>> entries;
  entries.reserve(list.edges.size() * 2);
  for (const auto& [u, v] : list.edges) {
    entries.push_back({PackEdge(u, v), 1.0});
    entries.push_back({PackEdge(v, u), 1.0});
  }
  return SparseMatrix::FromEntries(n, n, std::move(entries));
}

void BenchSpmm() {
  std::printf("SPMM (CSR * dense, RMAT)\n");
  struct Size {
    int scale;
    uint64_t edges, d;
    bool naive;
    bool arms;  // also under GenericSimdRegion
  };
  // The last two are the rSVD's products at rmat-small's shape (RMAT-14,
  // 150000 edge draws, q = 128 + 10) and serve-topk's (RMAT-16, 450000,
  // q = 64 + 10).
  for (const Size& s : {Size{14, 200000, 128, true, false},
                        Size{14, 200000, 512, true, false},
                        Size{16, 1000000, 128, false, false},
                        Size{14, 150000, 138, false, true},
                        Size{16, 450000, 74, false, true}}) {
    SparseMatrix m =
        RmatSparse(s.scale, Scaled(s.edges, 10000), 1000 + s.scale);
    Matrix x = Matrix::Gaussian(m.cols(), s.d, s.scale);
    const double flops = 2.0 * m.nnz() * s.d;
    const std::string tag =
        "spmm_s" + std::to_string(s.scale) + "x" + std::to_string(s.d);
    auto shape = std::vector<std::pair<std::string, uint64_t>>{
        {"rows", m.rows()}, {"nnz", m.nnz()}, {"d", s.d}};
    if (s.naive) {
      Record({tag + "_naive_1t", "spmm", "naive", 1, shape}, flops, 3, true,
             [&] { Matrix y = NaiveSpmm(m, x); });
    }
    const auto multiply = [&] { Matrix y = m.Multiply(x); };
    for (const bool sequential : {true, false}) {
      ResultRow row{tag + (sequential ? "_blocked_1t" : "_blocked_mt"), "spmm",
                    "blocked", 1, shape};
      if (s.arms) {
        RecordBothArms(std::move(row), flops, 5, sequential, multiply);
      } else {
        Record(std::move(row), flops, 5, sequential, multiply);
      }
    }
  }
}

void BenchQr() {
  std::printf("QR (orthonormalize an n x q panel, pipeline shapes)\n");
  struct Size {
    int scale;
    uint64_t q;
    bool householder;
  };
  // rmat-small (d=128), serve-topk (d=64), rmat-compressed (d=32), each
  // with oversample 10.
  for (const Size& s : {Size{14, 138, true}, Size{16, 74, false},
                        Size{16, 42, false}}) {
    const uint64_t n = Scaled(1ull << s.scale, 1024);
    const Matrix y = Matrix::Gaussian(n, s.q, s.scale * 1000 + s.q);
    const std::string tag =
        "qr_s" + std::to_string(s.scale) + "x" + std::to_string(s.q);
    auto shape = std::vector<std::pair<std::string, uint64_t>>{{"n", n},
                                                               {"q", s.q}};
    // Two passes, each a Gram and a panel product of 2nq^2 flops.
    const double cholqr2_flops = 8.0 * n * s.q * s.q;
    // LAPACK's geqrf + orgqr count: 2 * (2nq^2 - 2q^3/3).
    const double householder_flops =
        4.0 * n * s.q * s.q - 4.0 * s.q * s.q * s.q / 3.0;
    if (s.householder) {
      Record({tag + "_householder_1t", "qr", "householder", 1, shape},
             householder_flops, 3, true, [&] {
               Matrix q = y;
               HouseholderQr(&q);
             });
    }
    Record({tag + "_cholqr2_1t", "qr", "cholqr2", 1, shape}, cholqr2_flops, 5,
           true, [&] {
             Matrix q = y;
             Orthonormalize(&q);
           });
    Record({tag + "_cholqr2_mt", "qr", "cholqr2", 1, shape}, cholqr2_flops, 5,
           false, [&] {
             Matrix q = y;
             Orthonormalize(&q);
           });
  }
}

// The rSVD tail's sequential q x q step (la/rsvd.h): SymmetricEigen of a
// Gaussian n x q panel's Gram, at the pipeline's three q.
void BenchEigen() {
  std::printf("Symmetric eigensolve (q x q Gram of an n x q panel)\n");
  for (const uint64_t q : {42ull, 74ull, 138ull}) {
    const Matrix panel = Matrix::Gaussian(Scaled(1ull << 14, 1024), q, q);
    const std::vector<double> gram = kernels::GemmTnDouble(panel);
    Record({"eig_q" + std::to_string(q) + "_1t", "eig", "tridiag_ql", 1,
            {{"q", q}}},
           -1.0, 5, true, [&] { auto r = SymmetricEigen(gram, q).value(); });
  }
}

// The Chebyshev filter of SpectralPropagate without smoothing, at the
// pipeline's order 10: 2 (k - 1) Mop sweeps and one A + I sweep, operator
// build included.
void BenchPropagation() {
  std::printf("Propagation (order-10 Chebyshev filter, RMAT, no smoothing)\n");
  const CsrGraph g =
      CsrGraph::FromEdges(GenerateRmat(16, Scaled(1000000, 10000), 1016));
  const uint64_t d = 64;
  const Matrix x = Matrix::Gaussian(g.NumVertices(), d, 16);
  SpectralPropagationOptions opt;
  opt.order = 10;
  opt.svd_smoothing = false;
  const double sweeps = 2.0 * (opt.order - 1) + 1.0;
  const double flops =
      sweeps * 2.0 * static_cast<double>(g.NumDirectedEdges() + g.NumVertices()) *
      static_cast<double>(d);
  auto shape = std::vector<std::pair<std::string, uint64_t>>{
      {"n", g.NumVertices()}, {"nnz", g.NumDirectedEdges()}, {"d", d},
      {"order", opt.order}};
  RecordBothArms({"propagation_s16x64_1t", "propagation", "fused", 1, shape},
                 flops, 3, true,
                 [&] { Matrix y = SpectralPropagate(g, x, opt).value(); });
  RecordBothArms({"propagation_s16x64_mt", "propagation", "fused", 1, shape},
                 flops, 3, false,
                 [&] { Matrix y = SpectralPropagate(g, x, opt).value(); });
}

void BenchRsvd() {
  std::printf("rSVD end-to-end (Algorithm 3)\n");
  SparseMatrix m = RmatSparse(14, Scaled(200000, 10000), 7);
  RandomizedSvdOptions opt;
  opt.rank = 32;
  opt.oversample = 8;
  opt.power_iters = 1;
  opt.symmetric = true;
  opt.seed = 21;
  auto shape = std::vector<std::pair<std::string, uint64_t>>{
      {"n", m.rows()}, {"nnz", m.nnz()}, {"rank", opt.rank}};
  Record({"rsvd_s14_r32_1t", "rsvd", "blocked", 1, shape}, -1.0, 3, true,
         [&] { auto r = RandomizedSvd(m, opt).value(); });
  Record({"rsvd_s14_r32_mt", "rsvd", "blocked", 1, shape}, -1.0, 3, false,
         [&] { auto r = RandomizedSvd(m, opt).value(); });
}

// --------------------------------------------------------------- JSON emit

void WriteJson(const std::string& path) {
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
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", sha ? sha : "unknown");
  std::fprintf(f, "  \"simd_arm\": \"%s\",\n",
               kernels::SimdArmName(kernels::ActiveSimdArm()));
  std::fprintf(f, "  \"workers\": %d,\n", NumWorkers());
  std::fprintf(f, "  \"bench_scale\": %.3f,\n", BenchScale());
  std::fprintf(f, "  \"timestamp_unix\": %lld,\n",
               static_cast<long long>(
                   std::time(nullptr)));  // lint-ok: random (timestamp
                                          // field, not an RNG seed)
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const ResultRow& r = g_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"kernel\": \"%s\", \"variant\": "
                 "\"%s\", \"threads\": %d, \"shape\": {",
                 r.name.c_str(), r.kernel.c_str(), r.variant.c_str(),
                 r.threads);
    for (size_t s = 0; s < r.shape.size(); ++s) {
      std::fprintf(f, "%s\"%s\": %llu", s ? ", " : "",
                   r.shape[s].first.c_str(),
                   static_cast<unsigned long long>(r.shape[s].second));
    }
    std::fprintf(f, "}, \"runs\": %d, \"median_ms\": %.4f", r.runs,
                 r.median_ms);
    if (r.gflops >= 0) std::fprintf(f, ", \"gflops\": %.4f", r.gflops);
    std::fprintf(f, "}%s\n", i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // The acceptance ratio this repo tracks: blocked vs naive GEMM, single
  // thread, at the largest GEMM size (512^3 at scale 1.0).
  const double naive = FindMs("gemm_512_naive_1t");
  const double blocked = FindMs("gemm_512_blocked_1t");
  const double spmm_naive = FindMs("spmm_s14x128_naive_1t");
  const double spmm_blocked = FindMs("spmm_s14x128_blocked_1t");
  const double qr_householder = FindMs("qr_s14x138_householder_1t");
  const double qr_cholqr2 = FindMs("qr_s14x138_cholqr2_1t");
  std::fprintf(f, "  \"speedups\": {\n");
  std::fprintf(f, "    \"gemm_512_blocked_vs_naive_1t\": %.3f,\n",
               (naive > 0 && blocked > 0) ? naive / blocked : -1.0);
  std::fprintf(f, "    \"spmm_s14x128_blocked_vs_naive_1t\": %.3f,\n",
               (spmm_naive > 0 && spmm_blocked > 0)
                   ? spmm_naive / spmm_blocked
                   : -1.0);
  std::fprintf(f, "    \"qr_s14x138_cholqr2_vs_householder_1t\": %.3f",
               (qr_householder > 0 && qr_cholqr2 > 0)
                   ? qr_householder / qr_cholqr2
                   : -1.0);
  for (const auto& [name, ratio] : g_arm_speedups) {
    std::fprintf(f, ",\n    \"%s\": %.3f", name.c_str(), ratio);
  }
  std::fprintf(f, "\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  if (!writer.Commit().ok()) {
    std::fprintf(stderr, "cannot commit %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("\nwrote %s (%zu results, gemm_512 blocked-vs-naive %.2fx)\n",
              path.c_str(), g_rows.size(),
              (naive > 0 && blocked > 0) ? naive / blocked : -1.0);
}

}  // namespace
}  // namespace lightne::bench

int main(int argc, char** argv) {
  using namespace lightne::bench;
  const std::string out = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::printf(
      "LightNE kernel perf baseline (scale %.2f, %d workers, simd arm %s)\n\n",
      BenchScale(), lightne::NumWorkers(),
      lightne::kernels::SimdArmName(lightne::kernels::ActiveSimdArm()));
  BenchGemm();
  BenchGemmPanels();
  BenchGram();
  BenchSpmm();
  BenchQr();
  BenchEigen();
  BenchPropagation();
  BenchRsvd();
  WriteJson(out);
  return 0;
}
