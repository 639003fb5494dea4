// Machine-readable kernel perf baseline.
//
// Runs the dense/sparse kernel layer (naive reference vs blocked, 1 worker
// vs pool), panel orthonormalization (CholeskyQR2 vs the Householder
// fallback) plus rSVD end-to-end at a few fixed sizes and writes a JSON
// trajectory artifact (default BENCH_kernels.json, overridable as argv[1]).
// Every perf PR re-runs `scripts/bench_baseline.sh` and commits the result,
// so regressions and wins are visible in version control; scripts/check.sh
// runs a reduced-scale smoke of this binary and validates the JSON schema.
//
// Row semantics: median-of-N wall ms after one warmup, GFLOP/s where the
// kernel has a closed-form FLOP count, thread count actually used, and the
// git sha (LIGHTNE_GIT_SHA, exported by the wrapper script). Sizes honor
// LIGHTNE_BENCH_SCALE with a floor so the smoke run still exercises every
// code path.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "graph/types.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/qr.h"
#include "la/rsvd.h"
#include "la/sparse.h"
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
  std::string kernel;   // gemm | gemm_tn | spmm | qr | rsvd
  std::string variant;  // naive | blocked | householder | cholqr2
  int threads = 1;
  std::vector<std::pair<std::string, uint64_t>> shape;
  int runs = 0;
  double median_ms = 0.0;
  double gflops = -1.0;  // < 0 => omitted (no closed-form FLOP count)
};

std::vector<ResultRow> g_rows;

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
  std::printf("  %-28s %4d thread(s)  %10.3f ms", row.name.c_str(),
              row.threads, row.median_ms);
  if (row.gflops >= 0) std::printf("  %8.3f GFLOP/s", row.gflops);
  std::printf("\n");
  g_rows.push_back(std::move(row));
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

void BenchGemmTN() {
  std::printf("GemmTN (C = A^T*B, tall-skinny)\n");
  struct Size {
    uint64_t rows, d;
    bool naive;
  };
  for (const Size& s : {Size{1u << 15, 64, true}, Size{1u << 17, 128, false}}) {
    const uint64_t rows = Scaled(s.rows, 1024);
    Matrix a = Matrix::Gaussian(rows, s.d, s.rows);
    Matrix b = Matrix::Gaussian(rows, s.d, s.rows + 1);
    const double flops = 2.0 * rows * s.d * s.d;
    const std::string tag =
        "gemm_tn_" + std::to_string(s.rows) + "x" + std::to_string(s.d);
    auto shape = std::vector<std::pair<std::string, uint64_t>>{
        {"rows", rows}, {"m", s.d}, {"n", s.d}};
    if (s.naive) {
      Record({tag + "_naive_1t", "gemm_tn", "naive", 1, shape}, flops, 3,
             true, [&] { Matrix c = NaiveGemmTN(a, b); });
    }
    Record({tag + "_blocked_1t", "gemm_tn", "blocked", 1, shape}, flops, 5,
           true, [&] { Matrix c = GemmTN(a, b); });
    Record({tag + "_blocked_mt", "gemm_tn", "blocked", 1, shape}, flops, 5,
           false, [&] { Matrix c = GemmTN(a, b); });
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
  };
  for (const Size& s : {Size{14, 200000, 128, true},
                        Size{14, 200000, 512, true},
                        Size{16, 1000000, 128, false}}) {
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
    Record({tag + "_blocked_1t", "spmm", "blocked", 1, shape}, flops, 5, true,
           [&] { Matrix y = m.Multiply(x); });
    Record({tag + "_blocked_mt", "spmm", "blocked", 1, shape}, flops, 5,
           false, [&] { Matrix y = m.Multiply(x); });
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
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", sha ? sha : "unknown");
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
  std::fprintf(f, "    \"qr_s14x138_cholqr2_vs_householder_1t\": %.3f\n",
               (qr_householder > 0 && qr_cholqr2 > 0)
                   ? qr_householder / qr_cholqr2
                   : -1.0);
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
  std::printf("LightNE kernel perf baseline (scale %.2f, %d workers)\n\n",
              BenchScale(), lightne::NumWorkers());
  BenchGemm();
  BenchGemmTN();
  BenchSpmm();
  BenchQr();
  BenchRsvd();
  WriteJson(out);
  return 0;
}
