// NetSMF as published (Qiu et al., WWW'19), kept as the ablation baseline.
// It differs from LightNE's sparsifier stage in exactly the ways the paper's
// §5.2.4 ablations attribute NetSMF's memory/time gap to:
//
//   1. no edge downsampling — every PathSampling draw is materialized;
//   2. per-thread sparsifier buffers merged by a global sort at the end
//      (instead of the shared sparse parallel hash table), so peak memory is
//      one record per *sample* rather than per *distinct edge*;
//   3. no spectral-propagation stage.
//
// The randomized SVD runs on the same substrate (the paper's NetSMF used
// Eigen3; a slower SVD would only exaggerate the gap we reproduce).
#ifndef LIGHTNE_BASELINES_NETSMF_ORIGINAL_H_
#define LIGHTNE_BASELINES_NETSMF_ORIGINAL_H_

#include <utility>
#include <vector>

#include "core/netmf.h"
#include "core/path_sampling.h"
#include "graph/graph_view.h"
#include "la/rsvd.h"
#include "la/sparse.h"
#include "util/status.h"
#include "util/timer.h"

namespace lightne {

struct NetsmfOptions {
  uint64_t dim = 128;
  uint32_t window = 10;
  double negative_samples = 1.0;
  /// M as a multiple of T*m (the paper sweeps 1, 2, 4, 8).
  double samples_ratio = 1.0;
  uint64_t svd_oversample = 10;
  uint64_t svd_power_iters = 1;
  uint64_t seed = 1;
};

struct NetsmfResult {
  Matrix embedding;
  StageTimer timing;            // "sparsifier", "rsvd"
  uint64_t samples_drawn = 0;
  uint64_t buffer_bytes = 0;    // peak per-thread buffer footprint
  uint64_t sparsifier_nnz = 0;  // after trunc_log pruning
};

template <GraphView G>
Result<NetsmfResult> RunNetsmfOriginal(const G& g, const NetsmfOptions& opt) {
  if (g.NumVertices() == 0 || g.NumDirectedEdges() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (opt.dim > g.NumVertices()) {
    return Status::InvalidArgument("embedding dim exceeds vertex count");
  }
  NetsmfResult result;
  result.timing.Start("sparsifier");

  const NodeId n = g.NumVertices();
  const double m = static_cast<double>(g.NumDirectedEdges()) / 2.0;
  const uint64_t target = static_cast<uint64_t>(
      opt.samples_ratio * opt.window * m);
  const double per_edge =
      static_cast<double>(target) / static_cast<double>(g.NumDirectedEdges());

  // Per-thread record buffers: one (key, weight=1) pair per sampled
  // direction, merged by FromEntries' parallel sort at the end.
  const int workers = NumWorkers();
  std::vector<std::vector<std::pair<uint64_t, double>>> buffers(
      static_cast<size_t>(workers));
  std::atomic<uint64_t> drawn{0};
  ParallelForWorkers([&](int worker, int total_workers) {
    auto& buffer = buffers[static_cast<size_t>(worker)];
    const NodeId lo = static_cast<NodeId>(
        static_cast<uint64_t>(n) * worker / total_workers);
    const NodeId hi = static_cast<NodeId>(
        static_cast<uint64_t>(n) * (worker + 1) / total_workers);
    uint64_t local_drawn = 0;
    for (NodeId u = lo; u < hi; ++u) {
      g.MapNeighbors(u, [&](NodeId v) {
        Rng rng(HashCombine64(PackEdge(u, v), opt.seed));
        uint64_t ne = static_cast<uint64_t>(per_edge);
        if (rng.Bernoulli(per_edge - static_cast<double>(ne))) ++ne;
        local_drawn += ne;
        for (uint64_t i = 0; i < ne; ++i) {
          const uint64_t r = 1 + rng.UniformInt(opt.window);
          auto [a, b] = PathSample(g, u, v, r, rng);
          buffer.push_back({PackEdge(a, b), 1.0});
          buffer.push_back({PackEdge(b, a), 1.0});
        }
      });
    }
    drawn.fetch_add(local_drawn, std::memory_order_relaxed);
  });
  result.samples_drawn = drawn.load();

  std::vector<std::pair<uint64_t, double>> all;
  uint64_t buffer_bytes = 0;
  uint64_t total_records = 0;
  for (const auto& buffer : buffers) {
    buffer_bytes += buffer.capacity() * sizeof(buffer[0]);
    total_records += buffer.size();
  }
  result.buffer_bytes = buffer_bytes;
  all.reserve(total_records);
  for (auto& buffer : buffers) {
    all.insert(all.end(), buffer.begin(), buffer.end());
    buffer.clear();
    buffer.shrink_to_fit();
  }
  SparseMatrix matrix = SparseMatrix::FromEntries(n, n, std::move(all));
  ApplyNetmfTransform(g, target, opt.negative_samples, &matrix);
  result.sparsifier_nnz = matrix.nnz();

  result.timing.Start("rsvd");
  RandomizedSvdOptions ropt;
  ropt.rank = opt.dim;
  ropt.oversample = opt.svd_oversample;
  ropt.power_iters = opt.svd_power_iters;
  ropt.symmetric = true;
  ropt.seed = opt.seed + 7;
  auto svd = RandomizedSvd(matrix, ropt);
  if (!svd.ok()) return svd.status();
  result.embedding = EmbeddingFromSvd(std::move(*svd));
  result.timing.Stop();
  return result;
}

}  // namespace lightne

#endif  // LIGHTNE_BASELINES_NETSMF_ORIGINAL_H_
