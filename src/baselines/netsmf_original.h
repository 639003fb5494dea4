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
// Its draws are LightNE's with downsampling off, from the same sampling pass
// (internal::RunPerEdgeSamplingInto); each sample becomes two directed
// records, (a, b) and (b, a), of weight 1, summed by FromEntries.
//
// The randomized SVD runs on the same substrate (the paper's NetSMF used
// Eigen3; a slower SVD would only exaggerate the gap we reproduce).
#ifndef LIGHTNE_BASELINES_NETSMF_ORIGINAL_H_
#define LIGHTNE_BASELINES_NETSMF_ORIGINAL_H_

#include <utility>

#include "core/aggregation.h"
#include "core/netmf.h"
#include "core/sparsifier.h"
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
  uint64_t buffer_bytes = 0;    // peak record bytes, 32 per sample
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
  SparsifierOptions sopt;
  sopt.num_samples = target;
  sopt.window = opt.window;
  sopt.seed = opt.seed;
  sopt.downsample = false;

  WorkerBuffers<std::pair<uint64_t, double>> buffers(NumWorkers());
  const internal::SamplerPassStats stats = internal::RunPerEdgeSamplingInto(
      g, sopt, static_cast<double>(target) / g.Volume(),
      /*c=*/1.0, WalkAccel<G>{}, [&](int worker, uint64_t key, double) {
        buffers.Add(worker, {key, 1.0});
        buffers.Add(worker, {PackEdge(PackedDst(key), PackedSrc(key)), 1.0});
      });
  result.samples_drawn = stats.drawn;
  result.buffer_bytes = buffers.MemoryBytes();
  SparseMatrix matrix = SparseMatrix::FromEntries(n, n, buffers.TakeAll());
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
