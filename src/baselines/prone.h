// ProNE (Zhang et al., IJCAI'19) re-implemented on this repo's substrates —
// the paper's "ProNE+" ("we re-implement ProNE to benefit from our system
// optimizations", §5.2.3):
//
//   step 1: factorize the modulated normalized Laplacian
//       M_uv = log( (A_uv / D_u) * sum_j tau_j^alpha / (b * tau_v^alpha) ),
//       tau_v = sum_i A_iv / D_i,  alpha = 0.75, b = 1,
//     with randomized SVD (Algo 3 substrate);
//   step 2: spectral propagation (shared with LightNE).
#ifndef LIGHTNE_BASELINES_PRONE_H_
#define LIGHTNE_BASELINES_PRONE_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/spectral_propagation.h"
#include "graph/graph_view.h"
#include "la/rsvd.h"
#include "la/sparse.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace lightne {

struct ProneOptions {
  uint64_t dim = 128;
  double alpha = 0.75;            // negative-sampling modulation exponent
  double negative_samples = 1.0;  // b
  SpectralPropagationOptions propagation;
  uint64_t svd_oversample = 10;
  uint64_t svd_power_iters = 1;
  uint64_t seed = 1;
};

struct ProneResult {
  Matrix embedding;
  StageTimer timing;  // "factorization", "propagation"
};

/// Builds ProNE's sparse modulated matrix from the graph.
template <GraphView G>
SparseMatrix BuildProneMatrix(const G& g, double alpha,
                              double negative_samples) {
  const NodeId n = g.NumVertices();
  // tau_v = sum_i A_iv / d_i (column sums of D^{-1}A; weighted degrees).
  std::vector<double> tau(n, 0.0);
  g.MapVertices([&](NodeId v) {
    double acc = 0;
    MapNeighborsWeighted(g, v, [&](NodeId u, float w) {
      acc += static_cast<double>(w) / VertexWeightedDegree(g, u);
    });
    tau[v] = acc;  // symmetric graph: column sum = this row-wise gather
  });
  double tau_alpha_total = 0;
  for (NodeId v = 0; v < n; ++v) {
    tau_alpha_total += std::pow(tau[v], alpha);
  }
  std::vector<std::pair<uint64_t, double>> entries;
  entries.reserve(g.NumDirectedEdges());
  // Sequential-friendly gather; entries order does not matter (sorted later).
  Mutex mu;
  ParallelForWorkers([&](int worker, int workers) {
    std::vector<std::pair<uint64_t, double>> local;
    const NodeId lo = static_cast<NodeId>(
        static_cast<uint64_t>(n) * worker / workers);
    const NodeId hi = static_cast<NodeId>(
        static_cast<uint64_t>(n) * (worker + 1) / workers);
    for (NodeId u = lo; u < hi; ++u) {
      const double du = VertexWeightedDegree(g, u);
      MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
        const double value =
            std::log(static_cast<double>(w) / du) +
            std::log(tau_alpha_total /
                     (negative_samples * std::pow(tau[v], alpha)));
        local.push_back({PackEdge(u, v), value});
      });
    }
    MutexLock lock(mu);
    entries.insert(entries.end(), local.begin(), local.end());
  });
  return SparseMatrix::FromEntries(n, n, std::move(entries));
}

/// Runs ProNE+ end to end.
template <GraphView G>
Result<ProneResult> RunProne(const G& g, const ProneOptions& opt) {
  if (g.NumVertices() == 0 || g.NumDirectedEdges() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (opt.dim > g.NumVertices()) {
    return Status::InvalidArgument("embedding dim exceeds vertex count");
  }
  ProneResult result;
  result.timing.Start("factorization");
  SparseMatrix m = BuildProneMatrix(g, opt.alpha, opt.negative_samples);
  RandomizedSvdOptions ropt;
  ropt.rank = opt.dim;
  ropt.oversample = opt.svd_oversample;
  ropt.power_iters = opt.svd_power_iters;
  ropt.symmetric = false;  // the modulated matrix is not symmetric
  ropt.seed = opt.seed + 3;
  auto svd = RandomizedSvd(m, ropt);
  if (!svd.ok()) return svd.status();
  Matrix x = EmbeddingFromSvd(std::move(*svd));
  x.NormalizeRows();
  result.timing.Start("propagation");
  auto propagated = SpectralPropagate(g, std::move(x), opt.propagation);
  if (!propagated.ok()) return propagated.status();
  result.embedding = std::move(*propagated);
  result.timing.Stop();
  return result;
}

}  // namespace lightne

#endif  // LIGHTNE_BASELINES_PRONE_H_
