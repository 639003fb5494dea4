// Exact NetMF (Qiu et al., WSDM'18): dense construction of the DeepWalk
// matrix followed by truncated SVD. O(n^2) memory — small graphs only; used
// as the ground-truth reference the sampled methods approximate.
#ifndef LIGHTNE_BASELINES_NETMF_DENSE_H_
#define LIGHTNE_BASELINES_NETMF_DENSE_H_

#include <utility>
#include <vector>

#include "core/netmf.h"
#include "graph/csr.h"
#include "la/rsvd.h"
#include "la/sparse.h"
#include "util/status.h"

namespace lightne {

struct NetmfDenseOptions {
  uint64_t dim = 128;
  uint32_t window = 10;
  double negative_samples = 1.0;
  uint64_t svd_oversample = 10;
  uint64_t svd_power_iters = 2;
  uint64_t seed = 1;
};

/// Exact NetMF embedding. Fails on graphs with more than 5000 vertices
/// (dense guard in ComputeDenseNetmf).
inline Result<Matrix> RunNetmfDense(const CsrGraph& g,
                                    const NetmfDenseOptions& opt) {
  if (g.NumVertices() == 0 || g.NumDirectedEdges() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (g.NumVertices() > 5000) {
    return Status::InvalidArgument(
        "dense NetMF is limited to 5000 vertices; use LightNE instead");
  }
  if (opt.dim > g.NumVertices()) {
    return Status::InvalidArgument("embedding dim exceeds vertex count");
  }
  Matrix dense = ComputeDenseNetmf(g, opt.window, opt.negative_samples);
  // Factorize through the sparse path (the matrix is mostly nonzero only for
  // small T, but correctness is what matters here).
  std::vector<std::pair<uint64_t, double>> entries;
  for (NodeId i = 0; i < g.NumVertices(); ++i) {
    for (NodeId j = 0; j < g.NumVertices(); ++j) {
      const float v = dense.At(i, j);
      if (v > 0) entries.push_back({PackEdge(i, j), v});
    }
  }
  SparseMatrix m =
      SparseMatrix::FromEntries(g.NumVertices(), g.NumVertices(),
                                std::move(entries));
  RandomizedSvdOptions ropt;
  ropt.rank = opt.dim;
  ropt.oversample = opt.svd_oversample;
  ropt.power_iters = opt.svd_power_iters;
  ropt.symmetric = true;
  ropt.seed = opt.seed;
  auto svd = RandomizedSvd(m, ropt);
  if (!svd.ok()) return svd.status();
  return EmbeddingFromSvd(std::move(*svd));
}

}  // namespace lightne

#endif  // LIGHTNE_BASELINES_NETMF_DENSE_H_
