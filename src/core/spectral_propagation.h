// Step 2 of LightNE (§3.2): ProNE-style spectral propagation. The initial
// embedding X is filtered through a degree-k Chebyshev expansion of a
// Gaussian band-pass modulator g(lambda) on the normalized graph Laplacian,
// weighted by modified Bessel coefficients, matching the ProNE reference
// implementation (Zhang et al., IJCAI'19) step for step:
//
//   A' = A + I,  DA = rownorm(A'),  L = I - DA,  Mop = L - mu I
//   T_0 = X, T_1 = 0.5 Mop (Mop X) - X,
//   T_i = (Mop (Mop T_{i-1}) - 2 T_{i-1}) - T_{i-2}
//   conv = I_0(theta) T_0 + sum_{i>=1} (-1)^i 2 I_i(theta) T_i
//   result = smoothing( A' (X - conv) )
//
// Mop and A' are applied through one CSR copy of A per call, in
// MapNeighborsWeighted order, with each row's float(1 / (d_u + 1)) scale
// (an SPMM per application — MKL Sparse BLAS in the paper, §4.3). Every
// application is one row sweep compiled at -O3 in spectral_propagation.cc;
// its epilogue folds in the element-wise steps above, with the same float
// expressions in the same order, so the filter does not depend on the graph
// representation or the worker count.
#ifndef LIGHTNE_CORE_SPECTRAL_PROPAGATION_H_
#define LIGHTNE_CORE_SPECTRAL_PROPAGATION_H_

#include <vector>

#include "graph/graph_view.h"
#include "graph/weights.h"
#include "la/matrix.h"
#include "parallel/scan.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace lightne {

struct SpectralPropagationOptions {
  uint32_t order = 10;   // k: Chebyshev expansion terms (paper sets ~10)
  double mu = 0.2;       // band-pass center shift
  double theta = 0.5;    // Gaussian kernel scale
  bool svd_smoothing = true;
};

namespace internal {

/// A + I as the filter applies it: A's rows in MapNeighborsWeighted order
/// (self loop implicit, weight 1) and each row's Mop scale.
struct PropagationOperator {
  std::vector<uint64_t> offsets;  // n + 1
  std::vector<NodeId> neighbors;
  std::vector<float> weights;
  std::vector<float> scale;  // float(1 / (weighted degree + 1))
};

/// Copies any GraphView into a PropagationOperator. Weighted graphs keep
/// their weights (the ProNE renormalization trick); unweighted edges are 1.
template <GraphView G>
PropagationOperator BuildPropagationOperator(const G& g) {
  const uint64_t n = g.NumVertices();
  PropagationOperator op;
  op.offsets.assign(n + 1, 0);
  op.scale.resize(n);
  g.MapVertices([&](NodeId u) {
    op.offsets[u] = g.Degree(u);
    op.scale[u] =
        static_cast<float>(1.0 / (VertexWeightedDegree(g, u) + 1.0));
  });
  const uint64_t nnz = ParallelScanExclusive(op.offsets.data(), n + 1);
  op.neighbors.resize(nnz);
  op.weights.resize(nnz);
  g.MapVertices([&](NodeId u) {
    uint64_t e = op.offsets[u];
    MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
      op.neighbors[e] = v;
      op.weights[e] = w;
      ++e;
    });
    LIGHTNE_CHECK_EQ(e, op.offsets[u + 1]);
  });
  return op;
}

/// The Chebyshev filter before smoothing: A' (X - conv) for X with one row
/// per operator row and opt.order >= 2.
Matrix ChebyshevFilter(const PropagationOperator& op, const Matrix& x,
                       const SpectralPropagationOptions& opt);

}  // namespace internal

/// Final dense-SVD smoothing used by ProNE: factor mm ~ U S V^T through the
/// d x d Gram matrix, return rows of U sqrt(S), L2-normalized. Propagates
/// kInternal if the Gram eigen-decomposition does not converge.
Result<Matrix> DenseSvdSmoothing(const Matrix& mm);

/// Applies spectral propagation to embedding X over graph g. Fails with
/// kInvalidArgument when X's row count does not match the vertex count, and
/// propagates non-convergence from the smoothing SVD.
template <GraphView G>
Result<Matrix> SpectralPropagate(const G& g, const Matrix& x,
                                 const SpectralPropagationOptions& opt = {}) {
  if (static_cast<uint64_t>(g.NumVertices()) != x.rows()) {
    return Status::InvalidArgument(
        "SpectralPropagate: embedding has " + std::to_string(x.rows()) +
        " rows but the graph has " + std::to_string(g.NumVertices()) +
        " vertices");
  }
  if (opt.order <= 1) return x;
  MetricsRegistry::Global().GetCounter("propagation/terms")->Add(opt.order);

  TraceSpan chebyshev_span("propagation/chebyshev");
  Matrix mm = internal::ChebyshevFilter(internal::BuildPropagationOperator(g),
                                        x, opt);
  chebyshev_span.End();
  if (!opt.svd_smoothing) return mm;
  TraceSpan smoothing_span("propagation/smoothing");
  return DenseSvdSmoothing(mm);  // Result<Matrix>: propagates SVD failure
}

}  // namespace lightne

#endif  // LIGHTNE_CORE_SPECTRAL_PROPAGATION_H_
