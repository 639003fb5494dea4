// The per-term Chebyshev filter that SpectralPropagate's fused sweeps
// replace, kept verbatim as the byte-equality oracle for
// core/spectral_propagation.cc: one operator application per Matrix, each
// element-wise step as its own pass, every graph read through its own
// GraphView. Test-only; shares no code with the sweeps.
#ifndef LIGHTNE_TESTS_PROPAGATION_ORACLE_H_
#define LIGHTNE_TESTS_PROPAGATION_ORACLE_H_

#include <utility>

#include "core/spectral_propagation.h"
#include "graph/graph_view.h"
#include "graph/weights.h"
#include "la/matrix.h"
#include "la/special.h"
#include "parallel/parallel_for.h"

namespace lightne::propagation_oracle {

/// Y = Mop X where Mop = (1 - mu) I - rownorm(A + I). Weighted graphs use
/// weighted rows (self loop weight 1, the ProNE renormalization trick).
template <GraphView G>
Matrix MultiplyMop(const G& g, const Matrix& x, double mu) {
  Matrix y(x.rows(), x.cols());
  const uint64_t d = x.cols();
  g.MapVertices([&](NodeId u) {
    const double inv = 1.0 / (VertexWeightedDegree(g, u) + 1.0);
    float* yu = y.Row(u);
    const float* xu = x.Row(u);
    // accumulate weighted neighbor sum (+ the self loop)
    for (uint64_t j = 0; j < d; ++j) yu[j] = xu[j];
    MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
      const float* xv = x.Row(v);
      for (uint64_t j = 0; j < d; ++j) yu[j] += w * xv[j];
    });
    const float one_minus_mu = static_cast<float>(1.0 - mu);
    const float scale = static_cast<float>(inv);
    for (uint64_t j = 0; j < d; ++j) {
      yu[j] = one_minus_mu * xu[j] - scale * yu[j];
    }
  });
  return y;
}

/// Y = (A + I) X.
template <GraphView G>
Matrix MultiplyAPlusI(const G& g, const Matrix& x) {
  Matrix y(x.rows(), x.cols());
  const uint64_t d = x.cols();
  g.MapVertices([&](NodeId u) {
    float* yu = y.Row(u);
    const float* xu = x.Row(u);
    for (uint64_t j = 0; j < d; ++j) yu[j] = xu[j];
    MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
      const float* xv = x.Row(v);
      for (uint64_t j = 0; j < d; ++j) yu[j] += w * xv[j];
    });
  });
  return y;
}

/// A' (X - conv): SpectralPropagate's filter before smoothing, for
/// opt.order >= 2.
template <GraphView G>
Matrix PerTermFilter(const G& g, const Matrix& x,
                     const SpectralPropagationOptions& opt) {
  const uint64_t total = x.rows() * x.cols();
  Matrix t0 = x;  // T_0
  Matrix t1 = MultiplyMop(g, x, opt.mu);
  {
    Matrix mt1 = MultiplyMop(g, t1, opt.mu);
    ParallelFor(0, total, [&](uint64_t k) {
      t1.data()[k] = 0.5f * mt1.data()[k] - x.data()[k];
    });
  }
  Matrix conv(x.rows(), x.cols());
  {
    const float c0 = static_cast<float>(BesselI(0, opt.theta));
    const float c1 = static_cast<float>(2.0 * BesselI(1, opt.theta));
    ParallelFor(0, total, [&](uint64_t k) {
      conv.data()[k] = c0 * t0.data()[k] - c1 * t1.data()[k];
    });
  }
  for (uint32_t i = 2; i < opt.order; ++i) {
    Matrix mt1 = MultiplyMop(g, t1, opt.mu);
    Matrix t2 = MultiplyMop(g, mt1, opt.mu);
    ParallelFor(0, total, [&](uint64_t k) {
      t2.data()[k] = (t2.data()[k] - 2.0f * t1.data()[k]) - t0.data()[k];
    });
    const float ci = static_cast<float>(2.0 * BesselI(i, opt.theta));
    const float sign = (i % 2 == 0) ? 1.0f : -1.0f;
    ParallelFor(0, total, [&](uint64_t k) {
      conv.data()[k] += sign * ci * t2.data()[k];
    });
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  Matrix diff(x.rows(), x.cols());
  ParallelFor(0, total, [&](uint64_t k) {
    diff.data()[k] = x.data()[k] - conv.data()[k];
  });
  return MultiplyAPlusI(g, diff);
}

}  // namespace lightne::propagation_oracle

#endif  // LIGHTNE_TESTS_PROPAGATION_ORACLE_H_
