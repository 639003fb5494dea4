#include "core/spectral_propagation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/kernels.h"
#include "la/special.h"
#include "la/svd.h"
#include "parallel/parallel_for.h"
#include "parallel/scratch.h"

namespace lightne {

namespace internal {

namespace {

// Rows per sweep task: one scratch row per task, many tasks per worker.
constexpr uint64_t kSweepRows = 64;

// One sweep task of an application of A + I: for every row u of the task,
// y = in_u + sum_v w_uv in_v with the neighbors in operator order (each
// element summed as the per-term oracle in tests/propagation_oracle.h sums
// it), then epilogue(u, in_u, y). y is a d-float scratch row of the task;
// the epilogue writes row u of its outputs and must not write `in`, whose
// rows the other tasks still gather. Inlined, with the epilogue, into each
// SIMD arm (la/kernels.h), so every epilogue is declared always_inline.
template <typename Epilogue>
[[gnu::always_inline]] inline void SweepTask(const PropagationOperator& op,
                                             const Matrix& in,
                                             const Epilogue& epilogue,
                                             uint64_t task) {
  const uint64_t n = in.rows();
  const uint64_t d = in.cols();
  ScratchArena::Scope scope(ScratchArena::ForCurrentThread());
  float* __restrict y = scope.AllocArray<float>(d);
  const uint64_t hi = std::min(n, (task + 1) * kSweepRows);
  for (uint64_t u = task * kSweepRows; u < hi; ++u) {
    const float* __restrict xu = in.Row(u);
    for (uint64_t j = 0; j < d; ++j) y[j] = xu[j];
    for (uint64_t e = op.offsets[u]; e < op.offsets[u + 1]; ++e) {
      const float w = op.weights[e];
      const float* __restrict xv = in.Row(op.neighbors[e]);
      for (uint64_t j = 0; j < d; ++j) y[j] += w * xv[j];
    }
    epilogue(u, xu, static_cast<const float*>(y));
  }
}

// One application of A + I over all rows, kSweepRows rows per task.
template <typename Epilogue>
void Sweep(const PropagationOperator& op, const Matrix& in,
           const Epilogue& epilogue) {
  const auto task = kernels::SimdArms<&SweepTask<Epilogue>>::Pick();
  ParallelFor(
      0, (in.rows() + kSweepRows - 1) / kSweepRows,
      [&](uint64_t t) { task(op, in, epilogue, t); }, /*grain=*/1);
}

}  // namespace

// Buffers: `mop` holds Mop T_{i-1} (gathered by the second sweep of a term),
// `prev` and `prev2` hold T_{i-1} and T_{i-2}, `conv` the running sum and at
// the end X - conv. T_0 is X itself; T_i overwrites T_{i-2} row by row,
// after the row's epilogue has read it. Each epilogue reproduces one
// element-wise pass of the per-term filter, float for float.
Matrix ChebyshevFilter(const PropagationOperator& op, const Matrix& x,
                       const SpectralPropagationOptions& opt) {
  LIGHTNE_CHECK_GE(opt.order, 2u);
  LIGHTNE_CHECK_EQ(op.scale.size(), x.rows());
  const uint64_t n = x.rows();
  const uint64_t d = x.cols();
  const float one_minus_mu = static_cast<float>(1.0 - opt.mu);
  const float c0 = static_cast<float>(BesselI(0, opt.theta));
  const float c1 = static_cast<float>(2.0 * BesselI(1, opt.theta));
  const float* scale = op.scale.data();

  // Each epilogue copies what its loop reads into locals first: the rows it
  // writes could otherwise alias the captures, which keeps GCC from
  // vectorizing.
  Matrix mop(n, d);
  const auto into_mop = [&](uint64_t u, const float* xu, const float* y)
                            __attribute__((always_inline)) {
    const uint64_t len = d;
    const float omm = one_minus_mu, s = scale[u];
    float* __restrict out = mop.Row(u);
    for (uint64_t j = 0; j < len; ++j) out[j] = omm * xu[j] - s * y[j];
  };
  Sweep(op, x, into_mop);  // mop = Mop X
  // T_1 = 0.5 Mop mop - X; conv = c0 T_0 - c1 T_1.
  Matrix prev(n, d);
  Matrix conv(n, d);
  Sweep(op, mop,
        [&](uint64_t u, const float* xu, const float* y)
            __attribute__((always_inline)) {
    const uint64_t len = d;
    const float omm = one_minus_mu, s = scale[u], a0 = c0, a1 = c1;
    const bool last = opt.order == 2;
    const float* __restrict x0 = x.Row(u);
    float* __restrict t1 = prev.Row(u);
    float* __restrict cv = conv.Row(u);
    for (uint64_t j = 0; j < len; ++j) {
      const float m = omm * xu[j] - s * y[j];
      t1[j] = 0.5f * m - x0[j];
      const float c = a0 * x0[j] - a1 * t1[j];
      cv[j] = last ? x0[j] - c : c;
    }
  });
  Matrix prev2;  // T_{i-2} from i = 3 on; T_0 = X before that
  for (uint32_t i = 2; i < opt.order; ++i) {
    Sweep(op, prev, into_mop);  // mop = Mop T_{i-1}
    // T_i = (Mop mop - 2 T_{i-1}) - T_{i-2}; conv += (-1)^i 2 I_i T_i.
    if (i == 2) prev2 = Matrix(n, d);
    const Matrix& older = i == 2 ? x : prev2;
    const float ci = static_cast<float>(2.0 * BesselI(i, opt.theta));
    const float coef = ((i % 2 == 0) ? 1.0f : -1.0f) * ci;
    Sweep(op, mop,
          [&](uint64_t u, const float* xu, const float* y)
              __attribute__((always_inline)) {
      const uint64_t len = d;
      const float omm = one_minus_mu, s = scale[u], a = coef;
      const bool last = i + 1 == opt.order;
      const float* t0 = older.Row(u);  // may be ti: read before written
      float* ti = prev2.Row(u);
      const float* __restrict t1 = prev.Row(u);
      const float* __restrict x0 = x.Row(u);
      float* __restrict cv = conv.Row(u);
      for (uint64_t j = 0; j < len; ++j) {
        const float m = omm * xu[j] - s * y[j];
        const float t = (m - 2.0f * t1[j]) - t0[j];
        ti[j] = t;
        const float c = cv[j] + a * t;
        cv[j] = last ? x0[j] - c : c;
      }
    });
    std::swap(prev, prev2);
  }
  // A' (X - conv), into the free Mop buffer.
  Sweep(op, conv,
        [&](uint64_t u, const float* /*xu*/, const float* y)
            __attribute__((always_inline)) {
    std::copy(y, y + d, mop.Row(u));
  });
  return mop;
}

}  // namespace internal

Result<Matrix> DenseSvdSmoothing(const Matrix& mm) {
  const uint64_t d = mm.cols();
  // Gram trick: mm = U S V^T  =>  mm^T mm = V S^2 V^T, whose eigenvalues
  // are lambda_j = S_j^2 (la/svd.h).
  Result<SymmetricEigenResult> eig =
      SymmetricEigen(kernels::GemmTnDouble(mm), d);
  if (!eig.ok()) return eig.status();
  // ProNE's smoothing returns row-normalized U sqrt(S). Since
  //   U sqrt(S) = mm V S^{-1} S^{1/2} = mm V S^{-1/2},
  // it is mm times W, column j of V scaled by S_j^{-1/2} = lambda_j^{-1/4}.
  Matrix w(d, d);
  for (uint64_t j = 0; j < d; ++j) {
    const double lambda = eig->values[j];
    if (!(lambda > 1e-12)) continue;
    const double scale = 1.0 / std::sqrt(std::sqrt(lambda));
    for (uint64_t k = 0; k < d; ++k) {
      w.At(k, j) = static_cast<float>(eig->vectors[k * d + j] * scale);
    }
  }
  Matrix mw = Gemm(mm, w);
  mw.NormalizeRows();
  return mw;
}

}  // namespace lightne
