// Weight traits: free functions that let one template implementation of the
// pipeline serve unweighted (CSR / compressed) and weighted graphs. For an
// unweighted GraphView every edge has weight 1, the weighted degree is the
// plain degree, and neighbor sampling is uniform; WeightedCsrGraph overrides
// all three. Crucially, the unweighted specializations consume the RNG
// identically to the pre-weighted code, so results on unweighted graphs are
// unchanged.
//
// The sampling and walk entry points come in two flavors: the plain
// (g, v, rng) form, and a hot-path form threading a WalkContext<G>
// (graph/walk_cursor.h) so compressed-graph walks serve hub draws from the
// phase's pinned decoded prefixes instead of decoding a neighbor block on
// every step. Both flavors consume the RNG identically and return identical
// vertices; the plain form simply runs on a throwaway context.
#ifndef LIGHTNE_GRAPH_WEIGHTS_H_
#define LIGHTNE_GRAPH_WEIGHTS_H_

#include "graph/graph_view.h"
#include "graph/walk_cursor.h"
#include "graph/weighted_csr.h"
#include "util/check.h"
#include "util/random.h"
#include "util/status.h"

namespace lightne {

/// d_v = sum_u A_vu (== Degree for unweighted graphs).
template <GraphView G>
double VertexWeightedDegree(const G& g, NodeId v) {
  return static_cast<double>(g.Degree(v));
}
inline double VertexWeightedDegree(const WeightedCsrGraph& g, NodeId v) {
  return g.WeightedDegree(v);
}

/// Applies fn(neighbor, weight) over v's adjacency.
template <GraphView G, typename F>
void MapNeighborsWeighted(const G& g, NodeId v, F&& fn) {
  g.MapNeighbors(v, [&](NodeId u) { fn(u, 1.0f); });
}
template <typename F>
void MapNeighborsWeighted(const WeightedCsrGraph& g, NodeId v, F&& fn) {
  g.MapNeighborsWeighted(v, fn);
}

/// Samples a neighbor of v with probability proportional to edge weight.
/// The hot-path ctx form requires degree >= 1 (checked: a zero-degree draw
/// would silently index past the adjacency) — walk call sites only ever
/// step from a vertex they just arrived at through an edge, so a zero
/// degree there is a logic bug, not an input condition.
template <GraphView G>
NodeId SampleNeighborProportional(const G& g, WalkContext<G>& ctx, NodeId v,
                                  Rng& rng) {
  const uint64_t d = ctx.Degree(g, v);
  LIGHTNE_CHECK_GT(d, 0u);
  return ctx.Neighbor(g, v, rng.UniformInt(d));
}
inline NodeId SampleNeighborProportional(const WeightedCsrGraph& g,
                                         WalkContext<WeightedCsrGraph>& /*ctx*/,
                                         NodeId v, Rng& rng) {
  return g.SampleNeighbor(v, rng);
}
/// The plain form is the entry point for callers sampling from arbitrary
/// (possibly isolated) vertices, so it reports the zero-degree case as a
/// recoverable error instead of aborting the process.
template <typename G>
Result<NodeId> SampleNeighborProportional(const G& g, NodeId v, Rng& rng) {
  if (g.Degree(v) == 0) {
    return Status::InvalidArgument(
        "cannot sample a neighbor of a zero-degree vertex");
  }
  WalkContext<G> ctx;
  return SampleNeighborProportional(g, ctx, v, rng);
}

/// A weighted random-walk step / walk (degenerates to the uniform walk on
/// unweighted graphs).
template <typename G>
NodeId WeightedRandomWalk(const G& g, WalkContext<G>& ctx, NodeId v,
                          uint64_t steps, Rng& rng) {
  for (uint64_t s = 0; s < steps; ++s) {
    v = SampleNeighborProportional(g, ctx, v, rng);
  }
  return v;
}
template <typename G>
NodeId WeightedRandomWalk(const G& g, NodeId v, uint64_t steps, Rng& rng) {
  WalkContext<G> ctx;
  return WeightedRandomWalk(g, ctx, v, steps, rng);
}

}  // namespace lightne

#endif  // LIGHTNE_GRAPH_WEIGHTS_H_
