// Algorithm 1 of the paper: PathSampling.
//
// Given an edge (u, v) and a walk length r, the sampled pair (u', v') is the
// endpoints of an r-step walk whose (s+1)-th edge is (u, v), with s uniform
// in [0, r-1]. Each call contributes one nonzero to the sparsified r-step
// random-walk matrix (Cheng et al., COLT'15; Qiu et al., WWW'19).
#ifndef LIGHTNE_CORE_PATH_SAMPLING_H_
#define LIGHTNE_CORE_PATH_SAMPLING_H_

#include <utility>

#include "graph/graph_view.h"
#include "graph/weights.h"
#include "util/random.h"

namespace lightne {

/// One PathSampling draw (Algo 1). `r` must be >= 1. Walk steps pick
/// neighbors proportional to edge weight (uniform on unweighted graphs).
/// The WalkContext carries per-worker decode state (graph/walk_cursor.h);
/// it never touches the RNG, so draws are bit-identical with or without a
/// reused context.
template <GraphView G>
std::pair<NodeId, NodeId> PathSample(const G& g, WalkContext<G>& ctx, NodeId u,
                                     NodeId v, uint64_t r, Rng& rng) {
  const uint64_t s = rng.UniformInt(r);  // uniform in [0, r-1]
  const NodeId u_end = WeightedRandomWalk(g, ctx, u, s, rng);
  const NodeId v_end = WeightedRandomWalk(g, ctx, v, r - 1 - s, rng);
  return {u_end, v_end};
}

}  // namespace lightne

#endif  // LIGHTNE_CORE_PATH_SAMPLING_H_
