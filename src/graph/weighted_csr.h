// Weighted symmetric CSR graph. Satisfies GraphView (so every algorithm in
// the repo runs on it), and additionally exposes edge weights, weighted
// degrees, and weight-proportional neighbor sampling — the quantities the
// paper's formulas use for general A_uv (downsampling probability
// p_e = min(1, C A_uv (1/d_u + 1/d_v)), weighted random walks, the NetMF
// matrix with vol(G) = sum of weights).
#ifndef LIGHTNE_GRAPH_WEIGHTED_CSR_H_
#define LIGHTNE_GRAPH_WEIGHTED_CSR_H_

#include <span>
#include <tuple>
#include <vector>

#include "graph/types.h"
#include "parallel/parallel_for.h"
#include "util/check.h"
#include "util/random.h"

namespace lightne {

/// Staging format for weighted graphs.
struct WeightedEdgeList {
  NodeId num_vertices = 0;
  std::vector<std::tuple<NodeId, NodeId, float>> edges;

  void Add(NodeId u, NodeId v, float w) { edges.emplace_back(u, v, w); }
};

class WeightedCsrGraph {
 public:
  WeightedCsrGraph() = default;

  /// Symmetrizes, drops self loops, and sums the weights of duplicate
  /// edges in float, ascending by bit pattern (SortHistogram), so the graph
  /// is the same for any worker count and edge order. Weights must be
  /// positive.
  static WeightedCsrGraph FromEdges(WeightedEdgeList list);

  // --- GraphView interface -------------------------------------------------
  NodeId NumVertices() const { return num_vertices_; }
  EdgeId NumDirectedEdges() const { return neighbors_.size(); }
  EdgeId NumUndirectedEdges() const { return neighbors_.size() / 2; }
  /// vol(G) = sum of weighted degrees = total stored weight.
  double Volume() const { return total_weight_; }
  uint64_t Degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }
  NodeId Neighbor(NodeId v, uint64_t i) const {
    return neighbors_[offsets_[v] + i];
  }
  template <typename F>
  void MapNeighbors(NodeId v, F&& fn) const {
    for (uint64_t k = offsets_[v]; k < offsets_[v + 1]; ++k) {
      fn(neighbors_[k]);
    }
  }
  template <typename F>
  void MapEdges(F&& fn) const {
    ParallelFor(
        0, num_vertices_,
        [&](uint64_t u) {
          MapNeighbors(static_cast<NodeId>(u),
                       [&](NodeId v) { fn(static_cast<NodeId>(u), v); });
        },
        /*grain=*/64);
  }
  template <typename F>
  void MapVertices(F&& fn) const {
    ParallelFor(0, num_vertices_,
                [&](uint64_t v) { fn(static_cast<NodeId>(v)); });
  }

  // --- weighted extensions -------------------------------------------------
  float Weight(NodeId v, uint64_t i) const {
    return weights_[offsets_[v] + i];
  }

  /// d_v = sum_u A_vu (cached at construction).
  double WeightedDegree(NodeId v) const { return weighted_degree_[v]; }

  /// Applies fn(neighbor, weight) over v's adjacency.
  template <typename F>
  void MapNeighborsWeighted(NodeId v, F&& fn) const {
    for (uint64_t k = offsets_[v]; k < offsets_[v + 1]; ++k) {
      fn(neighbors_[k], weights_[k]);
    }
  }

  /// Samples a neighbor with probability proportional to its edge weight:
  /// one rng.Uniform() scaled by d_v, then a binary search for the first
  /// cumulative weight >= the roll (inverse CDF, O(log degree)).
  NodeId SampleNeighbor(NodeId v, Rng& rng) const {
    const uint64_t lo = offsets_[v], hi = offsets_[v + 1];
    LIGHTNE_CHECK_GT(hi, lo);
    const double roll = rng.Uniform() * cumulative_[hi - 1];
    // First index with cumulative >= roll.
    uint64_t a = lo, b = hi - 1;
    while (a < b) {
      const uint64_t mid = (a + b) / 2;
      if (cumulative_[mid] < roll) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    return neighbors_[a];
  }

  /// Bytes held by weight-proportional sampling state (the per-edge
  /// cumulative weights); graph topology (offsets/neighbors/weights)
  /// excluded.
  uint64_t SamplingBytes() const {
    return cumulative_.size() * sizeof(double);
  }

  uint64_t SizeBytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           neighbors_.size() * sizeof(NodeId) +
           weights_.size() * sizeof(float) +
           weighted_degree_.size() * sizeof(double) + SamplingBytes();
  }

 private:
  NodeId num_vertices_ = 0;
  double total_weight_ = 0;
  std::vector<uint64_t> offsets_;
  std::vector<NodeId> neighbors_;
  std::vector<float> weights_;
  std::vector<double> cumulative_;       // per-vertex running weight sums
  std::vector<double> weighted_degree_;  // per vertex
};

}  // namespace lightne

#endif  // LIGHTNE_GRAPH_WEIGHTED_CSR_H_
