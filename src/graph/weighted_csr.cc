#include "graph/weighted_csr.h"

#include <utility>

#include "parallel/scan.h"
#include "parallel/sort.h"

namespace lightne {

WeightedCsrGraph WeightedCsrGraph::FromEdges(WeightedEdgeList list) {
  // Both directions of every edge but self loops. The histogram sums the
  // weights of duplicate edges in float, in one order for any worker count.
  std::vector<std::pair<uint64_t, float>> records;
  records.reserve(2 * list.edges.size());
  for (const auto& [u, v, w] : list.edges) {
    LIGHTNE_CHECK_LT(u, list.num_vertices);
    LIGHTNE_CHECK_LT(v, list.num_vertices);
    LIGHTNE_CHECK_GT(w, 0.0f);
    if (u == v) continue;
    records.push_back({PackEdge(u, v), w});
    records.push_back({PackEdge(v, u), w});
  }
  list.edges = {};
  const std::vector<std::pair<uint64_t, float>> edges =
      SortHistogram(std::move(records));

  WeightedCsrGraph g;
  g.num_vertices_ = list.num_vertices;
  g.offsets_ = RowOffsets(g.num_vertices_, edges.size(),
                          [&](uint64_t k) { return edges[k].first >> 32; });
  g.neighbors_.resize(edges.size());
  g.weights_.resize(edges.size());
  ParallelFor(0, edges.size(), [&](uint64_t k) {
    g.neighbors_[k] = static_cast<NodeId>(edges[k].first & 0xffffffffull);
    g.weights_[k] = edges[k].second;
  });

  // Cumulative weights and weighted degrees.
  g.cumulative_.resize(g.weights_.size());
  g.weighted_degree_.assign(g.num_vertices_, 0.0);
  ParallelFor(0, g.num_vertices_, [&](uint64_t v) {
    double running = 0;
    for (uint64_t k = g.offsets_[v]; k < g.offsets_[v + 1]; ++k) {
      running += g.weights_[k];
      g.cumulative_[k] = running;
    }
    g.weighted_degree_[v] = running;
  });
  double total = 0;
  for (NodeId v = 0; v < g.num_vertices_; ++v) {
    total += g.weighted_degree_[v];
  }
  g.total_weight_ = total;
  return g;
}

}  // namespace lightne
