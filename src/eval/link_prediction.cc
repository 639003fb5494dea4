#include "eval/link_prediction.h"

#include <algorithm>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "parallel/sort.h"
#include "util/check.h"
#include "util/random.h"

namespace lightne {

namespace {

double Dot(const Matrix& x, NodeId a, NodeId b) {
  const float* ra = x.Row(a);
  const float* rb = x.Row(b);
  double acc = 0;
  for (uint64_t j = 0; j < x.cols(); ++j) {
    acc += static_cast<double>(ra[j]) * rb[j];
  }
  return acc;
}

}  // namespace

EdgeSplit SplitEdges(const EdgeList& clean_symmetric, double test_fraction,
                     uint64_t seed) {
  EdgeSplit split;
  split.train.num_vertices = clean_symmetric.num_vertices;
  const auto& edges = clean_symmetric.edges;
  const uint64_t n = edges.size();
  // Decide per *undirected* edge (u < v); keep both directions together.
  std::vector<uint8_t> hold(n, 0);
  ParallelFor(0, n, [&](uint64_t i) {
    const auto [u, v] = edges[i];
    if (u >= v) return;
    Rng rng = ItemRng(seed ^ 0x5EEDull, PackEdge(u, v));
    hold[i] = rng.Bernoulli(test_fraction) ? 1 : 0;
  });
  split.test_positives = ParallelPack<std::pair<NodeId, NodeId>>(
      n, [&](uint64_t i) { return hold[i] != 0; },
      [&](uint64_t i) { return edges[i]; });
  split.train.edges = ParallelPack<std::pair<NodeId, NodeId>>(
      n,
      [&](uint64_t i) {
        // An edge is kept iff its canonical orientation (u < v) was kept;
        // the reverse direction re-rolls the same per-edge RNG decision.
        const auto [u, v] = edges[i];
        if (u < v) return hold[i] == 0;
        Rng rng = ItemRng(seed ^ 0x5EEDull, PackEdge(v, u));
        return !rng.Bernoulli(test_fraction);
      },
      [&](uint64_t i) { return edges[i]; });
  return split;
}

RankingMetrics EvaluateRanking(
    const Matrix& embedding,
    const std::vector<std::pair<NodeId, NodeId>>& positives,
    uint32_t num_negatives, const std::vector<uint32_t>& ks, uint64_t seed,
    const CsrGraph* filter_graph) {
  RankingMetrics out;
  out.hits_at.assign(ks.size(), 0.0);
  if (positives.empty()) return out;
  const NodeId n = static_cast<NodeId>(embedding.rows());
  // Each positive's rank is computed in parallel; the sums run afterwards in
  // index order, so the floating-point MRR does not depend on the schedule.
  std::vector<uint64_t> ranks(positives.size());
  ParallelFor(
      0, positives.size(),
      [&](uint64_t i) {
        const auto [u, v] = positives[i];
        const double pos_score = Dot(embedding, u, v);
        Rng rng = ItemRng(seed ^ 0xFACEull, i);
        uint64_t better = 0;
        for (uint32_t t = 0; t < num_negatives; ++t) {
          const NodeId w = static_cast<NodeId>(rng.UniformInt(n));
          if (filter_graph != nullptr) {
            // Filtered protocol: true edges are not corruptions.
            if (w == u) continue;
            auto nbrs = filter_graph->Neighbors(u);
            if (std::binary_search(nbrs.begin(), nbrs.end(), w)) continue;
          }
          if (Dot(embedding, u, w) > pos_score) ++better;
        }
        ranks[i] = better + 1;
      },
      /*grain=*/16);
  uint64_t rank_sum = 0;
  double mrr_sum = 0.0;
  std::vector<uint64_t> hits(ks.size(), 0);
  for (const uint64_t rank : ranks) {
    rank_sum += rank;
    mrr_sum += 1.0 / static_cast<double>(rank);
    for (size_t k = 0; k < ks.size(); ++k) {
      if (rank <= ks[k]) ++hits[k];
    }
  }
  const double count = static_cast<double>(positives.size());
  out.mean_rank = static_cast<double>(rank_sum) / count;
  out.mean_reciprocal_rank = mrr_sum / count;
  for (size_t k = 0; k < ks.size(); ++k) {
    out.hits_at[k] = static_cast<double>(hits[k]) / count;
  }
  return out;
}

double EvaluateAuc(const Matrix& embedding,
                   const std::vector<std::pair<NodeId, NodeId>>& positives,
                   uint64_t seed) {
  if (positives.empty()) return 0.5;
  const NodeId n = static_cast<NodeId>(embedding.rows());
  const uint64_t count = positives.size();
  // Score positives and an equal number of random pairs, then compute AUC by
  // rank-sum (ties get half credit).
  std::vector<std::pair<double, uint8_t>> scored(2 * count);
  ParallelFor(
      0, count,
      [&](uint64_t i) {
        scored[i] = {Dot(embedding, positives[i].first, positives[i].second),
                     1};
        Rng rng = ItemRng(seed ^ 0xA0Cull, i);
        const NodeId a = static_cast<NodeId>(rng.UniformInt(n));
        const NodeId b = static_cast<NodeId>(rng.UniformInt(n));
        scored[count + i] = {Dot(embedding, a, b), 0};
      },
      /*grain=*/64);
  ParallelSort(scored.data(), scored.size());
  // Sum ranks of positives (1-based). Equal scores: average rank is
  // approximated adequately by sorted order for continuous scores.
  double rank_sum = 0;
  for (uint64_t r = 0; r < scored.size(); ++r) {
    if (scored[r].second == 1) rank_sum += static_cast<double>(r + 1);
  }
  const double pos = static_cast<double>(count);
  const double neg = static_cast<double>(count);
  return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg);
}

}  // namespace lightne
