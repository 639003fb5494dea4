// DeepWalk (Perozzi et al., KDD'14): truncated random walks + skip-gram with
// negative sampling. This is the algorithm GraphVite executes on its GPU
// side; here it serves as the GraphVite accuracy/latency stand-in
// (DESIGN.md §1).
#ifndef LIGHTNE_BASELINES_DEEPWALK_H_
#define LIGHTNE_BASELINES_DEEPWALK_H_

#include "baselines/sgns.h"
#include "graph/graph_view.h"
#include "graph/walk_cursor.h"
#include "graph/weights.h"
#include "la/matrix.h"
#include "parallel/parallel_for.h"

namespace lightne {

struct DeepWalkOptions {
  uint64_t dim = 128;
  uint32_t walks_per_node = 10;
  uint32_t walk_length = 40;
  uint32_t window = 10;
  uint32_t negatives = 5;
  uint32_t epochs = 1;
  double learning_rate = 0.025;
  uint64_t seed = 1;
};

/// Trains DeepWalk embeddings. Walks are regenerated per epoch from
/// deterministic per-(epoch, node, walk) RNG streams; SGNS updates are
/// Hogwild-parallel over walks.
template <GraphView G>
Matrix TrainDeepWalk(const G& g, const DeepWalkOptions& opt) {
  const NodeId n = g.NumVertices();
  SgnsOptions sopt;
  sopt.dim = opt.dim;
  sopt.negatives = opt.negatives;
  sopt.learning_rate = opt.learning_rate;
  sopt.seed = opt.seed;
  SgnsModel model(n, sopt);
  AliasTable noise = DegreeNoiseTable(g);

  const uint64_t total_walks =
      static_cast<uint64_t>(n) * opt.walks_per_node * opt.epochs;
  std::atomic<uint64_t> done{0};
  ParallelFor(
      0, total_walks,
      [&](uint64_t item) {
        Rng rng = ItemRng(opt.seed ^ 0xD33Bull, item);
        const NodeId start = static_cast<NodeId>(item % n);
        if (g.Degree(start) == 0) return;
        // Linear learning-rate decay, word2vec style.
        const double progress =
            static_cast<double>(done.fetch_add(1, std::memory_order_relaxed)) /
            static_cast<double>(total_walks);
        const float lr = static_cast<float>(
            opt.learning_rate * std::max(0.05, 1.0 - progress));
        // Generate the walk.
        NodeId walk[512];
        uint32_t len = std::min<uint32_t>(opt.walk_length, 512);
        walk[0] = start;
        WalkContext<G> ctx;
        for (uint32_t s = 1; s < len; ++s) {
          walk[s] = SampleNeighborProportional(g, ctx, walk[s - 1], rng);
        }
        // Skip-gram pairs within a per-position random-shrunk window.
        for (uint32_t i = 0; i < len; ++i) {
          const uint32_t w = 1 + static_cast<uint32_t>(
                                     rng.UniformInt(opt.window));
          const uint32_t lo = i >= w ? i - w : 0;
          const uint32_t hi = std::min(len - 1, i + w);
          for (uint32_t j = lo; j <= hi; ++j) {
            if (j == i) continue;
            model.TrainPair(walk[i], walk[j], lr, noise, rng);
          }
        }
      },
      /*grain=*/8);
  return model.embedding();
}

}  // namespace lightne

#endif  // LIGHTNE_BASELINES_DEEPWALK_H_
