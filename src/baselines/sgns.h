// Skip-gram with negative sampling (word2vec-style), the training core
// shared by the DeepWalk and LINE baselines. These stand in for the
// SGD-based systems the paper compares against (GraphVite trains exactly
// DeepWalk/LINE objectives; PyTorch-BigGraph trains first-order edge models
// with negative sampling).
#ifndef LIGHTNE_BASELINES_SGNS_H_
#define LIGHTNE_BASELINES_SGNS_H_

#include <cstdint>

#include "baselines/alias.h"
#include "graph/graph_view.h"
#include "la/matrix.h"
#include "util/random.h"

namespace lightne {

struct SgnsOptions {
  uint64_t dim = 128;
  uint32_t negatives = 5;
  double learning_rate = 0.025;
  uint64_t seed = 1;
};

/// Two-tower SGNS parameter store with the standard sigmoid updates.
/// TrainPair may run concurrently (Hogwild): it reads and writes the shared
/// rows through relaxed atomics without locks, so concurrent updates to one
/// row may overwrite each other, but they are never a data race.
class SgnsModel {
 public:
  SgnsModel(NodeId num_nodes, const SgnsOptions& opt);

  /// One (center, context) positive update plus `negatives` noise updates
  /// drawn from the alias table.
  void TrainPair(NodeId center, NodeId context, float lr,
                 const AliasTable& noise, Rng& rng);

  /// The input-embedding matrix (the conventional output of SGNS systems).
  const Matrix& embedding() const { return input_; }
  Matrix& mutable_embedding() { return input_; }

  const SgnsOptions& options() const { return opt_; }

 private:
  SgnsOptions opt_;
  Matrix input_;   // n x d
  Matrix output_;  // n x d ("context" vectors)
};

/// Degree^0.75 noise distribution (word2vec unigram convention).
template <GraphView G>
AliasTable DegreeNoiseTable(const G& g) {
  std::vector<double> weights(g.NumVertices());
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    weights[v] = std::pow(static_cast<double>(g.Degree(v)), 0.75);
  }
  // Guard: fully isolated graphs would produce an all-zero table.
  bool any = false;
  for (double w : weights) any |= (w > 0);
  if (!any) {
    for (double& w : weights) w = 1.0;
  }
  return AliasTable(weights);
}

}  // namespace lightne

#endif  // LIGHTNE_BASELINES_SGNS_H_
