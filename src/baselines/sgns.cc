#include "baselines/sgns.h"

#include <cmath>

#include "parallel/atomics.h"

namespace lightne {

namespace {

inline float FastSigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

SgnsModel::SgnsModel(NodeId num_nodes, const SgnsOptions& opt)
    : opt_(opt), input_(num_nodes, opt.dim), output_(num_nodes, opt.dim) {
  // word2vec init: input uniform in [-0.5/d, 0.5/d), output zero.
  const float scale = 1.0f / static_cast<float>(opt.dim);
  Rng rng(opt.seed ^ 0x5635ull);
  for (uint64_t k = 0; k < input_.rows() * input_.cols(); ++k) {
    input_.data()[k] = (static_cast<float>(rng.Uniform()) - 0.5f) * scale;
  }
}

void SgnsModel::TrainPair(NodeId center, NodeId context, float lr,
                          const AliasTable& noise, Rng& rng) {
  const uint64_t d = opt_.dim;
  float* in = input_.Row(center);
  // Accumulate the input-vector gradient across the positive + negatives.
  float grad_in[512];
  LIGHTNE_CHECK_LE(d, 512u);
  for (uint64_t j = 0; j < d; ++j) grad_in[j] = 0.0f;
  for (uint32_t t = 0; t <= opt_.negatives; ++t) {
    NodeId target;
    float label;
    if (t == 0) {
      target = context;
      label = 1.0f;
    } else {
      target = static_cast<NodeId>(noise.Sample(rng));
      if (target == context) continue;
      label = 0.0f;
    }
    float* out = output_.Row(target);
    float dot = 0;
    for (uint64_t j = 0; j < d; ++j) {
      dot += HogwildLoad(in[j]) * HogwildLoad(out[j]);
    }
    const float g = (label - FastSigmoid(dot)) * lr;
    for (uint64_t j = 0; j < d; ++j) {
      const float o = HogwildLoad(out[j]);
      grad_in[j] += g * o;
      HogwildStore(out[j], o + g * HogwildLoad(in[j]));
    }
  }
  for (uint64_t j = 0; j < d; ++j) {
    HogwildStore(in[j], HogwildLoad(in[j]) + grad_in[j]);
  }
}

}  // namespace lightne
