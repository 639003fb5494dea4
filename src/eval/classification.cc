#include "eval/classification.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "parallel/atomics.h"
#include "parallel/parallel_for.h"
#include "util/check.h"
#include "util/random.h"

namespace lightne {

namespace {

inline double Sigmoid(double x) {
  if (x > 30) return 1.0;
  if (x < -30) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

// Writes the (optionally normalized) feature row plus a trailing bias 1.
void LoadFeature(const Matrix& features, NodeId v, bool normalize,
                 std::vector<float>* x) {
  const uint64_t d = features.cols();
  x->resize(d + 1);
  const float* row = features.Row(v);
  double norm = 1.0;
  if (normalize) {
    double sq = 0;
    for (uint64_t j = 0; j < d; ++j) {
      sq += static_cast<double>(row[j]) * row[j];
    }
    norm = sq > 0 ? std::sqrt(sq) : 1.0;
  }
  const float inv = static_cast<float>(1.0 / norm);
  for (uint64_t j = 0; j < d; ++j) (*x)[j] = row[j] * inv;
  (*x)[d] = 1.0f;
}

// One Hogwild SGD step (Recht et al., 2011): reads and updates every label's
// weight row for node `v` without locking. Conflicting updates from
// concurrent workers are sparse and perturb SGD less than locking would
// cost; the relaxed atomic accesses make them lost updates, not races.
void HogwildStep(const Matrix& features, const MultiLabels& labels, NodeId v,
                 bool normalize, uint32_t num_labels, uint64_t dim, float lr,
                 float decay, float* weights) {
  std::vector<float> x;
  LoadFeature(features, v, normalize, &x);
  auto lv = labels.LabelsOf(v);
  size_t li = 0;
  for (uint32_t l = 0; l < num_labels; ++l) {
    while (li < lv.size() && lv[li] < l) ++li;
    const float y = (li < lv.size() && lv[li] == l) ? 1.0f : 0.0f;
    float* w = weights + static_cast<size_t>(l) * dim;
    double dot = 0;
    for (uint64_t j = 0; j < dim; ++j) dot += HogwildLoad(w[j]) * x[j];
    const float g = static_cast<float>(Sigmoid(dot)) - y;
    const float step = lr * g;
    for (uint64_t j = 0; j < dim; ++j) {
      HogwildStore(w[j], decay * HogwildLoad(w[j]) - step * x[j]);
    }
  }
}

}  // namespace

OneVsRestLogReg OneVsRestLogReg::Train(const Matrix& features,
                                       const MultiLabels& labels,
                                       const std::vector<NodeId>& train_nodes,
                                       const LogRegOptions& opt) {
  OneVsRestLogReg model;
  model.num_labels_ = labels.num_labels;
  model.dim_ = features.cols() + 1;
  model.normalize_ = opt.normalize_rows;
  model.weights_.assign(static_cast<size_t>(model.num_labels_) * model.dim_,
                        0.0f);
  if (train_nodes.empty() || model.num_labels_ == 0) return model;

  std::vector<NodeId> order = train_nodes;
  Rng shuffle_rng(opt.seed ^ 0x10C4E6ull);
  for (uint32_t epoch = 0; epoch < opt.epochs; ++epoch) {
    // Fisher–Yates shuffle each epoch.
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle_rng.UniformInt(i)]);
    }
    const float lr = static_cast<float>(opt.learning_rate /
                                        (1.0 + 0.5 * epoch));
    const float decay = static_cast<float>(1.0 - opt.learning_rate * opt.l2);
    // Hogwild-style: concurrent unlocked updates are benign for SGD (see
    // HogwildStep).
    ParallelFor(
        0, order.size(),
        [&](uint64_t i) {
          HogwildStep(features, labels, order[i], model.normalize_,
                      model.num_labels_, model.dim_, lr, decay,
                      model.weights_.data());
        },
        /*grain=*/16);
  }
  return model;
}

std::vector<double> OneVsRestLogReg::Scores(const Matrix& features,
                                            NodeId v) const {
  std::vector<float> x;
  LoadFeature(features, v, normalize_, &x);
  std::vector<double> scores(num_labels_, 0.0);
  for (uint32_t l = 0; l < num_labels_; ++l) {
    const float* w = weights_.data() + static_cast<size_t>(l) * dim_;
    double dot = 0;
    for (uint64_t j = 0; j < dim_; ++j) dot += w[j] * x[j];
    scores[l] = dot;
  }
  return scores;
}

std::vector<uint32_t> OneVsRestLogReg::PredictTopK(const Matrix& features,
                                                   NodeId v,
                                                   uint32_t k) const {
  std::vector<double> scores = Scores(features, v);
  std::vector<uint32_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  if (k > idx.size()) k = static_cast<uint32_t>(idx.size());
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](uint32_t a, uint32_t b) {
                      return scores[a] > scores[b];
                    });
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

F1Scores EvaluateF1(const OneVsRestLogReg& model, const Matrix& features,
                    const MultiLabels& labels,
                    const std::vector<NodeId>& test_nodes) {
  const uint32_t num_labels = model.num_labels();
  std::vector<std::atomic<uint64_t>> tp(num_labels), fp(num_labels),
      fn(num_labels);
  for (uint32_t l = 0; l < num_labels; ++l) {
    tp[l].store(0);
    fp[l].store(0);
    fn[l].store(0);
  }
  ParallelFor(
      0, test_nodes.size(),
      [&](uint64_t i) {
        const NodeId v = test_nodes[i];
        auto truth = labels.LabelsOf(v);
        if (truth.empty()) return;
        auto pred =
            model.PredictTopK(features, v, static_cast<uint32_t>(truth.size()));
        // Both lists sorted: merge to count tp/fp/fn.
        size_t a = 0, b = 0;
        while (a < truth.size() || b < pred.size()) {
          if (a < truth.size() && b < pred.size() && truth[a] == pred[b]) {
            tp[truth[a]].fetch_add(1, std::memory_order_relaxed);
            ++a;
            ++b;
          } else if (b >= pred.size() ||
                     (a < truth.size() && truth[a] < pred[b])) {
            fn[truth[a]].fetch_add(1, std::memory_order_relaxed);
            ++a;
          } else {
            fp[pred[b]].fetch_add(1, std::memory_order_relaxed);
            ++b;
          }
        }
      },
      /*grain=*/16);

  F1Scores out;
  uint64_t tp_total = 0, fp_total = 0, fn_total = 0;
  double macro_sum = 0;
  uint32_t macro_count = 0;
  for (uint32_t l = 0; l < num_labels; ++l) {
    const uint64_t tpl = tp[l].load(), fpl = fp[l].load(), fnl = fn[l].load();
    tp_total += tpl;
    fp_total += fpl;
    fn_total += fnl;
    if (tpl + fnl == 0) continue;  // label absent from ground truth
    const double denom = 2.0 * tpl + fpl + fnl;
    macro_sum += denom > 0 ? 2.0 * tpl / denom : 0.0;
    ++macro_count;
  }
  const double micro_denom = 2.0 * tp_total + fp_total + fn_total;
  out.micro = micro_denom > 0 ? 2.0 * tp_total / micro_denom : 0.0;
  out.macro = macro_count > 0 ? macro_sum / macro_count : 0.0;
  return out;
}

F1Scores EvaluateNodeClassification(const Matrix& features,
                                    const MultiLabels& labels,
                                    double train_ratio, uint64_t seed,
                                    const LogRegOptions& opt) {
  LIGHTNE_CHECK_GT(train_ratio, 0.0);
  LIGHTNE_CHECK_LT(train_ratio, 1.0);
  std::vector<NodeId> labeled;
  for (NodeId v = 0; v < labels.NumNodes(); ++v) {
    if (!labels.LabelsOf(v).empty()) labeled.push_back(v);
  }
  Rng rng(seed ^ 0xC1A55ull);
  for (size_t i = labeled.size(); i > 1; --i) {
    std::swap(labeled[i - 1], labeled[rng.UniformInt(i)]);
  }
  const size_t train_count = std::max<size_t>(
      1, static_cast<size_t>(train_ratio * static_cast<double>(labeled.size())));
  std::vector<NodeId> train(labeled.begin(), labeled.begin() + train_count);
  std::vector<NodeId> test(labeled.begin() + train_count, labeled.end());
  LogRegOptions train_opt = opt;
  train_opt.seed = seed;
  OneVsRestLogReg model =
      OneVsRestLogReg::Train(features, labels, train, train_opt);
  return EvaluateF1(model, features, labels, test);
}

}  // namespace lightne
