// Sample-aggregation strategies for sparsifier construction (§4.2).
//
// The paper evaluated two designs before settling on the shared sparse
// parallel hash table:
//   (1) per-worker lists of sampled edges merged with a GBBS-style sparse
//       histogram (sort + segmented reduction), and
//   (2) per-worker hash tables periodically merged.
// This header keeps strategy (1) — kSortHistogram — beside the chosen
// kSharedHashTable, so the decision is reproducible as an ablation
// (bench_ablation_samples). The histogram itself is SortHistogram
// (parallel/sort.h), the one sort-and-sum that SparseMatrix::FromEntries and
// WeightedCsrGraph::FromEdges build on too. The histogram path needs one
// record per accepted sample (like NetSMF's buffers) but aggregates faster
// per record at low duplication; the hash table wins once duplication is
// high. Both sum the same fixed-point integer weights (core/sparsifier.h),
// so both are exact.
#ifndef LIGHTNE_CORE_AGGREGATION_H_
#define LIGHTNE_CORE_AGGREGATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/sort.h"

namespace lightne {

enum class AggregationStrategy {
  kSharedHashTable,  // the paper's choice (§4.2)
  kSortHistogram,    // the considered alternative: per-worker lists + sort
};

/// Per-worker record buffers for the kSortHistogram strategy.
class WorkerBuffers {
 public:
  explicit WorkerBuffers(int workers) : buffers_(workers) {}

  void Add(int worker, uint64_t key, uint64_t weight) {
    buffers_[worker].push_back({key, weight});
  }

  /// Total bytes currently held (the strategy's memory footprint).
  uint64_t MemoryBytes() const {
    uint64_t total = 0;
    for (const auto& b : buffers_) {
      total += b.capacity() * sizeof(std::pair<uint64_t, uint64_t>);
    }
    return total;
  }

  uint64_t NumRecords() const {
    uint64_t total = 0;
    for (const auto& b : buffers_) total += b.size();
    return total;
  }

  /// Concatenates and histograms all buffers, clearing them: one (key,
  /// total weight) pair per distinct key, sorted by key.
  std::vector<std::pair<uint64_t, uint64_t>> Collapse() {
    std::vector<std::pair<uint64_t, uint64_t>> all;
    all.reserve(NumRecords());
    for (auto& b : buffers_) {
      all.insert(all.end(), b.begin(), b.end());
      b.clear();
      b.shrink_to_fit();
    }
    return SortHistogram(std::move(all));
  }

 private:
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> buffers_;
};

}  // namespace lightne

#endif  // LIGHTNE_CORE_AGGREGATION_H_
