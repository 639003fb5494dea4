// Sample-aggregation strategies for sparsifier construction (§4.2).
//
// The paper evaluated two designs before settling on the shared sparse
// parallel hash table:
//   (1) per-worker lists of sampled edges merged with a GBBS-style sparse
//       histogram (sort + segmented reduction), and
//   (2) per-worker hash tables periodically merged.
// This header implements strategy (1) — kSortHistogram — alongside the
// chosen kSharedHashTable, so the decision is reproducible as an ablation
// (bench_ablation_samples). The histogram path needs one record per accepted
// sample (like NetSMF's buffers) but aggregates faster per record at low
// duplication; the hash table wins once duplication is high. Both sum the
// same fixed-point integer weights (core/sparsifier.h), so both are exact.
#ifndef LIGHTNE_CORE_AGGREGATION_H_
#define LIGHTNE_CORE_AGGREGATION_H_

#include <utility>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "parallel/sort.h"

namespace lightne {

enum class AggregationStrategy {
  kSharedHashTable,  // the paper's choice (§4.2)
  kSortHistogram,    // the considered alternative: per-worker lists + sort
};

/// GBBS-style sparse histogram: collapses (key, weight) records into unique
/// (key, total-weight) pairs via a parallel sort and a segmented reduction.
/// Weights are integers (fixed point), so each total is exact. Input is
/// consumed. Output is sorted by key.
std::vector<std::pair<uint64_t, uint64_t>> SortHistogram(
    std::vector<std::pair<uint64_t, uint64_t>> records);

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

  /// Concatenates and histograms all buffers; clears them.
  std::vector<std::pair<uint64_t, uint64_t>> Collapse();

 private:
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> buffers_;
};

}  // namespace lightne

#endif  // LIGHTNE_CORE_AGGREGATION_H_
