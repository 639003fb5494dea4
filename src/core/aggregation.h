// Sample-aggregation strategies for sparsifier construction (§4.2).
//
// The paper evaluated two designs before settling on the shared sparse
// parallel hash table:
//   (1) per-worker lists of sampled edges merged with a GBBS-style sparse
//       histogram (sort + segmented reduction), and
//   (2) per-worker hash tables periodically merged.
// This header keeps strategy (1) — kSortHistogram — beside the chosen
// kSharedHashTable, so the decision is reproducible as an ablation
// (bench_ablation_samples). Its lists are WorkerBuffers, which the NetSMF
// baseline keeps its records in too; both fill them from the table pass's
// schedule (internal::RunPerEdgeSamplingInto, core/sparsifier.h). The
// histogram itself is SortHistogram (parallel/sort.h), the one sort-and-sum
// that SparseMatrix::FromEntries and WeightedCsrGraph::FromEdges build on
// too. The histogram path needs one record per accepted sample (like
// NetSMF's buffers) but aggregates faster per record at low duplication;
// the hash table wins once duplication is high. Both sum the same
// fixed-point integer weights (core/sparsifier.h), so both are exact.
#ifndef LIGHTNE_CORE_AGGREGATION_H_
#define LIGHTNE_CORE_AGGREGATION_H_

#include <cstdint>
#include <vector>

namespace lightne {

enum class AggregationStrategy {
  kSharedHashTable,  // the paper's choice (§4.2)
  kSortHistogram,    // the considered alternative: per-worker lists + sort
};

/// One record list per worker.
template <typename Record>
class WorkerBuffers {
 public:
  explicit WorkerBuffers(int workers)
      : lists_(static_cast<size_t>(workers)) {}

  void Add(int worker, const Record& record) {
    lists_[static_cast<size_t>(worker)].push_back(record);
  }

  /// Bytes of the records held (the strategy's memory footprint): a
  /// function of the samples alone, whatever the worker count or the
  /// lists' spare capacity.
  uint64_t MemoryBytes() const {
    uint64_t records = 0;
    for (const std::vector<Record>& list : lists_) records += list.size();
    return records * sizeof(Record);
  }

  /// Every record, the lists concatenated in worker order; each list is
  /// freed once copied.
  std::vector<Record> TakeAll() {
    std::vector<Record> all;
    all.reserve(MemoryBytes() / sizeof(Record));
    for (std::vector<Record>& list : lists_) {
      all.insert(all.end(), list.begin(), list.end());
      std::vector<Record>().swap(list);
    }
    return all;
  }

 private:
  std::vector<std::vector<Record>> lists_;
};

}  // namespace lightne

#endif  // LIGHTNE_CORE_AGGREGATION_H_
