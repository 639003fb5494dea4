#include "core/aggregation.h"

namespace lightne {

std::vector<std::pair<uint64_t, uint64_t>> SortHistogram(
    std::vector<std::pair<uint64_t, uint64_t>> records) {
  const uint64_t n = records.size();
  if (n == 0) return records;
  ParallelSort(records.data(), n,
               [](const auto& a, const auto& b) { return a.first < b.first; });
  // Segmented reduction over equal-key runs: mark heads, pack them, sum runs.
  std::vector<uint64_t> heads = ParallelPack<uint64_t>(
      n,
      [&](uint64_t k) {
        return k == 0 || records[k].first != records[k - 1].first;
      },
      [](uint64_t k) { return k; });
  std::vector<std::pair<uint64_t, uint64_t>> unique(heads.size());
  ParallelFor(
      0, heads.size(),
      [&](uint64_t h) {
        const uint64_t lo = heads[h];
        const uint64_t hi = (h + 1 < heads.size()) ? heads[h + 1] : n;
        uint64_t sum = 0;
        for (uint64_t k = lo; k < hi; ++k) sum += records[k].second;
        unique[h] = {records[lo].first, sum};
      },
      /*grain=*/1024);
  return unique;
}

std::vector<std::pair<uint64_t, uint64_t>> WorkerBuffers::Collapse() {
  uint64_t total = 0;
  for (const auto& b : buffers_) total += b.size();
  std::vector<std::pair<uint64_t, uint64_t>> all;
  all.reserve(total);
  for (auto& b : buffers_) {
    all.insert(all.end(), b.begin(), b.end());
    b.clear();
    b.shrink_to_fit();
  }
  return SortHistogram(std::move(all));
}

}  // namespace lightne
