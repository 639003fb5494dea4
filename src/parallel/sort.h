// Parallel comparison sort (sample sort): sample pivots, histogram + scatter
// into buckets in parallel, sort buckets in parallel. Falls back to
// std::sort for small inputs or nested contexts. SortHistogram, the sparse
// histogram (sort + segmented sum) every key-summing builder uses, sits on it.
#ifndef LIGHTNE_PARALLEL_SORT_H_
#define LIGHTNE_PARALLEL_SORT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "util/random.h"

namespace lightne {

template <typename T, typename Comp = std::less<T>>
void ParallelSort(T* data, uint64_t n, Comp comp = Comp()) {
  constexpr uint64_t kSeqCutoff = 1u << 14;
  const int workers = NumWorkers();
  if (InParallelRegion() || workers == 1 || n <= kSeqCutoff) {
    std::sort(data, data + n, comp);
    return;
  }

  // --- choose pivots ------------------------------------------------------
  const uint64_t num_buckets =
      std::min<uint64_t>(static_cast<uint64_t>(workers) * 4, n / 1024 + 1);
  if (num_buckets <= 1) {
    std::sort(data, data + n, comp);
    return;
  }
  const uint64_t oversample = 8;
  Rng rng(0x5317bee5u ^ n);
  std::vector<T> sample;
  sample.reserve(num_buckets * oversample);
  for (uint64_t i = 0; i < num_buckets * oversample; ++i) {
    sample.push_back(data[rng.UniformInt(n)]);
  }
  std::sort(sample.begin(), sample.end(), comp);
  std::vector<T> pivots(num_buckets - 1);
  for (uint64_t b = 0; b + 1 < num_buckets; ++b) {
    pivots[b] = sample[(b + 1) * oversample];
  }

  auto bucket_of = [&](const T& v) -> uint64_t {
    return static_cast<uint64_t>(
        std::upper_bound(pivots.begin(), pivots.end(), v, comp) -
        pivots.begin());
  };

  // --- per-chunk histograms ----------------------------------------------
  uint64_t chunk = (n + static_cast<uint64_t>(workers) * 4 - 1) /
                   (static_cast<uint64_t>(workers) * 4);
  if (chunk < 4096) chunk = 4096;
  const uint64_t num_chunks = (n + chunk - 1) / chunk;
  // counts[c * num_buckets + b] = #elements of chunk c landing in bucket b.
  std::vector<uint64_t> counts(num_chunks * num_buckets, 0);
  ParallelFor(
      0, num_chunks,
      [&](uint64_t c) {
        const uint64_t lo = c * chunk;
        const uint64_t hi = std::min(lo + chunk, n);
        uint64_t* row = counts.data() + c * num_buckets;
        for (uint64_t i = lo; i < hi; ++i) ++row[bucket_of(data[i])];
      },
      /*grain=*/1);

  // Column-major scan: bucket-by-bucket so bucket contents are contiguous.
  std::vector<uint64_t> offsets(num_chunks * num_buckets);
  uint64_t running = 0;
  std::vector<uint64_t> bucket_start(num_buckets + 1);
  for (uint64_t b = 0; b < num_buckets; ++b) {
    bucket_start[b] = running;
    for (uint64_t c = 0; c < num_chunks; ++c) {
      offsets[c * num_buckets + b] = running;
      running += counts[c * num_buckets + b];
    }
  }
  bucket_start[num_buckets] = running;

  // --- scatter -------------------------------------------------------------
  std::vector<T> tmp(n);
  ParallelFor(
      0, num_chunks,
      [&](uint64_t c) {
        const uint64_t lo = c * chunk;
        const uint64_t hi = std::min(lo + chunk, n);
        uint64_t* row = offsets.data() + c * num_buckets;
        for (uint64_t i = lo; i < hi; ++i) {
          tmp[row[bucket_of(data[i])]++] = data[i];
        }
      },
      /*grain=*/1);

  // --- sort buckets ---------------------------------------------------------
  ParallelFor(
      0, num_buckets,
      [&](uint64_t b) {
        std::sort(tmp.begin() + bucket_start[b], tmp.begin() + bucket_start[b + 1],
                  comp);
      },
      /*grain=*/1);
  ParallelFor(0, n, [&](uint64_t i) { data[i] = tmp[i]; }, /*grain=*/8192);
}

template <typename T, typename Comp = std::less<T>>
void ParallelSort(std::vector<T>& data, Comp comp = Comp()) {
  ParallelSort(data.data(), data.size(), comp);
}

/// GBBS-style sparse histogram (§4.2): collapses (key, value) records into
/// one (key, sum) pair per distinct key, sorted by key — a parallel sort and
/// a segmented sum. Records are sorted by key, then by the bit pattern of
/// the value, a total order (NaN included), so each key's values are summed
/// in one order whatever the worker count and the input order, and a
/// floating-point sum is bit-identical for any schedule. Input is consumed.
template <typename V>
std::vector<std::pair<uint64_t, V>> SortHistogram(
    std::vector<std::pair<uint64_t, V>> records) {
  static_assert(sizeof(V) == 4 || sizeof(V) == 8);
  using Bits = std::conditional_t<sizeof(V) == 8, uint64_t, uint32_t>;
  const uint64_t n = records.size();
  ParallelSort(records.data(), n, [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : std::bit_cast<Bits>(a.second) <
                                    std::bit_cast<Bits>(b.second);
  });
  // Segmented sum over equal-key runs: pack the run heads, sum each run.
  const std::vector<uint64_t> heads = ParallelPack<uint64_t>(
      n,
      [&](uint64_t k) {
        return k == 0 || records[k].first != records[k - 1].first;
      },
      [](uint64_t k) { return k; });
  std::vector<std::pair<uint64_t, V>> sums(heads.size());
  ParallelFor(
      0, heads.size(),
      [&](uint64_t h) {
        const uint64_t hi = h + 1 < heads.size() ? heads[h + 1] : n;
        V sum{};
        for (uint64_t k = heads[h]; k < hi; ++k) sum += records[k].second;
        sums[h] = {records[heads[h]].first, sum};
      },
      /*grain=*/1024);
  return sums;
}

}  // namespace lightne

#endif  // LIGHTNE_PARALLEL_SORT_H_
