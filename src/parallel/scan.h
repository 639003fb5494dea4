// Parallel exclusive prefix sums, scan-based pack/filter and the CSR row
// offsets of sorted entries. These are the workhorses behind CSR
// construction, compressed-graph encoding (per-vertex byte offsets) and the
// sort-histogram aggregation.
#ifndef LIGHTNE_PARALLEL_SCAN_H_
#define LIGHTNE_PARALLEL_SCAN_H_

#include <cstdint>
#include <vector>

#include "parallel/parallel_for.h"
#include "util/check.h"

namespace lightne {

/// In-place exclusive prefix sum over data[0..n); returns the total.
/// Two-pass block algorithm: per-block sums, sequential scan of block sums,
/// then per-block local scans.
template <typename T>
T ParallelScanExclusive(T* data, uint64_t n) {
  if (n == 0) return T{};
  const int workers = NumWorkers();
  const uint64_t kMinBlock = 4096;
  if (InParallelRegion() || workers == 1 || n <= kMinBlock) {
    T running{};
    for (uint64_t i = 0; i < n; ++i) {
      T v = data[i];
      data[i] = running;
      running += v;
    }
    return running;
  }
  uint64_t block = n / (static_cast<uint64_t>(workers) * 4);
  if (block < kMinBlock) block = kMinBlock;
  const uint64_t num_blocks = (n + block - 1) / block;
  std::vector<T> block_sum(num_blocks);
  ParallelFor(
      0, num_blocks,
      [&](uint64_t b) {
        const uint64_t lo = b * block;
        uint64_t hi = lo + block;
        if (hi > n) hi = n;
        T s{};
        for (uint64_t i = lo; i < hi; ++i) s += data[i];
        block_sum[b] = s;
      },
      /*grain=*/1);
  T total{};
  for (uint64_t b = 0; b < num_blocks; ++b) {
    T v = block_sum[b];
    block_sum[b] = total;
    total += v;
  }
  ParallelFor(
      0, num_blocks,
      [&](uint64_t b) {
        const uint64_t lo = b * block;
        uint64_t hi = lo + block;
        if (hi > n) hi = n;
        T running = block_sum[b];
        for (uint64_t i = lo; i < hi; ++i) {
          T v = data[i];
          data[i] = running;
          running += v;
        }
      },
      /*grain=*/1);
  return total;
}

/// Vector convenience overload.
template <typename T>
T ParallelScanExclusive(std::vector<T>& data) {
  return ParallelScanExclusive(data.data(), data.size());
}

/// Returns the elements make(i) for which pred(i) holds, for i in [0, n),
/// preserving index order. `make(i)` is only evaluated when pred(i) is true.
template <typename T, typename Pred, typename Make>
std::vector<T> ParallelPack(uint64_t n, Pred&& pred, Make&& make) {
  std::vector<uint64_t> flags(n);
  ParallelFor(0, n, [&](uint64_t i) { flags[i] = pred(i) ? 1 : 0; });
  const uint64_t total = ParallelScanExclusive(flags.data(), n);
  std::vector<T> out(total);
  ParallelFor(0, n, [&](uint64_t i) {
    const bool keep = (i + 1 < n) ? (flags[i + 1] != flags[i])
                                  : (flags[i] != total);
    if (keep) out[flags[i]] = make(i);
  });
  return out;
}

/// CSR offsets of n entries whose row ids row_of(0) <= ... <= row_of(n - 1)
/// are sorted and below `rows`: offsets[r] is the first entry in row r or
/// later, offsets[rows] = n. One parallel pass and no counts: entry k
/// writes the offset of every row that starts at k (those after entry
/// k - 1's row, up to its own), and k = n the rows after the last entry's.
template <typename RowOf>
std::vector<uint64_t> RowOffsets(uint64_t rows, uint64_t n, RowOf&& row_of) {
  std::vector<uint64_t> offsets(rows + 1);
  ParallelFor(0, n + 1, [&](uint64_t k) {
    const uint64_t first = k == 0 ? 0 : row_of(k - 1) + 1;
    const uint64_t last = k < n ? row_of(k) : rows;
    LIGHTNE_CHECK(first <= last + 1 && (k == n || last < rows));
    for (uint64_t r = first; r <= last; ++r) offsets[r] = k;
  });
  return offsets;
}

}  // namespace lightne

#endif  // LIGHTNE_PARALLEL_SCAN_H_
