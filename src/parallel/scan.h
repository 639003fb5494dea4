// Parallel exclusive prefix sums and scan-based pack/filter. These are the
// workhorses behind CSR construction, compressed-graph encoding (per-vertex
// byte offsets) and the sort-histogram aggregation.
#ifndef LIGHTNE_PARALLEL_SCAN_H_
#define LIGHTNE_PARALLEL_SCAN_H_

#include <cstdint>
#include <vector>

#include "parallel/parallel_for.h"

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

}  // namespace lightne

#endif  // LIGHTNE_PARALLEL_SCAN_H_
