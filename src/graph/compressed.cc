#include "graph/compressed.h"

#include <algorithm>
#include <numeric>

#include "parallel/scan.h"
#include "parallel/sort.h"
#include "util/metrics.h"

namespace lightne {

CompressedGraph CompressedGraph::FromCsr(const CsrGraph& g,
                                         uint32_t block_size) {
  LIGHTNE_CHECK_GE(block_size, 1u);
  CompressedGraph cg;
  cg.num_vertices_ = g.NumVertices();
  cg.num_directed_edges_ = g.NumDirectedEdges();
  cg.block_size_ = block_size;
  const NodeId n = cg.num_vertices_;

  cg.degrees_.resize(n);
  ParallelFor(0, n, [&](uint64_t v) {
    cg.degrees_[v] = static_cast<NodeId>(g.Degree(static_cast<NodeId>(v)));
  });

  // Pass 1: per-vertex encoded sizes.
  cg.vertex_offset_.assign(static_cast<size_t>(n) + 1, 0);
  ParallelFor(
      0, n,
      [&](uint64_t vi) {
        const NodeId v = static_cast<NodeId>(vi);
        const uint64_t d = g.Degree(v);
        if (d == 0) return;
        const uint64_t nblocks = cg.NumBlocks(d);
        uint64_t bytes = 4 * (nblocks - 1);  // block offset table
        auto nbrs = g.Neighbors(v);
        for (uint64_t b = 0; b < nblocks; ++b) {
          const uint64_t lo = b * block_size;
          const uint64_t hi = std::min<uint64_t>(lo + block_size, d);
          bytes += VarintSize(Zigzag(static_cast<int64_t>(nbrs[lo]) -
                                     static_cast<int64_t>(v)));
          for (uint64_t i = lo + 1; i < hi; ++i) {
            bytes += VarintSize(nbrs[i] - nbrs[i - 1]);
          }
        }
        LIGHTNE_CHECK_MSG(bytes < (1ull << 32),
                          "per-vertex encoded region exceeds 4 GiB");
        cg.vertex_offset_[vi + 1] = bytes;
      },
      /*grain=*/256);

  // Scan to vertex offsets.
  std::vector<uint64_t> sizes(n);
  ParallelFor(0, n, [&](uint64_t v) { sizes[v] = cg.vertex_offset_[v + 1]; });
  ParallelScanExclusive(cg.vertex_offset_.data() + 1, n);
  ParallelFor(0, n,
              [&](uint64_t v) { cg.vertex_offset_[v + 1] += sizes[v]; });
  const uint64_t total_bytes = cg.vertex_offset_[n];
  cg.encoded_bytes_ = total_bytes;
  // Trailing slack keeps 16-byte SIMD loads in bounds even when a decode
  // starts at the stream's last byte (graph/varint_simd.h contract).
  cg.bytes_.resize(total_bytes + kVarintDecodeSlack);

  // Pass 2: encode in place.
  ParallelFor(
      0, n,
      [&](uint64_t vi) {
        const NodeId v = static_cast<NodeId>(vi);
        const uint64_t d = g.Degree(v);
        if (d == 0) return;
        const uint64_t nblocks = cg.NumBlocks(d);
        uint8_t* region = cg.bytes_.data() + cg.vertex_offset_[vi];
        uint8_t* p = region + 4 * (nblocks - 1);
        auto nbrs = g.Neighbors(v);
        for (uint64_t b = 0; b < nblocks; ++b) {
          if (b > 0) {
            const uint32_t off = static_cast<uint32_t>(p - region);
            std::memcpy(region + 4 * (b - 1), &off, 4);
          }
          const uint64_t lo = b * block_size;
          const uint64_t hi = std::min<uint64_t>(lo + block_size, d);
          EncodeVarint(
              Zigzag(static_cast<int64_t>(nbrs[lo]) - static_cast<int64_t>(v)),
              &p);
          for (uint64_t i = lo + 1; i < hi; ++i) {
            EncodeVarint(nbrs[i] - nbrs[i - 1], &p);
          }
        }
        LIGHTNE_CHECK_EQ(static_cast<uint64_t>(p - region),
                         cg.vertex_offset_[vi + 1] - cg.vertex_offset_[vi]);
      },
      /*grain=*/256);
  return cg;
}

uint64_t CompressedGraph::DecodeBlock(NodeId v, uint64_t b, NodeId* out) const {
  const uint64_t d = degrees_[v];
  const uint64_t nblocks = NumBlocks(d);
  LIGHTNE_CHECK_LT(b, nblocks);
  const uint8_t* p = BlockBytes(v, b);
  const uint64_t len = (b + 1 < nblocks) ? block_size_ : d - b * block_size_;
  // Every decoded value is a node id (< NumVertices), so the uint32
  // accumulation of the fused decoder agrees exactly with an int64 sweep.
  uint32_t base =
      static_cast<uint32_t>(static_cast<int64_t>(v) + DecodeZigzag(&p));
  out[0] = base;
  ActiveDeltaPrefixDecoder()(p, len - 1, &base, out + 1);
  return len;
}

CompressedGraph::HubCache CompressedGraph::HubCache::Build(
    const CompressedGraph& g, uint64_t byte_budget, MemoryBudget* budget) {
  HubCache cache;
  const NodeId n = g.NumVertices();
  if (n == 0 || byte_budget == 0) return cache;
  uint64_t effective = byte_budget;
  if (budget != nullptr && budget->limited()) {
    // An accelerator must never starve the sparsifier hash table: under a
    // limited governor, spend at most a quarter of what is still available.
    effective = std::min(effective, budget->available_bytes() / 4);
  }
  // Admission order: (degree desc, id asc) — a pure function of the graph,
  // so the pinned set is deterministic for a fixed budget.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  ParallelSort(order.data(), order.size(), [&](NodeId a, NodeId b) {
    const uint64_t da = g.Degree(a), db = g.Degree(b);
    return da != db ? da > db : a < b;
  });

  // Block-granular knapsack. Under the walk's stationary distribution every
  // decoded entry has the same expected hit rate (visit prob ∝ degree, draw
  // uniform within the row), so the objective is simply to pin as many
  // entries as fit: each vertex takes its whole row if it fits the
  // remaining budget, else its largest block-aligned prefix (blocks decode
  // independently, so a prefix needs no tail re-decode), and the scan
  // continues past giant hubs so smaller rows can fill the remainder. The
  // index is sized dynamically: admitting a vertex may double the hash
  // table (load factor capped at 1/2), so each candidate is charged against
  // the entry capacity left once the index it would need is paid for.
  const auto slots_for = [](uint64_t pinned_vertices) {
    uint64_t s = 8;
    while (s < 2 * pinned_vertices) s <<= 1;
    return s;
  };
  // Pool entries pack at 3 bytes when every node id fits 24 bits — the
  // same budget then holds a third more entries, and entries fraction is
  // exactly the pin hit rate under the walk's stationary distribution.
  const uint32_t width = n <= (NodeId{1} << 24) ? 3 : 4;
  const uint64_t bs = g.block_size_;
  std::vector<uint32_t> take(n, 0);
  uint64_t entries = 0;
  uint64_t pinned = 0;
  uint32_t gate = kEmptyKey;
  for (NodeId idx = 0; idx < n; ++idx) {
    const NodeId v = order[idx];
    const uint64_t d = g.Degree(v);
    if (d == 0) break;  // degree-sorted: nothing left worth pinning
    const uint64_t idx_bytes = slots_for(pinned + 1) * sizeof(Entry);
    if (idx_bytes >= effective) break;
    // uint32 pool offsets bound the pool at 4 Gi entries.
    const uint64_t cap =
        std::min<uint64_t>((effective - idx_bytes) / width, UINT32_MAX);
    if (cap <= entries) break;  // no room for another vertex's index + data
    const uint64_t rem = cap - entries;
    const uint64_t t = d <= rem ? d : bs * (rem / bs);
    if (t == 0) continue;  // row larger than the tail budget; keep scanning
    take[v] = static_cast<uint32_t>(t);
    entries += t;
    ++pinned;
    gate = std::min(gate, static_cast<uint32_t>(d));
  }
  if (entries == 0) return cache;

  const uint64_t slots = slots_for(pinned);
  const uint64_t bytes = slots * sizeof(Entry) + entries * width;
  BudgetReservation reservation(budget, bytes);
  if (!reservation.ok()) return cache;  // governor raced below the cap

  // Insert in vertex-id order: both the pool packing and the probe-chain
  // layout are then pure functions of the admitted set, so rebuilds are
  // bit-identical.
  cache.index_.assign(slots, Entry{});
  cache.idx_mask_ = static_cast<uint32_t>(slots - 1);
  cache.gate_ = gate;
  cache.pool_width_ = width;
  cache.pool_mask_ = width == 3 ? 0xffffffu : 0xffffffffu;
  std::vector<NodeId> pinned_ids;
  std::vector<uint64_t> pinned_off;
  pinned_ids.reserve(pinned);
  pinned_off.reserve(pinned);
  uint64_t off = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (take[v] == 0) continue;
    uint32_t s = ProbeSlot(v, cache.idx_mask_);
    while (cache.index_[s].key != kEmptyKey) s = (s + 1) & cache.idx_mask_;
    cache.index_[s] =
        Entry{static_cast<uint32_t>(v), static_cast<uint32_t>(off), take[v],
              static_cast<uint32_t>(g.Degree(v))};
    pinned_ids.push_back(v);
    pinned_off.push_back(off);
    off += take[v];
  }
  cache.pool_.assign(entries * width + kPoolSlack, 0);
  ParallelFor(0, pinned_ids.size(), [&](uint64_t j) {
    const NodeId v = pinned_ids[j];
    const uint64_t t = take[v];
    uint8_t* out = cache.pool_.data() + pinned_off[j] * width;
    // The prefix is block-aligned or the whole row, so it decomposes into
    // leading blocks of the row; decode each block to a scratch row and
    // pack it little-endian at the entry width (only a whole-row tail
    // block holds fewer than bs entries). Packing writes exactly `width`
    // bytes per entry: a wider store would race the neighboring row's
    // first byte under the parallel fill.
    std::vector<NodeId> tmp(bs);
    const uint64_t nb = (t + bs - 1) / bs;
    for (uint64_t b = 0; b < nb; ++b) {
      const uint64_t len = std::min<uint64_t>(bs, t - b * bs);
      g.DecodeBlock(v, b, tmp.data());
      uint8_t* dst = out + b * bs * width;
      for (uint64_t k = 0; k < len; ++k) {
        const uint32_t val = tmp[k];
        std::memcpy(dst + k * width, &val, width);
      }
    }
  });
  cache.pinned_entries_ = entries;
  cache.pinned_vertices_ = pinned;
  cache.pinned_bytes_ = bytes;
  cache.reservation_ = std::move(reservation);
  MetricsRegistry& m = MetricsRegistry::Global();
  m.GetGauge("walk/pinned_bytes")->Set(bytes);
  m.GetGauge("walk/pinned_vertices")->Set(pinned);
  m.GetGauge("walk/pinned_entries")->Set(entries);
  return cache;
}

NodeId CompressedGraph::Neighbor(NodeId v, uint64_t i) const {
  // Up to kInlineDeltas deltas cost fewer cycles inline than a decoder
  // call; longer prefixes go through the fused decoder kDecodeChunk at a
  // time, whose running sums land in a stack buffer and are dropped — the
  // last sum is the neighbor.
  constexpr uint64_t kInlineDeltas = 8;
  constexpr uint64_t kDecodeChunk = 64;
  const uint64_t d = degrees_[v];
  LIGHTNE_CHECK_LT(i, d);
  const uint64_t b = i / block_size_;
  const uint8_t* p = BlockBytes(v, b);
  const int64_t first = static_cast<int64_t>(v) + DecodeZigzag(&p);
  uint64_t within = i - b * block_size_;
  if (within <= kInlineDeltas) {
    int64_t running = first;
    for (uint64_t k = 0; k < within; ++k) {
      running += static_cast<int64_t>(DecodeVarint(&p));
    }
    return static_cast<NodeId>(running);
  }
  const VarintDeltaPrefixFn decode = ActiveDeltaPrefixDecoder();
  uint32_t sums[kDecodeChunk];
  uint32_t base = static_cast<uint32_t>(first);
  while (within > 0) {
    const uint64_t count = std::min(within, kDecodeChunk);
    p = decode(p, count, &base, sums);
    within -= count;
  }
  return static_cast<NodeId>(base);
}

}  // namespace lightne
