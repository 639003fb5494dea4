// Parallel-byte compressed graph in the Ligra+ format (Shun, Dhulipala,
// Blelloch, DCC'15), as adopted by the paper (§4.1):
//
//  - neighbor lists are difference encoded with byte varints;
//  - a high-degree vertex's list is broken into blocks of `block_size`
//    neighbors, each internally difference-encoded with respect to the
//    source, so blocks decode independently (parallel decoding, and O(block)
//    random access to the i-th incident edge needed by random walks);
//  - per-vertex data stores a small table of byte offsets to each block.
//
// The paper chose block size 64 as the sweet spot between compressed size
// and the latency of fetching arbitrary incident edges; that is the default
// here and bench_compression reproduces the trade-off.
//
// Neighbor() and DecodeBlock() dispatch to the fused SIMD varint
// difference-decoder (graph/varint_simd.h); the byte stream carries
// kVarintDecodeSlack readable slack bytes so 16-byte SIMD loads starting at
// the last encoded byte are always in bounds.
#ifndef LIGHTNE_GRAPH_COMPRESSED_H_
#define LIGHTNE_GRAPH_COMPRESSED_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/csr.h"
#include "graph/types.h"
#include "graph/varint_simd.h"
#include "parallel/parallel_for.h"
#include "util/check.h"
#include "util/memory.h"

namespace lightne {

class CompressedGraph {
 public:
  CompressedGraph() = default;

  /// Encodes an existing CSR graph. Neighbor lists must be sorted (CSR
  /// builder guarantees this). Runs in parallel: a size pass, a scan, and an
  /// encode pass.
  static CompressedGraph FromCsr(const CsrGraph& g, uint32_t block_size = 64);

  NodeId NumVertices() const { return num_vertices_; }
  EdgeId NumDirectedEdges() const { return num_directed_edges_; }
  EdgeId NumUndirectedEdges() const { return num_directed_edges_ / 2; }
  double Volume() const { return static_cast<double>(num_directed_edges_); }
  uint32_t block_size() const { return block_size_; }

  uint64_t Degree(NodeId v) const { return degrees_[v]; }

  /// Hints the loads an unpinned walk draw from v serializes on (degree, byte
  /// offset) into cache without waiting. Both addresses depend only on v,
  /// so a caller that must first resolve something else about v (e.g. probe
  /// a pin index) can overlap that work with these fetches. Pure hint:
  /// never changes results.
  void PrefetchVertex(NodeId v) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&degrees_[v], /*rw=*/0, /*locality=*/2);
    __builtin_prefetch(&vertex_offset_[v], /*rw=*/0, /*locality=*/2);
#else
    (void)v;
#endif
  }

  /// Decodes the i-th neighbor of v: locates the containing block via the
  /// offset table, then decodes the block's first i mod block_size deltas —
  /// up to 8 inline, longer prefixes through the fused SIMD decoder
  /// (graph/varint_simd.h) in chunks of at most 64. This is the walk's one
  /// decode path for draws the pinned tier (HubCache) does not serve.
  NodeId Neighbor(NodeId v, uint64_t i) const;

  /// Decodes block `b` of vertex `v` in one fused-decoder pass into `out`
  /// (which must hold block_size() entries). Returns the number of
  /// neighbors decoded (the block length; the last block of a vertex may be
  /// short). HubCache::Build fills its pinned pool through this.
  uint64_t DecodeBlock(NodeId v, uint64_t b, NodeId* out) const;

  /// Permanently pinned decoded neighbor prefixes of the hottest vertices.
  ///
  /// Random walks visit vertices with probability proportional to degree,
  /// and a uniform draw within a row spreads hits evenly over its entries —
  /// so under the walk's stationary distribution every pinned entry is worth
  /// the same and the right policy is to pin as many entries as the budget
  /// holds. HubCache therefore pins block-aligned *prefixes*: vertices are
  /// visited in (degree desc, id asc) order and each takes its full decoded
  /// row if it fits, else the largest block_size-aligned prefix that does,
  /// and the scan continues so smaller rows can fill what a giant hub could
  /// not. A pinned draw is a plain array read with no hashing, no varint
  /// decode, and no possibility of eviction; draws past a pinned prefix fall
  /// through to Neighbor(). Built per sampling phase (see MakeWalkAccel
  /// in graph/walk_cursor.h) and shared read-only by all worker contexts.
  ///
  /// Sizing: `byte_budget` caps the footprint — a compact open-addressing
  /// hash index over just the pinned vertices plus the decoded entries. At
  /// a 16 MiB budget on an RMAT-20 only a couple thousand hubs pin, so the
  /// index is tens of KiB and L1/L2-resident (the previous 4-byte-per-
  /// vertex prefix array cost 4 MiB at n=1M — a quarter of the budget spent
  /// on index, and an LLC miss on every probe). A degree gate makes the
  /// index free for unpinned draws: admission is degree-descending, so a draw
  /// probes the index only when Degree(v) >= degree_gate() — a load the
  /// sampler made hot one instruction earlier. When a limited MemoryBudget
  /// governor is supplied the spend is further capped at a quarter of its
  /// available bytes — pinning is an accelerator and must never starve the
  /// sparsifier hash table — and the actual footprint is reserved against
  /// the governor for the cache's lifetime. The admission order is a pure
  /// function of the graph, so the pinned set is deterministic.
  class HubCache {
   public:
    /// One index slot: a pinned vertex, its pool offset (in entries), its
    /// prefix length, and its exact degree. Carrying the degree here lets a
    /// walk step on a pinned vertex draw its index without ever touching
    /// the n-sized degree array — one less LLC miss on the serial per-step
    /// chain (the probe is L2-resident; degrees_[v] for a random hub is
    /// not).
    struct Entry {
      uint32_t key = kEmptyKey;
      uint32_t off = 0;
      uint32_t len = 0;
      uint32_t deg = 0;
    };
    static constexpr uint32_t kEmptyKey = 0xffffffffu;
    /// Readable slack past the packed pool so a width-3 entry can be read
    /// with one 4-byte load.
    static constexpr uint64_t kPoolSlack = 4;

    HubCache() = default;

    /// Builds the cache. Returns an empty cache (every PinnedLen() 0) when
    /// the budget cannot hold the index plus at least one block, or when
    /// the governor reservation fails. Reports `walk/pinned_bytes`,
    /// `walk/pinned_vertices`, and `walk/pinned_entries` gauges on success.
    static HubCache Build(const CompressedGraph& g, uint64_t byte_budget,
                          MemoryBudget* budget = nullptr);

    /// First probe slot for vertex v (multiplicative hash, linear probing;
    /// load factor is kept at or below 1/2).
    static uint32_t ProbeSlot(NodeId v, uint32_t mask) {
      return (static_cast<uint32_t>(v) * 2654435761u) & mask;
    }

    /// Pinned prefix length of v in entries (0 when unpinned). A draw
    /// Neighbor(v, i) is pinned iff i < PinnedLen(v).
    uint64_t PinnedLen(NodeId v) const {
      const Entry* e = Find(v);
      return e != nullptr ? e->len : 0;
    }

    /// Entry k of v's pinned prefix (k < PinnedLen(v)): one unaligned
    /// 4-byte load masked to the pool width. Exactly g.Neighbor(v, k).
    NodeId PinnedNeighbor(NodeId v, uint64_t k) const {
      const Entry* e = Find(v);
      uint32_t val = 0;
      std::memcpy(&val,
                  pool_.data() + (uint64_t{e->off} + k) * pool_width_,
                  sizeof(val));
      return static_cast<NodeId>(val & pool_mask_);
    }

    /// Raw accessors for the walk hot path (graph/walk_cursor.h caches
    /// these so a pinned probe is a degree compare plus an L1/L2 index
    /// walk). index() is nullptr when the cache is empty.
    const Entry* index() const {
      return index_.empty() ? nullptr : index_.data();
    }
    uint32_t index_mask() const { return idx_mask_; }
    /// Smallest degree among pinned vertices: draws on vertices below this
    /// can skip the index probe entirely (admission is degree-descending).
    uint32_t degree_gate() const { return gate_; }
    /// The packed pool: pinned entries at pool_entry_width() bytes each
    /// (3 when every node id fits 24 bits, else 4), with kPoolSlack
    /// readable bytes past the end. The narrow width is where the hit rate
    /// comes from: the same 16 MiB budget holds a third more entries.
    const uint8_t* pool() const { return pool_.data(); }
    uint32_t pool_entry_width() const { return pool_width_; }
    uint32_t pool_value_mask() const { return pool_mask_; }

    bool empty() const { return pinned_entries_ == 0; }
    /// Vertices with a nonzero pinned prefix.
    uint64_t pinned_vertices() const { return pinned_vertices_; }
    /// Total pinned entries across all prefixes.
    uint64_t pinned_entries() const { return pinned_entries_; }
    /// Index slots (power of two; >= 2x pinned vertices).
    uint64_t index_slots() const { return index_.size(); }
    /// Accounted footprint: hash index + decoded entries.
    uint64_t pinned_bytes() const { return pinned_bytes_; }

   private:
    const Entry* Find(NodeId v) const {
      if (index_.empty()) return nullptr;
      uint32_t s = ProbeSlot(v, idx_mask_);
      for (;;) {
        const Entry& e = index_[s];
        if (e.key == static_cast<uint32_t>(v)) return &e;
        if (e.key == kEmptyKey) return nullptr;
        s = (s + 1) & idx_mask_;
      }
    }

    std::vector<Entry> index_;  // open addressing, power-of-two size
    uint32_t idx_mask_ = 0;     // index_.size() - 1
    uint32_t gate_ = kEmptyKey;   // min pinned degree (kEmptyKey: none)
    std::vector<uint8_t> pool_;   // packed decoded prefixes + kPoolSlack
    uint32_t pool_width_ = 4;     // bytes per pinned entry
    uint32_t pool_mask_ = 0xffffffffu;  // value mask for a 4-byte load
    uint64_t pinned_entries_ = 0;
    uint64_t pinned_vertices_ = 0;
    uint64_t pinned_bytes_ = 0;
    // Held for the cache lifetime so the governor sees the pinned bytes as
    // long as walks can touch them (vector moves keep pointers valid).
    BudgetReservation reservation_;
  };

  /// Applies fn(neighbor) over v's full (sorted) neighbor list.
  template <typename F>
  void MapNeighbors(NodeId v, F&& fn) const {
    const uint64_t d = degrees_[v];
    if (d == 0) return;
    const uint8_t* region = bytes_.data() + vertex_offset_[v];
    const uint64_t nblocks = NumBlocks(d);
    for (uint64_t b = 0; b < nblocks; ++b) {
      const uint8_t* p = region + BlockStart(region, nblocks, b);
      const uint64_t in_block =
          (b + 1 < nblocks) ? block_size_ : d - b * block_size_;
      int64_t running =
          static_cast<int64_t>(v) + DecodeZigzag(&p);
      fn(static_cast<NodeId>(running));
      for (uint64_t k = 1; k < in_block; ++k) {
        running += static_cast<int64_t>(DecodeVarint(&p));
        fn(static_cast<NodeId>(running));
      }
    }
  }

  /// Applies fn(u, v) over every directed edge, parallel over vertices.
  template <typename F>
  void MapEdges(F&& fn) const {
    ParallelFor(
        0, num_vertices_,
        [&](uint64_t u) {
          MapNeighbors(static_cast<NodeId>(u),
                       [&](NodeId v) { fn(static_cast<NodeId>(u), v); });
        },
        /*grain=*/64);
  }

  template <typename F>
  void MapVertices(F&& fn) const {
    ParallelFor(0, num_vertices_,
                [&](uint64_t v) { fn(static_cast<NodeId>(v)); });
  }

  /// Total footprint: byte stream (incl. decode slack) + offsets + degrees.
  uint64_t SizeBytes() const {
    return bytes_.size() + vertex_offset_.size() * sizeof(uint64_t) +
           degrees_.size() * sizeof(NodeId);
  }

  /// Bytes of the encoded neighbor stream alone (excludes the
  /// kVarintDecodeSlack trailing slack kept for SIMD over-reads).
  uint64_t EncodedBytes() const { return encoded_bytes_; }

 private:
  uint64_t NumBlocks(uint64_t degree) const {
    return (degree + block_size_ - 1) / block_size_;
  }

  // First encoded byte of block `b` of vertex `v`.
  const uint8_t* BlockBytes(NodeId v, uint64_t b) const {
    const uint8_t* region = bytes_.data() + vertex_offset_[v];
    return region + BlockStart(region, NumBlocks(degrees_[v]), b);
  }

  // Byte offset (relative to `region`) where block b starts. Block 0 begins
  // right after the (nblocks-1)-entry uint32 offset table.
  static uint64_t BlockStart(const uint8_t* region, uint64_t nblocks,
                             uint64_t b) {
    if (b == 0) return 4 * (nblocks - 1);
    uint32_t off;
    std::memcpy(&off, region + 4 * (b - 1), 4);
    return off;
  }

  static uint64_t DecodeVarint(const uint8_t** p) {
    uint64_t out = 0;
    int shift = 0;
    for (;;) {
      uint8_t byte = *(*p)++;
      out |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return out;
  }

  static int64_t DecodeZigzag(const uint8_t** p) {
    uint64_t u = DecodeVarint(p);
    return static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
  }

  static int VarintSize(uint64_t v) {
    int size = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++size;
    }
    return size;
  }

  static void EncodeVarint(uint64_t v, uint8_t** p) {
    while (v >= 0x80) {
      *(*p)++ = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *(*p)++ = static_cast<uint8_t>(v);
  }

  static uint64_t Zigzag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
  }

  NodeId num_vertices_ = 0;
  EdgeId num_directed_edges_ = 0;
  uint32_t block_size_ = 64;
  uint64_t encoded_bytes_ = 0;  // bytes_.size() minus decode slack
  std::vector<NodeId> degrees_;
  std::vector<uint64_t> vertex_offset_;  // size n+1, into bytes_
  std::vector<uint8_t> bytes_;  // encoded stream + kVarintDecodeSlack slack
};

}  // namespace lightne

#endif  // LIGHTNE_GRAPH_COMPRESSED_H_
