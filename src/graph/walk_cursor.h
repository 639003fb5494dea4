// Per-walk decode state threaded through the walk primitives.
//
// Random-walk steps resolve Neighbor(v, i): O(1) on raw CSR, but O(block)
// on the parallel-byte compressed format — every step of every walk
// re-decoded its block from scratch, which made the compressed sampler pay
// a varint tax the paper's time breakdown attributes to the sampling stage.
//
// Two pieces cooperate (DESIGN.md §13, "Walk engine"):
//
//  - WalkAccel<G>: phase-level shared acceleration state, built once per
//    sampling phase (MakeWalkAccel) and read concurrently by every worker.
//    For CompressedGraph it holds the HubCache — block-aligned decoded
//    prefixes of the hottest vertices, pinned for the phase under a byte
//    budget accountable to the MemoryBudget governor. Degree skew means
//    those prefixes absorb most walk draws, so the common case becomes a
//    plain array index.
//  - WalkContext<G>: the per-worker cursor a caller stack-allocates once
//    per worker and passes down the walk call chain. For most graphs it is
//    empty (zero-cost). For CompressedGraph it is the cold tier under the
//    pinned one: a small 2-way set-associative cache of (vertex, block)
//    slots whose buffers live in the worker's ScratchArena. Each slot holds
//    a lazily-extended decoded *prefix* of its block, grown by the batch
//    varint decoder (graph/varint_simd.h) through a resumable
//    CompressedGraph::BlockCursor: a draw at index i pays one offset walk
//    plus i+1 batch-decoded varints on first touch, and revisits either
//    read the buffer or extend from the saved stream position — no draw
//    ever pays a speculative full-block sweep, and no revisit re-walks the
//    offset tables. Draws are served in walk order: the slot serving the
//    previous draw short-circuits before any probe (consecutive draws
//    landing in one block share one prefix), and the two ways per set keep
//    the interleaved u-/v-endpoint blocks of a path sample resident
//    together instead of evicting each other.
//
// Contract: neither tier ever touches the RNG and Neighbor() returns
// exactly g.Neighbor(v, i), so walks draw bit-identical endpoints with or
// without an accel/context, at any worker count and under any decode
// backend — they are purely decode caches. The tier counters are policy
// observables: deterministic for a fixed worker count (slot residency
// depends on each worker's draw order), and backend-independent — the
// prefix policy decodes the same entries under every dispatch arm. A
// context must not outlive its graph or accel, must always be used with
// the same graph, and must stay on the thread that built it (its buffers
// come from that thread's scratch arena).
#ifndef LIGHTNE_GRAPH_WALK_CURSOR_H_
#define LIGHTNE_GRAPH_WALK_CURSOR_H_

#include <cstring>

#include "graph/compressed.h"
#include "graph/graph_view.h"
#include "graph/types.h"
#include "parallel/scratch.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace lightne {

/// Shared per-phase walk acceleration state. Default: none.
template <typename G>
struct WalkAccel {};

/// Compressed graphs pin decoded top-degree prefixes per phase.
template <>
struct WalkAccel<CompressedGraph> {
  CompressedGraph::HubCache pinned;
};

/// Builds the walk accelerator for a sampling phase. The generic form is a
/// no-op (direct-access graphs need no acceleration); the CompressedGraph
/// form builds the HubCache under `pin_budget_bytes` (0 disables pinning),
/// reserving the actual footprint against `budget` when one is given.
template <typename G>
WalkAccel<G> MakeWalkAccel(const G& /*g*/, uint64_t /*pin_budget_bytes*/,
                           MemoryBudget* /*budget*/ = nullptr) {
  return {};
}
inline WalkAccel<CompressedGraph> MakeWalkAccel(
    const CompressedGraph& g, uint64_t pin_budget_bytes,
    MemoryBudget* budget = nullptr) {
  WalkAccel<CompressedGraph> accel;
  accel.pinned =
      CompressedGraph::HubCache::Build(g, pin_budget_bytes, budget);
  return accel;
}

/// Default context: direct Neighbor access, no state.
template <typename G>
struct WalkContext {
  WalkContext() = default;
  explicit WalkContext(const WalkAccel<G>& /*accel*/) {}

  /// Degree of v, exactly g.Degree(v). Walk steps resolve the degree
  /// through the context so accelerated contexts can serve it from their
  /// own (smaller, hotter) structures.
  uint64_t Degree(const G& g, NodeId v) { return g.Degree(v); }

  NodeId Neighbor(const G& g, NodeId v, uint64_t i) {
    return g.Neighbor(v, i);
  }
};

/// Compressed graphs: two-tier decode cache (pinned hub prefixes +
/// lazily-extended cold-block prefixes). Default-constructed contexts run
/// cold-tier only, so every existing `WalkContext<G> ctx;` call site keeps
/// working without an accel.
template <>
struct WalkContext<CompressedGraph> {
  WalkContext() : scope_(ScratchArena::ForCurrentThread()) {}
  explicit WalkContext(const WalkAccel<CompressedGraph>& accel)
      : WalkContext() {
    if (!accel.pinned.empty()) {
      hub_index_ = accel.pinned.index();
      hub_mask_ = accel.pinned.index_mask();
      hub_gate_ = accel.pinned.degree_gate();
      pinned_pool_ = accel.pinned.pool();
      pool_width_ = accel.pinned.pool_entry_width();
      pool_mask_ = accel.pinned.pool_value_mask();
    }
  }

  // Publishes this context's tier counters into the process metrics
  // registry (util/metrics.h) exactly once, at end of worker scope, so the
  // hot loop never touches a shared cache line. `walk/pin_hits` is a pure
  // function of the (deterministic) walk stream and the pinned set, hence
  // bit-identical across worker counts; the cold-tier counters depend on
  // per-worker slot residency, so they are deterministic only for a fixed
  // worker count (but are backend-independent).
  ~WalkContext() {
    if ((pin_hits_ | cold_hits_ | decode_misses_) != 0) {
      MetricsRegistry& m = MetricsRegistry::Global();
      m.GetCounter("walk/pin_hits")->Add(pin_hits_);
      m.GetCounter("walk/cold_hits")->Add(cold_hits_);
      m.GetCounter("walk/decode_misses")->Add(decode_misses_);
    }
  }
  WalkContext(const WalkContext&) = delete;
  WalkContext& operator=(const WalkContext&) = delete;

  /// Degree of v, exactly g.Degree(v). With a pinned tier attached this
  /// probes the (L2-resident) hub index *first* and serves pinned degrees
  /// from the index entry, never touching the n-sized degree array — on
  /// the serial chain of a walk step (degree -> draw -> neighbor) that
  /// removes the step's first LLC miss for every pinned vertex. The probe
  /// result is memoized for the Neighbor() call of the same step.
  uint64_t Degree(const CompressedGraph& g, NodeId v) {
    if (hub_index_ != nullptr) {
      // Start the cold-fallback loads before probing: whether the probe
      // hits is data-dependent (an unpredictable branch at typical pin
      // rates), so without the hint the degree/offset fetches only issue
      // once the probe chain resolves or speculation guesses right.
      g.PrefetchVertex(v);
      const CompressedGraph::HubCache::Entry* e = FindHub(v);
      probe_v_ = v;
      probe_e_ = e;
      if (e != nullptr) return e->deg;
    }
    return g.Degree(v);
  }

  NodeId Neighbor(const CompressedGraph& g, NodeId v, uint64_t i) {
    if (hub_index_ != nullptr) {
      // Reuse the probe the Degree() of this step already paid; callers
      // that draw without Degree() fall back to the degree gate (admission
      // is degree-descending, so a vertex below the gate cannot be pinned
      // and skips the probe entirely).
      const CompressedGraph::HubCache::Entry* e =
          probe_v_ == v ? probe_e_
                        : (g.Degree(v) >= hub_gate_ ? FindHub(v) : nullptr);
      if (e != nullptr && i < e->len) {
        ++pin_hits_;
        // One unaligned 4-byte load masked to the packed entry width (the
        // pool carries kPoolSlack readable bytes past its end).
        uint32_t val;
        std::memcpy(&val, pinned_pool_ + (uint64_t{e->off} + i) * pool_width_,
                    sizeof(val));
        return static_cast<NodeId>(val & pool_mask_);
      }
    }
    return ColdNeighbor(g, v, i);
  }

  /// Draws served by the pinned tier (array read, no decode).
  uint64_t pin_hits() const { return pin_hits_; }
  /// Draws served by an already-decoded slot prefix (array read).
  uint64_t cold_hits() const { return cold_hits_; }
  /// Draws that decoded varints (inline, prefix start, or extension).
  uint64_t decode_misses() const { return decode_misses_; }

 private:
  struct Slot {
    uint64_t v = kNoVertex;  // vertex id (kNoVertex = empty)
    uint64_t block = 0;
    CompressedGraph::BlockCursor cur;  // resumable decoded-prefix state
  };

  NodeId ColdNeighbor(const CompressedGraph& g, NodeId v, uint64_t i) {
    const uint64_t b = i / g.block_size();
    const uint64_t within = i - b * g.block_size();
    // Walk-order fast path: the slot serving the previous draw answers
    // without probing the set array when its prefix already covers this
    // index — consecutive same-block draws (walk steps circling a hub,
    // path-sample endpoints meeting) share one decoded prefix.
    if (mru_slot_ != nullptr && v == mru_slot_->v && b == mru_slot_->block &&
        within < mru_slot_->cur.decoded) {
      ++cold_hits_;
      return mru_buf_[within];
    }
    // A draw's inline decode cost is proportional to `within`: draws near a
    // block start cost fewer cycles than the slot bookkeeping, so they
    // decode directly and never probe, claim, or evict a slot. (The probed
    // tiers above still serve them when the MRU short-circuit matches.)
    if (within <= kDirectWithin) {
      ++decode_misses_;
      return g.Neighbor(v, i);
    }
    // 2-way set-associative probe for (v, b). Multiplicative mix on the
    // packed key; taking high bits keeps distinct blocks of a hub apart.
    const uint64_t key = (static_cast<uint64_t>(v) << 20) ^ b;
    const uint64_t set = (key * 0x9E3779B97F4A7C15ull) >> (64 - kLog2Sets);
    Slot* ways = &slots_[set * 2];
    for (uint32_t w = 0; w < 2; ++w) {
      Slot& s = ways[w];
      if (s.v != v || s.block != b) continue;
      NodeId* buf = pool_ + (set * 2 + w) * stride_;
      recent_[set] = static_cast<uint8_t>(w);
      if (within < s.cur.decoded) {
        ++cold_hits_;
        Remember(&s, buf);
        return buf[within];
      }
      // Resident but short: extend the prefix from the saved stream
      // position — batch-decodes only the missing entries, and skips the
      // offset-table walk a fresh Neighbor() would pay.
      ++decode_misses_;
      g.ExtendBlockPrefix(&s.cur, PrefixWant(within), buf);
      Remember(&s, buf);
      return buf[within];
    }
    // Miss: claim the not-recently-used way (walk-order replacement — the
    // way serving the current walk's other endpoint stays resident) and
    // start a prefix covering exactly the requested index. Never a
    // speculative sweep past it: a block visited once pays i+1
    // batch-decoded varints and not one more (resumable extends make
    // rounding up pure waste on never-revisited blocks, which out-of-LLC
    // cold draws mostly are), and revisits extend from the saved stream
    // position at no re-walk cost.
    if (pool_ == nullptr) {
      stride_ = g.block_size();
      pool_ = scope_.AllocArray<NodeId>(kSlots * stride_);
    }
    const uint32_t w = 1u - recent_[set];
    Slot& s = ways[w];
    s.v = v;
    s.block = b;
    recent_[set] = static_cast<uint8_t>(w);
    ++decode_misses_;
    NodeId* buf = pool_ + (set * 2 + w) * stride_;
    StartPrefix(g, &s, within, buf);
    return buf[within];
  }

  // Prefix target for a draw at `within`: exactly the entries the draw
  // needs. Extensions resume from the saved stream position, so decoding
  // ahead buys nothing a later extend would not get at the same per-varint
  // price — and on blocks never revisited it is pure waste.
  static uint64_t PrefixWant(uint64_t within) { return within + 1; }

  void StartPrefix(const CompressedGraph& g, Slot* s, uint64_t within,
                   NodeId* buf) {
    const NodeId v = static_cast<NodeId>(s->v);
    // Sampled timing (1 in 64 starts): two clock reads per decode would
    // cost more than the decode itself on the miss path.
    if ((++decode_sampler_ & 63u) == 0) {
      Timer timer;
      g.DecodeBlockPrefix(v, s->block, PrefixWant(within), buf, &s->cur);
      DecodeLatencyUs()->Observe(timer.Seconds() * 1e6);
    } else {
      g.DecodeBlockPrefix(v, s->block, PrefixWant(within), buf, &s->cur);
    }
    Remember(s, buf);
  }

  void Remember(Slot* s, NodeId* buf) {
    mru_slot_ = s;
    mru_buf_ = buf;
  }

  static Histogram* DecodeLatencyUs() {
    // Microsecond buckets around the cost of one block-prefix start
    // (sampled 1 in 64).
    static Histogram* h = MetricsRegistry::Global().GetHistogram(
        "walk/decode_block_us", {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0});
    return h;
  }

  static constexpr uint32_t kLog2Sets = 6;  // 64 sets x 2 ways = 128 slots
  static constexpr uint64_t kSets = uint64_t{1} << kLog2Sets;
  static constexpr uint64_t kSlots = kSets * 2;
  static constexpr uint64_t kDirectWithin = 8;
  static constexpr uint64_t kNoVertex = ~uint64_t{0};

  Slot slots_[kSlots];
  uint8_t recent_[kSets] = {};  // most-recently-touched way per set
  const CompressedGraph::HubCache::Entry* FindHub(NodeId v) const {
    uint32_t s = CompressedGraph::HubCache::ProbeSlot(v, hub_mask_);
    for (;;) {
      const CompressedGraph::HubCache::Entry& e = hub_index_[s];
      if (e.key == static_cast<uint32_t>(v)) return &e;
      if (e.key == CompressedGraph::HubCache::kEmptyKey) return nullptr;
      s = (s + 1) & hub_mask_;
    }
  }

  // Pinned tier: hash index over the pinned hubs (HubCache::index()), its
  // power-of-two mask, the degree gate below which no vertex is pinned,
  // and the packed pool geometry.
  const CompressedGraph::HubCache::Entry* hub_index_ = nullptr;
  uint32_t hub_mask_ = 0;
  uint32_t hub_gate_ = 0;
  const uint8_t* pinned_pool_ = nullptr;  // HubCache::pool(), packed
  uint32_t pool_width_ = 4;
  uint32_t pool_mask_ = 0xffffffffu;
  uint64_t probe_v_ = kNoVertex;  // vertex of the memoized Degree() probe
  const CompressedGraph::HubCache::Entry* probe_e_ = nullptr;
  NodeId* pool_ = nullptr;  // kSlots * stride_, lazily from the arena
  uint64_t stride_ = 0;     // == graph block_size() once allocated
  Slot* mru_slot_ = nullptr;  // slot of the previous draw (walk-order path)
  const NodeId* mru_buf_ = nullptr;
  uint64_t pin_hits_ = 0;
  uint64_t cold_hits_ = 0;
  uint64_t decode_misses_ = 0;
  uint32_t decode_sampler_ = 0;  // counts prefix starts for sampled timing
  // Declared last so buffers outlive nothing in this object; reclaimed (for
  // reuse, not freed) when the context leaves worker scope.
  ScratchArena::Scope scope_;
};

}  // namespace lightne

#endif  // LIGHTNE_GRAPH_WALK_CURSOR_H_
