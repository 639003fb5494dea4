// Per-walk decode state threaded through the walk primitives.
//
// Random-walk steps resolve Neighbor(v, i): O(1) on raw CSR, but a block
// decode on the parallel-byte compressed format — up to block_size varints
// per draw, a tax the paper's time breakdown attributes to the sampling
// stage.
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
//  - WalkContext<G>: the per-worker handle a caller stack-allocates once
//    per worker and passes down the walk call chain. For most graphs it is
//    empty (zero-cost). For CompressedGraph it holds the pinned tier's raw
//    pointers and two draw counters: a draw is either a pinned-pool read or
//    one direct g.Neighbor(v, i) block decode (graph/compressed.h).
//
// Contract: the context never touches the RNG and Neighbor() returns
// exactly g.Neighbor(v, i), so walks draw bit-identical endpoints with or
// without an accel/context and at any worker count — pinning is purely a
// decode cache. A context must not outlive its graph or accel and must
// always be used with the same graph.
#ifndef LIGHTNE_GRAPH_WALK_CURSOR_H_
#define LIGHTNE_GRAPH_WALK_CURSOR_H_

#include <cstring>

#include "graph/compressed.h"
#include "graph/graph_view.h"
#include "graph/types.h"
#include "util/memory.h"
#include "util/metrics.h"

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

/// Compressed graphs: pinned hub prefixes, else one direct block decode.
/// Default-constructed contexts have no pinned tier and decode every draw,
/// so every existing `WalkContext<G> ctx;` call site keeps working without
/// an accel.
template <>
struct WalkContext<CompressedGraph> {
  WalkContext() = default;
  explicit WalkContext(const WalkAccel<CompressedGraph>& accel) {
    if (!accel.pinned.empty()) {
      hub_index_ = accel.pinned.index();
      hub_mask_ = accel.pinned.index_mask();
      hub_gate_ = accel.pinned.degree_gate();
      pinned_pool_ = accel.pinned.pool();
      pool_width_ = accel.pinned.pool_entry_width();
      pool_mask_ = accel.pinned.pool_value_mask();
    }
  }

  // Publishes this context's draw counters into the process metrics
  // registry (util/metrics.h) exactly once, at end of worker scope, so the
  // hot loop never touches a shared cache line. Both are pure functions of
  // the (deterministic) walk stream and the pinned set, hence bit-identical
  // across worker counts.
  ~WalkContext() {
    if ((pin_hits_ | decode_misses_) != 0) {
      MetricsRegistry& m = MetricsRegistry::Global();
      m.GetCounter("walk/pin_hits")->Add(pin_hits_);
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
      // Start the block-decode loads before probing: whether the probe
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
    ++decode_misses_;
    return g.Neighbor(v, i);
  }

  /// Draws served by the pinned tier (array read, no decode).
  uint64_t pin_hits() const { return pin_hits_; }
  /// Draws that decoded varints (CompressedGraph::Neighbor).
  uint64_t decode_misses() const { return decode_misses_; }

 private:
  static constexpr uint64_t kNoVertex = ~uint64_t{0};

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
  uint64_t pin_hits_ = 0;
  uint64_t decode_misses_ = 0;
};

}  // namespace lightne

#endif  // LIGHTNE_GRAPH_WALK_CURSOR_H_
