// Sparse parallel hash table (§4.2 of the paper): a lock-free open-addressing
// table with linear probing that aggregates weighted samples. Keys are
// inserted with a CAS on the key slot; values are accumulated with one
// atomic fetch-add (x86 lock xadd). No deletions. Values are integral (a
// static_assert), so every sum is exact and independent of the order in
// which the adds arrive: callers with fractional weights store them in
// fixed point (the sparsifier derives its scale from a bound on the pass's
// total mass, core/sparsifier.h).
//
// Layout: plain 16-byte {key, value} slots, four to a cache line, updated
// through std::atomic_ref. The slot array is allocated uninitialized and
// constructed by one parallel pass, so the pages are first touched by all
// workers at once rather than zero-filled serially.
//
// Growth: past the load limit Upsert rejects every record, applying nothing,
// and sets the overflow flag; the caller stops its writers, doubles the
// table in place with Grow() and offers the rejected records again (see
// internal::RunPerEdgeSampling in core/sparsifier.h).
#ifndef LIGHTNE_PARALLEL_CONCURRENT_HASH_TABLE_H_
#define LIGHTNE_PARALLEL_CONCURRENT_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "parallel/parallel_for.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace lightne {

template <typename V>
class ConcurrentHashTable {
  static_assert(std::is_integral_v<V>,
                "table values must be integral so sums are exact; store "
                "fractional weights in fixed point");

 public:
  /// Sentinel for an unoccupied slot; user keys must differ from it.
  static constexpr uint64_t kEmptyKey = ~0ull;

  /// Load limit: the fraction of slots that may fill before Upsert rejects.
  static constexpr double kMaxLoad = 0.8;

  /// Capacity is rounded up to a power of two >= capacity_hint / kMaxLoad.
  explicit ConcurrentHashTable(uint64_t capacity_hint)
      : capacity_(CapacityFor(capacity_hint)) {
    mask_ = capacity_ - 1;
    slots_ = std::make_unique_for_overwrite<Slot[]>(capacity_);
    Clear();
  }

  /// Adds `delta` to the value stored under `key`, inserting the key if new.
  /// Thread-safe and lock-free. Returns false (and drops the update) only
  /// when the table is past its load limit; the overflow flag is then set.
  bool Upsert(uint64_t key, V delta) {
    LIGHTNE_CHECK_NE(key, kEmptyKey);
    if (overflow_.load(std::memory_order_relaxed)) return false;
    // Fault point: pretend the table just crossed its load limit so callers
    // exercise their grow-and-offer-again path (see the sparsifier builder).
    if (LIGHTNE_FAULT_POINT("sparsifier/table_insert")) {
      overflow_.store(true, std::memory_order_relaxed);
      return false;
    }
    uint64_t idx = Hash(key) & mask_;
    for (uint64_t probes = 0; probes <= mask_; ++probes) {
      Slot& slot = slots_[idx];
      std::atomic_ref<uint64_t> slot_key(slot.key);
      uint64_t k = slot_key.load(std::memory_order_acquire);
      if (k == key) {
        Add(slot, delta);
        return true;
      }
      if (k == kEmptyKey) {
        uint64_t expected = kEmptyKey;
        if (slot_key.compare_exchange_strong(expected, key,
                                             std::memory_order_acq_rel)) {
          uint64_t filled = 1 + fill_.fetch_add(1, std::memory_order_relaxed);
          if (static_cast<double>(filled) >
              kMaxLoad * static_cast<double>(capacity_)) {
            overflow_.store(true, std::memory_order_relaxed);
          }
          Add(slot, delta);
          return true;
        }
        if (expected == key) {  // lost the race to the same key
          Add(slot, delta);
          return true;
        }
        // lost to a different key: fall through and keep probing this slot's
        // successor (the slot now holds `expected`).
      }
      idx = (idx + 1) & mask_;
    }
    overflow_.store(true, std::memory_order_relaxed);
    return false;
  }

  /// Batched Upsert with a hash-prefetch stage: every record's home slot is
  /// prefetched first, then the upserts run, so the probe cache misses of a
  /// batch overlap instead of serializing. Pipeline tables are 2–32 MiB,
  /// past a core's private caches, so an unprefetched probe usually misses
  /// them (a large shared last-level cache may still hold the line). Same
  /// thread-safety and exactness guarantees as Upsert, record by record.
  /// Returns how many leading records were applied: it stops at the first
  /// rejected record (overflow), so records[result, n) are exactly the ones
  /// to offer again after Grow().
  uint32_t UpsertBatch(const std::pair<uint64_t, V>* records, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      PrefetchSlot(records[i].first);
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (!Upsert(records[i].first, records[i].second)) return i;
    }
    return n;
  }

  /// Doubles the capacity, keeping every (key, value) pair and NumEntries(),
  /// and clears the overflow flag. Must not run concurrently with Upsert.
  /// One parallel pass constructs the new slots; a second moves the occupied
  /// old slots in slot order. An entry whose old home is h lands at h or
  /// h + C (C the old capacity), so a worker moving a contiguous block of
  /// old slots writes two sequential streams, not random slots.
  void Grow() {
    const std::unique_ptr<Slot[]> old = std::move(slots_);
    const uint64_t old_capacity = capacity_;
    capacity_ *= 2;
    mask_ = capacity_ - 1;
    slots_ = std::make_unique_for_overwrite<Slot[]>(capacity_);
    FillEmpty();
    ParallelFor(0, old_capacity, [&](uint64_t i) {
      if (old[i].key == kEmptyKey) return;
      // The first empty slot on the key's probe path: the CAS arbitrates
      // between movers, and only the winner writes the value.
      uint64_t idx = Hash(old[i].key) & mask_;
      uint64_t empty = kEmptyKey;
      while (!std::atomic_ref<uint64_t>(slots_[idx].key)
                  .compare_exchange_strong(empty, old[i].key,
                                           std::memory_order_relaxed)) {
        empty = kEmptyKey;
        idx = (idx + 1) & mask_;
      }
      slots_[idx].value = old[i].value;
    });
    overflow_.store(false, std::memory_order_relaxed);
  }

  /// Value stored under key, or V{} if absent. Safe concurrently with
  /// Upsert, but the read is a snapshot.
  V Get(uint64_t key) const {
    uint64_t idx = Hash(key) & mask_;
    for (uint64_t probes = 0; probes <= mask_; ++probes) {
      Slot& slot = slots_[idx];
      uint64_t k =
          std::atomic_ref<uint64_t>(slot.key).load(std::memory_order_acquire);
      if (k == key) {
        return std::atomic_ref<V>(slot.value).load(std::memory_order_relaxed);
      }
      if (k == kEmptyKey) return V{};
      idx = (idx + 1) & mask_;
    }
    return V{};
  }

  /// Number of distinct keys inserted so far.
  uint64_t NumEntries() const { return fill_.load(std::memory_order_relaxed); }

  uint64_t capacity() const { return capacity_; }

  /// True once any Upsert was rejected (or the load limit was crossed).
  bool overflowed() const { return overflow_.load(std::memory_order_relaxed); }

  /// Bytes held by the slot array (the dominant footprint).
  uint64_t MemoryBytes() const { return capacity_ * sizeof(Slot); }

  /// Bytes a table constructed with this hint would occupy, mirroring the
  /// constructor's rounding. Lets budget-aware callers check the footprint
  /// before allocating (see the sparsifier's memory-budget governor).
  static uint64_t ProjectedMemoryBytes(uint64_t capacity_hint) {
    return CapacityFor(capacity_hint) * sizeof(Slot);
  }

  /// Largest capacity hint whose table fits in `budget_bytes`, or 0 if even
  /// the minimum table does not fit.
  static uint64_t LargestHintFitting(uint64_t budget_bytes) {
    uint64_t capacity = 1;
    while (capacity * 2 * sizeof(Slot) <= budget_bytes) capacity <<= 1;
    if (capacity * sizeof(Slot) > budget_bytes) return 0;
    // Invert the constructor rounding: any hint <= capacity * kMaxLoad maps
    // to a table of at most `capacity` slots.
    const uint64_t hint = static_cast<uint64_t>(
        static_cast<double>(capacity) * kMaxLoad);
    return ProjectedMemoryBytes(hint) <= budget_bytes ? hint : 0;
  }

  /// Key held by slot i (kEmptyKey if unoccupied) and its value, in the
  /// table's storage order. Must not run concurrently with Upsert; this is
  /// how a consumer reads the table out without copying it.
  uint64_t SlotKey(uint64_t i) const { return slots_[i].key; }
  V SlotValue(uint64_t i) const { return slots_[i].value; }

  /// Applies fn(key, value) to every occupied slot, in parallel. Must not
  /// run concurrently with Upsert.
  template <typename F>
  void ForEach(F&& fn) const {
    ParallelFor(0, capacity_, [&](uint64_t i) {
      if (slots_[i].key != kEmptyKey) fn(slots_[i].key, slots_[i].value);
    });
  }

  /// Resets the table to empty in one parallel pass (which is also how a
  /// new table's uninitialized slots are constructed). Not thread-safe.
  void Clear() {
    FillEmpty();
    fill_.store(0, std::memory_order_relaxed);
    overflow_.store(false, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    uint64_t key;
    V value;
  };
  static_assert(std::is_trivial_v<Slot>, "slots are allocated uninitialized");

  static uint64_t CapacityFor(uint64_t capacity_hint) {
    const uint64_t want = static_cast<uint64_t>(
        static_cast<double>(capacity_hint < 16 ? 16 : capacity_hint) /
        kMaxLoad);
    uint64_t capacity = 1;
    while (capacity < want) capacity <<= 1;
    return capacity;
  }

  void FillEmpty() {
    ParallelFor(0, capacity_, [&](uint64_t i) {
      slots_[i] = Slot{kEmptyKey, V{}};
    });
  }

  static void Add(Slot& slot, V delta) {
    std::atomic_ref<V>(slot.value).fetch_add(delta,
                                             std::memory_order_relaxed);
  }

  static uint64_t Hash(uint64_t key) {
    uint64_t s = key;
    return SplitMix64(s);
  }

  // Issues a write-intent prefetch for the key's home slot (probe chains are
  // short at the configured load factor, so the home line is almost always
  // the one touched). No-op on toolchains without the builtin.
  void PrefetchSlot(uint64_t key) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[Hash(key) & mask_], /*rw=*/1, /*locality=*/1);
#endif
  }

  // Every Upsert reads mask_, slots_ and overflow_, and every new key
  // fetch-adds fill_ from whichever worker inserts it: fill_ gets a cache
  // line of its own, so those adds do not keep evicting the line that every
  // worker reads.
  uint64_t capacity_ = 0;
  uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<bool> overflow_{false};
  alignas(64) std::atomic<uint64_t> fill_{0};
};

}  // namespace lightne

#endif  // LIGHTNE_PARALLEL_CONCURRENT_HASH_TABLE_H_
