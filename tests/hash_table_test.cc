#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "parallel/atomics.h"
#include "parallel/concurrent_hash_table.h"
#include "parallel/parallel_for.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace lightne {
namespace {

TEST(HashTableTest, SingleThreadedUpsertAndGet) {
  ConcurrentHashTable<uint64_t> table(100);
  EXPECT_TRUE(table.Upsert(1, 5));
  EXPECT_TRUE(table.Upsert(1, 3));
  EXPECT_TRUE(table.Upsert(2, 1));
  EXPECT_EQ(table.Get(1), 8u);
  EXPECT_EQ(table.Get(2), 1u);
  EXPECT_EQ(table.Get(99), 0u);
  EXPECT_EQ(table.NumEntries(), 2u);
}

TEST(HashTableTest, KeyZeroAndLargeKeysWork) {
  ConcurrentHashTable<uint64_t> table(16);
  EXPECT_TRUE(table.Upsert(0, 7));
  EXPECT_TRUE(table.Upsert(~1ull, 9));  // one below the sentinel
  EXPECT_EQ(table.Get(0), 7u);
  EXPECT_EQ(table.Get(~1ull), 9u);
}

TEST(HashTableTest, CapacityIsPowerOfTwoAndRespectsLoad) {
  ConcurrentHashTable<uint64_t> table(1000);
  EXPECT_GE(table.capacity(), 1250u);  // 1000 / kMaxLoad
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
}

TEST(HashTableTest, OverflowReportsAndRejects) {
  ConcurrentHashTable<uint64_t> table(16);
  uint64_t inserted = 0;
  for (uint64_t k = 1; k <= 10000; ++k) {
    if (!table.Upsert(k, 1)) break;
    ++inserted;
  }
  EXPECT_TRUE(table.overflowed());
  EXPECT_LT(inserted, 10000u);
  EXPECT_GE(inserted, 16u);  // could insert at least the sized-for amount
}

TEST(HashTableTest, GrowKeepsEveryEntryAndClearsOverflow) {
  ConcurrentHashTable<uint64_t> table(16);
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t k = 0; !table.overflowed(); ++k) {
    if (table.Upsert(k * 7919 + 3, k + 1)) expect[k * 7919 + 3] += k + 1;
  }
  const uint64_t capacity = table.capacity();
  const uint64_t entries = table.NumEntries();
  ASSERT_EQ(entries, expect.size());
  table.Grow();
  EXPECT_EQ(table.capacity(), 2 * capacity);
  EXPECT_EQ(table.NumEntries(), entries);
  EXPECT_FALSE(table.overflowed());
  uint64_t occupied = 0;
  for (uint64_t i = 0; i < table.capacity(); ++i) {
    occupied += table.SlotKey(i) != ConcurrentHashTable<uint64_t>::kEmptyKey;
  }
  EXPECT_EQ(occupied, entries);
  for (const auto& [k, v] : expect) EXPECT_EQ(table.Get(k), v) << k;
  EXPECT_TRUE(table.Upsert(1, 1));
  EXPECT_EQ(table.NumEntries(), entries + 1);
}

TEST(HashTableTest, GrowMovesLargeTablesInParallel) {
  // Large enough that the move runs as a pooled loop over many chunks.
  const uint64_t kKeys = 20000;
  ConcurrentHashTable<uint64_t> table(kKeys);
  ParallelFor(0, kKeys, [&](uint64_t k) {
    ASSERT_TRUE(table.Upsert(k * 7919 + 3, k + 1));
  });
  for (int grow = 0; grow < 3; ++grow) {
    const uint64_t capacity = table.capacity();
    table.Grow();
    ASSERT_EQ(table.capacity(), 2 * capacity);
    ASSERT_EQ(table.NumEntries(), kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_EQ(table.Get(k * 7919 + 3), k + 1) << "grow " << grow;
    }
  }
}

TEST(HashTableTest, UpsertBatchReturnsTheAppliedPrefix) {
  // 32 slots at load limit 0.8: the 26th new key passes the limit (it is
  // applied and sets the flag) and the 27th is the first rejected record.
  ConcurrentHashTable<uint64_t> table(16);
  ASSERT_EQ(table.capacity(), 32u);
  std::vector<std::pair<uint64_t, uint64_t>> records;
  for (uint64_t k = 0; k < 64; ++k) records.push_back({k * 31 + 5, k + 1});
  const uint32_t applied = table.UpsertBatch(records.data(), 64);
  EXPECT_EQ(applied, 26u);
  EXPECT_TRUE(table.overflowed());
  EXPECT_EQ(table.NumEntries(), applied);
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(table.Get(records[i].first), i < applied ? records[i].second : 0)
        << i;
  }
  // Growing and offering the rejected suffix again applies exactly the rest.
  table.Grow();
  table.Grow();
  EXPECT_EQ(table.UpsertBatch(records.data() + applied, 64 - applied),
            64 - applied);
  EXPECT_EQ(table.NumEntries(), 64u);
  for (const auto& [k, v] : records) EXPECT_EQ(table.Get(k), v);
}

TEST(HashTableTest, UpsertBatchStopsAtAnInjectedRejection) {
  // A roomy table whose 5th insert is rejected by the fault point: the batch
  // applies exactly the 4 records before it and nothing after.
  FaultRegistry::Global().Reset();
  FaultRegistry::Global().ArmFailOnNthHit("sparsifier/table_insert", 5);
  ConcurrentHashTable<uint64_t> table(1000);
  std::vector<std::pair<uint64_t, uint64_t>> records;
  for (uint64_t k = 0; k < 10; ++k) records.push_back({k, 1});
  const uint32_t applied = table.UpsertBatch(records.data(), 10);
  FaultRegistry::Global().Reset();
  EXPECT_EQ(applied, 4u);
  EXPECT_EQ(table.NumEntries(), 4u);
  for (uint64_t k = 0; k < 10; ++k) EXPECT_EQ(table.Get(k), k < 4 ? 1u : 0u);
}

// Exactness under contention is the paper's core claim for this structure:
// "our implementation ... ensures that the exact count of each edge is
// computed". Hammer a small key space from all workers and check totals.
TEST(HashTableTest, ExactCountsUnderContention) {
  const uint64_t kOps = 2000000;
  const uint64_t kKeys = 64;  // heavy contention
  ConcurrentHashTable<uint64_t> table(kKeys * 2);
  ParallelFor(0, kOps, [&](uint64_t i) {
    Rng rng = ItemRng(42, i);
    EXPECT_TRUE(table.Upsert(rng.UniformInt(kKeys), 1));
  });
  EXPECT_EQ(table.NumEntries(), kKeys);
  std::atomic<uint64_t> total{0};
  table.ForEach([&](uint64_t, uint64_t v) { AtomicFetchAdd(total, v); });
  EXPECT_EQ(total.load(), kOps);
}

TEST(HashTableTest, ParallelMatchesSequentialAggregation) {
  // Fixed-point weights as the sparsifier stores them (2^40 scale): the
  // parallel sums must equal the sequential ones exactly.
  const uint64_t kOps = 500000;
  const uint64_t kKeys = 5000;
  std::vector<std::pair<uint64_t, uint64_t>> updates(kOps);
  for (uint64_t i = 0; i < kOps; ++i) {
    Rng rng = ItemRng(7, i);
    updates[i] = {rng.UniformInt(kKeys),
                  (uint64_t{1} << 40) + rng.UniformInt(uint64_t{1} << 42)};
  }
  std::map<uint64_t, uint64_t> expect;
  for (auto& [k, v] : updates) expect[k] += v;

  ConcurrentHashTable<uint64_t> table(kKeys * 2);
  ParallelFor(0, kOps, [&](uint64_t i) {
    ASSERT_TRUE(table.Upsert(updates[i].first, updates[i].second));
  });
  EXPECT_EQ(table.NumEntries(), expect.size());
  for (auto& [k, v] : expect) {
    EXPECT_EQ(table.Get(k), v) << "key " << k;
  }
}

TEST(HashTableTest, SlotsHoldEveryEntry) {
  ConcurrentHashTable<uint64_t> table(1000);
  for (uint64_t k = 0; k < 500; ++k) table.Upsert(k * 17, k + 1);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (uint64_t i = 0; i < table.capacity(); ++i) {
    if (table.SlotKey(i) == ConcurrentHashTable<uint64_t>::kEmptyKey) continue;
    entries.push_back({table.SlotKey(i), table.SlotValue(i)});
  }
  ASSERT_EQ(entries.size(), 500u);
  std::sort(entries.begin(), entries.end());
  for (uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(entries[k].first, k * 17);
    EXPECT_EQ(entries[k].second, k + 1);
  }
}

TEST(HashTableTest, ForEachSkipsEmptySlots) {
  ConcurrentHashTable<uint64_t> table(64);
  table.Upsert(3, 1);
  int count = 0;
  table.ForEach([&](uint64_t k, uint64_t v) {
    EXPECT_EQ(k, 3u);
    EXPECT_EQ(v, 1u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(HashTableTest, ClearResets) {
  ConcurrentHashTable<uint64_t> table(64);
  table.Upsert(1, 1);
  table.Clear();
  EXPECT_EQ(table.NumEntries(), 0u);
  EXPECT_EQ(table.Get(1), 0u);
  EXPECT_FALSE(table.overflowed());
  EXPECT_TRUE(table.Upsert(1, 2));
  EXPECT_EQ(table.Get(1), 2u);
}

TEST(HashTableTest, MemoryBytesScalesWithCapacity) {
  ConcurrentHashTable<uint64_t> small(100), big(100000);
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
  // Plain 16-byte {key, value} slots, no cache-line padding.
  EXPECT_EQ(big.MemoryBytes(), 16 * big.capacity());
  EXPECT_EQ(ConcurrentHashTable<uint64_t>::ProjectedMemoryBytes(100000),
            big.MemoryBytes());
}

// Property sweep: many (key-space, op-count) shapes, parallel counts always
// exactly match a sequential recount.
class HashTableProperty
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(HashTableProperty, CountsAlwaysExact) {
  const auto [keys, ops] = GetParam();
  ConcurrentHashTable<uint64_t> table(keys * 2 + 16);
  ParallelFor(0, ops, [&](uint64_t i) {
    Rng rng = ItemRng(keys * 31 + 1, i);
    ASSERT_TRUE(table.Upsert(rng.UniformInt(keys) + 1, 1));
  });
  std::map<uint64_t, uint64_t> expect;
  for (uint64_t i = 0; i < ops; ++i) {
    Rng rng = ItemRng(keys * 31 + 1, i);
    ++expect[rng.UniformInt(keys) + 1];
  }
  EXPECT_EQ(table.NumEntries(), expect.size());
  for (auto& [k, v] : expect) ASSERT_EQ(table.Get(k), v);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HashTableProperty,
    ::testing::Values(std::make_pair(1ull, 100000ull),
                      std::make_pair(3ull, 100000ull),
                      std::make_pair(1000ull, 100000ull),
                      std::make_pair(100000ull, 100000ull),
                      std::make_pair(50000ull, 1000000ull)));

}  // namespace
}  // namespace lightne
