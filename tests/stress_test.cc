// TSan-targeted stress suite: many-thread churn on the lock-free
// ConcurrentHashTable (mixed insert/accumulate, concurrent reads,
// overflow-and-rebuild ladders, batches that overflow, grow in place and
// offer their rejected suffixes again) and task-exception storms on the thread
// pool. The assertions are exact-count checks — every accepted sample must
// be accounted for by an atomic instruction (§4.2) — but the real payload
// is running these interleavings under `scripts/check.sh tsan`, where any
// data race in the table, the pool's dispatch protocol, or the fault
// registry's shared-lock hot path fails the build. Also rerun as
// stress_test_mt4 with a pinned 4-worker pool.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "parallel/concurrent_hash_table.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace lightne {
namespace {

// Scaled down a touch under sanitizers via the usual env knob semantics is
// unnecessary: these sizes complete in well under a second per test in
// release and a few seconds under TSan.
constexpr uint64_t kKeys = 1 << 12;
constexpr uint64_t kOps = 1 << 19;
static_assert(kOps % kKeys == 0, "exact-count checks need a whole multiple");

// Hot-key skew: a quarter of the ops hammer 8 keys so xadd contention and
// CAS races on freshly claimed slots both happen in the same run.
uint64_t SkewedKey(uint64_t i) {
  return (i % 4 == 0) ? (i / 4) % 8 : i % kKeys;
}

TEST(HashTableStress, MixedInsertAccumulateContention) {
  ConcurrentHashTable<uint64_t> table(kKeys);
  ParallelFor(0, kOps, [&](uint64_t i) {
    ASSERT_TRUE(table.Upsert(SkewedKey(i), 1));
  });
  EXPECT_FALSE(table.overflowed());
  // Exact accounting against a serial replay of the same key stream: every
  // one of the kOps atomic adds must land.
  std::vector<uint64_t> expected(kKeys, 0);
  uint64_t distinct = 0;
  for (uint64_t i = 0; i < kOps; ++i) ++expected[SkewedKey(i)];
  for (uint64_t k = 0; k < kKeys; ++k) {
    distinct += expected[k] != 0;
    ASSERT_EQ(table.Get(k), expected[k]) << "key " << k;
  }
  EXPECT_EQ(table.NumEntries(), distinct);
}

TEST(HashTableStress, ReadersRacingWriters) {
  ConcurrentHashTable<uint64_t> table(kKeys);
  std::atomic<uint64_t> read_sum{0};
  // Writers and readers share one index space: even indices insert, odd
  // indices Get a key that may be mid-insertion. Get must return either 0
  // or a prefix of the accumulated value — under TSan this exercises the
  // acquire/relaxed pairing on (key, value).
  ParallelFor(0, kOps / 2, [&](uint64_t i) {
    const uint64_t key = i % kKeys;
    if (i % 2 == 0) {
      ASSERT_TRUE(table.Upsert(key, 2));
    } else {
      read_sum.fetch_add(table.Get(key), std::memory_order_relaxed);
    }
  });
  // Every write is a +2: any odd per-key snapshot would be a torn read.
  for (uint64_t k = 0; k < 16; ++k) EXPECT_EQ(table.Get(k) % 2, 0u);
  EXPECT_EQ(read_sum.load() % 2, 0u);
}

TEST(HashTableStress, OverflowRebuildLadder) {
  // A rebuild ladder: ingest into a table sized far too small, observe
  // overflow (a concurrent decision — every worker can trip it), rebuild
  // larger and re-ingest until it fits. Churn = repeated allocate/ingest
  // cycles racing across rounds.
  const uint64_t distinct = 1 << 10;
  uint64_t hint = 16;
  std::unique_ptr<ConcurrentHashTable<uint64_t>> table;
  int rounds = 0;
  for (;; hint *= 2, ++rounds) {
    ASSERT_LT(rounds, 12) << "ladder failed to converge";
    table = std::make_unique<ConcurrentHashTable<uint64_t>>(hint);
    ParallelFor(0, distinct * 8, [&](uint64_t i) {
      // Returns false once past the load limit; keep hammering anyway so
      // the overflow path itself is contended.
      (void)table->Upsert(i % distinct, 1);
    });
    if (!table->overflowed()) break;
  }
  EXPECT_GT(rounds, 0) << "first table was not small enough to overflow";
  EXPECT_EQ(table->NumEntries(), distinct);
  for (uint64_t k = 0; k < distinct; ++k) EXPECT_EQ(table->Get(k), 8u);
}

TEST(HashTableStress, ClearReuseChurn) {
  ConcurrentHashTable<uint64_t> table(kKeys / 4);
  for (int round = 0; round < 8; ++round) {
    ParallelFor(0, kKeys, [&](uint64_t i) {
      ASSERT_TRUE(table.Upsert(i % (kKeys / 4), 1));
    });
    EXPECT_EQ(table.NumEntries(), kKeys / 4);
    EXPECT_EQ(table.Get(round % (kKeys / 4)), 4u);
    table.Clear();
    EXPECT_EQ(table.NumEntries(), 0u);
  }
}

TEST(HashTableStress, UpsertBatchContention) {
  // Concurrent batched upserts with in-batch duplicates: the prefetch stage
  // must not change the exact-count accounting, and batches racing on the
  // same hot keys exercise the CAS/xadd paths back-to-back per thread.
  ConcurrentHashTable<uint64_t> table(kKeys);
  constexpr uint32_t kBatch = 64;
  ParallelFor(0, kOps / kBatch, [&](uint64_t b) {
    std::pair<uint64_t, uint64_t> records[kBatch];
    for (uint32_t i = 0; i < kBatch; ++i) {
      // Half the batch repeats one hot key so batches carry duplicates.
      const uint64_t op = b * kBatch + i;
      records[i] = {i % 2 == 0 ? SkewedKey(op) : b % 8, 1};
    }
    ASSERT_EQ(table.UpsertBatch(records, kBatch), kBatch);
  });
  EXPECT_FALSE(table.overflowed());
  std::vector<uint64_t> expected(kKeys, 0);
  for (uint64_t b = 0; b < kOps / kBatch; ++b) {
    for (uint32_t i = 0; i < kBatch; ++i) {
      const uint64_t op = b * kBatch + i;
      ++expected[i % 2 == 0 ? SkewedKey(op) : b % 8];
    }
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table.Get(k), expected[k]) << "key " << k;
  }
}

TEST(HashTableStress, UpsertBatchOverflowSurfacesLikeUpsert) {
  // Batches racing past the load limit of a tiny table must fail the way a
  // direct Upsert does and set the overflow flag. Each batch applies exactly
  // a prefix of its records: every key is new, so the prefixes add up to
  // the table's entries, and no key past a batch's prefix is in the table.
  ConcurrentHashTable<uint64_t> table(16);
  constexpr uint32_t kBatch = 64;
  constexpr uint64_t kBatches = 64;
  std::vector<uint32_t> applied(kBatches);
  ParallelFor(0, kBatches, [&](uint64_t b) {
    std::pair<uint64_t, uint64_t> records[kBatch];
    for (uint32_t i = 0; i < kBatch; ++i) records[i] = {b * kBatch + i, 1};
    applied[b] = table.UpsertBatch(records, kBatch);
  });
  EXPECT_TRUE(table.overflowed());
  uint64_t total = 0;
  for (uint64_t b = 0; b < kBatches; ++b) {
    EXPECT_LT(applied[b], kBatch);  // more keys than the table holds
    total += applied[b];
    for (uint32_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(table.Get(b * kBatch + i), i < applied[b] ? 1u : 0u)
          << "batch " << b << " record " << i;
    }
  }
  EXPECT_EQ(total, table.NumEntries());
  const std::pair<uint64_t, uint64_t> hit = {0, 1};
  EXPECT_EQ(table.UpsertBatch(&hit, 1), 0u);
}

TEST(HashTableStress, GrowAndReofferRejectedSuffixesMatchesSerialReplay) {
  // The sampler's grow-in-place protocol on 4 plain threads: each offers
  // its records in batches and keeps the suffix from the first rejected
  // record; between rounds the table doubles and the suffixes are offered
  // again. Every record must land exactly once.
  constexpr int kThreads = 4;
  constexpr uint32_t kBatch = 64;
  constexpr uint64_t kPerThread = kOps / 16;
  ConcurrentHashTable<uint64_t> table(16);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> pending(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t j = 0; j < kPerThread; ++j) {
      const uint64_t op = static_cast<uint64_t>(t) * kPerThread + j;
      pending[t].push_back({SkewedKey(op), op % 5 + 1});
    }
  }
  auto offer = [&](int t) {
    std::vector<std::pair<uint64_t, uint64_t>>& mine = pending[t];
    size_t done = 0;
    while (done < mine.size()) {
      const uint32_t len =
          static_cast<uint32_t>(std::min<size_t>(kBatch, mine.size() - done));
      const uint32_t took = table.UpsertBatch(mine.data() + done, len);
      done += took;
      if (took < len) break;
    }
    mine.erase(mine.begin(), mine.begin() + static_cast<std::ptrdiff_t>(done));
  };
  int grows = 0;
  for (;;) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(offer, t);
    for (std::thread& th : threads) th.join();
    bool drained = true;
    for (const auto& mine : pending) drained = drained && mine.empty();
    if (drained) break;
    ASSERT_TRUE(table.overflowed());
    table.Grow();
    ASSERT_LT(++grows, 16) << "growth failed to converge";
  }
  EXPECT_GE(grows, 6);  // 32 slots up to at least 4096 keys / 0.8
  std::vector<uint64_t> expected(kKeys, 0);
  for (uint64_t op = 0; op < kThreads * kPerThread; ++op) {
    expected[SkewedKey(op)] += op % 5 + 1;
  }
  uint64_t distinct = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    distinct += expected[k] != 0;
    ASSERT_EQ(table.Get(k), expected[k]) << "key " << k;
  }
  EXPECT_EQ(table.NumEntries(), distinct);
}

// A clean parallel sum; run between storms to prove the pool recovered.
void ExpectPoolUsable() {
  std::atomic<uint64_t> sum{0};
  ParallelFor(0, 10000, [&](uint64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
}

TEST(ThreadPoolStress, ExceptionStormRounds) {
  if (NumWorkers() == 1) {
    GTEST_SKIP() << "single worker: parallel loops run inline and rethrow "
                    "the original exception, not ParallelTaskError";
  }
  for (int round = 0; round < 50; ++round) {
    try {
      ParallelFor(0, 1 << 16, [&](uint64_t i) {
        // Several throwing indices per chunk so multiple workers race to
        // record the round's first failure.
        if (i % 1024 == static_cast<uint64_t>(round)) {
          throw std::runtime_error("storm");
        }
      });
      FAIL() << "round " << round << " did not throw";
    } catch (const ParallelTaskError& e) {
      EXPECT_GE(e.worker(), 0);
      EXPECT_LT(e.worker(), NumWorkers());
    }
    ExpectPoolUsable();
  }
}

TEST(ThreadPoolStress, EveryWorkerThrows) {
  if (NumWorkers() == 1) GTEST_SKIP() << "needs a real worker rendezvous";
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(
        ParallelForWorkers([&](int worker, int /*workers*/) {
          throw std::runtime_error("worker " + std::to_string(worker));
        }),
        ParallelTaskError);
    ExpectPoolUsable();
  }
}

TEST(ThreadPoolStress, InjectedTaskFaultStorm) {
  if (NumWorkers() == 1) {
    GTEST_SKIP() << "pool/task fires inside RunTask, which a single-worker "
                    "inline loop never enters";
  }
  FaultRegistry& registry = FaultRegistry::Global();
  registry.Reset();
  // Deterministic per hit index: the set of failing hits is a pure function
  // of the seed, so hit/fire counters are exact whatever the interleaving.
  registry.ArmFailWithProbability("pool/task", 0.3, /*seed=*/2026);
  const int rounds = 40;
  int thrown = 0;
  for (int round = 0; round < rounds; ++round) {
    try {
      ParallelForWorkers([](int, int) {});
      // Storms also stress ParallelFor dispatch under injected faults.
      ParallelFor(0, 1 << 14, [](uint64_t) {});
    } catch (const ParallelTaskError&) {
      ++thrown;
    }
  }
  const uint64_t hits = registry.HitCount("pool/task");
  const uint64_t fires = registry.FireCount("pool/task");
  registry.Reset();
  EXPECT_GT(hits, 0u);
  EXPECT_LE(fires, hits);
  // Each round evaluates the point once per worker task; with p=0.3 over
  // >= 2 workers * 2 loops * 40 rounds the storm fires essentially surely
  // (and deterministically for a fixed seed and worker count).
  EXPECT_GT(thrown, 0);
  ExpectPoolUsable();
}

TEST(ThreadPoolStress, StormsInterleavedWithTableChurn) {
  // Alternate failing rounds with table ingestion so the pool's failure
  // bookkeeping and the table's atomics churn in the same process state.
  ConcurrentHashTable<uint64_t> table(kKeys / 2);
  for (int round = 0; round < 10; ++round) {
    if (NumWorkers() > 1) {
      EXPECT_THROW(ParallelFor(0, 1 << 14,
                               [&](uint64_t i) {
                                 if (i % 4096 == 0) {
                                   throw std::runtime_error("interleaved");
                                 }
                               }),
                   ParallelTaskError);
    }
    ParallelFor(0, kKeys * 2, [&](uint64_t i) {
      ASSERT_TRUE(table.Upsert(i % (kKeys / 2), 1));
    });
    table.Clear();
  }
  ExpectPoolUsable();
}

}  // namespace
}  // namespace lightne
