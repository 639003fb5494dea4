// Microbenchmarks for the sparse parallel hash table (§4.2): atomic xadd vs
// the naive CAS-loop fetch-and-add under contention (reproducing the
// Shun et al. 2013 observation the paper cites), plus upsert throughput at
// different key-space sizes (contention levels).
#include <benchmark/benchmark.h>

#include <atomic>

#include "parallel/atomics.h"
#include "parallel/concurrent_hash_table.h"
#include "parallel/parallel_for.h"
#include "util/random.h"

namespace lightne {
namespace {

// --- xadd vs CAS-loop on a single hot counter (max contention) ------------

void BM_XaddHotCounter(benchmark::State& state) {
  std::atomic<uint64_t> counter{0};
  for (auto _ : state) {
    ParallelFor(0, 1u << 20,
                [&](uint64_t) { AtomicFetchAdd(counter, uint64_t{1}); });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_XaddHotCounter);

void BM_CasLoopHotCounter(benchmark::State& state) {
  std::atomic<uint64_t> counter{0};
  for (auto _ : state) {
    ParallelFor(0, 1u << 20,
                [&](uint64_t) { CasLoopFetchAdd(counter, uint64_t{1}); });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_CasLoopHotCounter);

// --- xadd vs CAS in the light-load case (disjoint counters) ---------------

void BM_XaddSpread(benchmark::State& state) {
  std::vector<std::atomic<uint64_t>> counters(1 << 16);
  for (auto _ : state) {
    ParallelFor(0, 1u << 20, [&](uint64_t i) {
      AtomicFetchAdd(counters[i & 0xffff], uint64_t{1});
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_XaddSpread);

void BM_CasLoopSpread(benchmark::State& state) {
  std::vector<std::atomic<uint64_t>> counters(1 << 16);
  for (auto _ : state) {
    ParallelFor(0, 1u << 20, [&](uint64_t i) {
      CasLoopFetchAdd(counters[i & 0xffff], uint64_t{1});
    });
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_CasLoopSpread);

// --- table upsert throughput vs contention ---------------------------------

void BM_TableUpsert(benchmark::State& state) {
  const uint64_t keys = static_cast<uint64_t>(state.range(0));
  const uint64_t ops = 1u << 20;
  for (auto _ : state) {
    state.PauseTiming();
    ConcurrentHashTable<uint64_t> table(keys * 2 + 1024);
    state.ResumeTiming();
    ParallelFor(0, ops, [&](uint64_t i) {
      Rng rng = ItemRng(3, i);
      table.Upsert(rng.UniformInt(keys) + 1, 1);
    });
  }
  state.SetItemsProcessed(state.iterations() * ops);
  state.SetLabel(std::to_string(keys) + " distinct keys");
}
BENCHMARK(BM_TableUpsert)->Arg(64)->Arg(4096)->Arg(1 << 18);

}  // namespace
}  // namespace lightne

BENCHMARK_MAIN();
