// Atomic helpers. The paper's sparsifier aggregation relies on the x86 xadd
// instruction (std::atomic::fetch_add on integers); we also provide an
// explicit CAS-loop fetch-add so bench_sampler_baseline can record the
// paper's xadd-vs-CAS contention comparison (§4.2, citing Shun et al. 2013)
// in BENCH_sampler.json, and the relaxed float accesses of the Hogwild SGD
// loops.
#ifndef LIGHTNE_PARALLEL_ATOMICS_H_
#define LIGHTNE_PARALLEL_ATOMICS_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace lightne {

/// fetch_add with relaxed ordering. For integral types this compiles to a
/// single lock xadd on x86; for floating-point types C++20 provides
/// fetch_add (implemented by the compiler as a CAS loop on current x86).
template <typename T>
inline T AtomicFetchAdd(std::atomic<T>& target, T delta) {
  return target.fetch_add(delta, std::memory_order_relaxed);
}

/// The naive fetch-and-add built from compare_exchange in a while loop, kept
/// for the xadd-vs-CAS rows of bench_sampler_baseline.
template <typename T>
inline T CasLoopFetchAdd(std::atomic<T>& target, T delta) {
  T observed = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(observed, observed + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
  return observed;
}

/// Hogwild access to a shared float parameter (the SGNS trainer, the
/// one-vs-rest classifier): relaxed, so a concurrent update may be lost but
/// is never a data race.
inline float HogwildLoad(float& x) {
  return std::atomic_ref<float>(x).load(std::memory_order_relaxed);
}
inline void HogwildStore(float& x, float v) {
  std::atomic_ref<float>(x).store(v, std::memory_order_relaxed);
}

}  // namespace lightne

#endif  // LIGHTNE_PARALLEL_ATOMICS_H_
