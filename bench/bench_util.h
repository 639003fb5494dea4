// Shared helpers for the table/figure reproduction benches.
//
// Every bench prints (1) a banner naming the paper artifact it regenerates,
// (2) the measured rows in the paper's layout, and (3) the paper-reported
// reference values so the shape comparison is visible in one screen.
// LIGHTNE_BENCH_SCALE (default 1.0) scales dataset sizes down for quick
// runs, e.g. LIGHTNE_BENCH_SCALE=0.25.
#ifndef LIGHTNE_BENCH_BENCH_UTIL_H_
#define LIGHTNE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "util/timer.h"

namespace lightne::bench {

/// Median wall milliseconds of `runs` calls of `fn` after one warmup call
/// (the warmup also warms per-thread scratch arenas), each call preceded by
/// an untimed setup() that remakes what the call consumes. Measured on the
/// trace-layer clock — the repo's single monotonic clock — so bench numbers
/// and pipeline trace spans can never disagree.
template <typename Setup, typename Fn>
double MedianMs(int runs, const Setup& setup, const Fn& fn) {
  setup();
  fn();
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    setup();
    Timer t;
    fn();
    ms.push_back(t.Millis());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// MedianMs of a call that consumes nothing.
template <typename Fn>
double MedianMs(int runs, const Fn& fn) {
  return MedianMs(runs, [] {}, fn);
}

inline double BenchScale() {
  const char* env = std::getenv("LIGHTNE_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return (v > 0.0 && v <= 4.0) ? v : 1.0;
}

inline void Banner(const std::string& artifact, const std::string& note) {
  std::printf("\n");
  std::printf("================================================================================\n");
  std::printf(" LightNE reproduction — %s\n", artifact.c_str());
  if (!note.empty()) std::printf(" %s\n", note.c_str());
  std::printf("================================================================================\n");
}

inline void Section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// Applies the bench scale to a dataset spec (shrinks node and edge counts).
inline DatasetSpec Scaled(DatasetSpec spec) {
  const double s = BenchScale();
  if (s == 1.0) return spec;
  spec.sampled_edges = static_cast<EdgeId>(spec.sampled_edges * s);
  if (spec.kind == DatasetSpec::Kind::kSbm) {
    spec.n = static_cast<NodeId>(spec.n * s);
    if (spec.n < 1000) spec.n = 1000;
    if (spec.communities > spec.n / 20) spec.communities = spec.n / 20;
  }
  return spec;
}

inline Dataset BuildScaled(const std::string& name) {
  auto spec = FindDataset(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
    std::exit(1);
  }
  return BuildDataset(Scaled(*spec));
}

inline const char* ScaleNote() {
  static std::string note = [] {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Datasets are synthetic stand-ins ~10^3 smaller than the "
                  "paper's (DESIGN.md §1); bench scale %.2f.",
                  BenchScale());
    return std::string(buf);
  }();
  return note.c_str();
}

}  // namespace lightne::bench

#endif  // LIGHTNE_BENCH_BENCH_UTIL_H_
