// Regenerates the §5.2.4 sample-size ablation: what lets LightNE draw more
// samples than NetSMF within the same memory budget?
//   (1) shared sparse parallel hashing vs NetSMF's per-thread buffers, and
//   (2) edge downsampling on top of the hash table.
// The paper reports hashing buys +56.3% affordable samples and downsampling
// another +60% on OAG. Here we measure, at a fixed sample budget, the
// memory each strategy needs — the inverse statement of the same ablation —
// and the downsampling acceptance rate. All rows sample on one pass and
// schedule, so the bench exits nonzero when, at one M, the rows without
// downsampling disagree on accepted samples or distinct pairs.
#include <cstdint>
#include <cstdio>

#include "baselines/netsmf_original.h"
#include "bench_util.h"
#include "data/generators.h"
#include "core/sparsifier.h"
#include "util/memory.h"
#include "util/timer.h"

using namespace lightne;         // NOLINT
using namespace lightne::bench;  // NOLINT

int main() {
  Banner("§5.2.4 — ablation on sample size / memory strategy", ScaleNote());
  // A power-law graph like the real OAG: degree skew is what makes the
  // degree-downsampling probabilities bite (hub-to-hub edges get small p_e).
  const CsrGraph g = CsrGraph::FromEdges(GenerateRmat(
      15, static_cast<EdgeId>(300000 * BenchScale()), 7));
  std::printf("graph: RMAT, %u vertices, %llu edges\n", g.NumVertices(),
              static_cast<unsigned long long>(g.NumUndirectedEdges()));
  const uint32_t window = 10;

  std::printf("\n%-34s %10s %12s %14s %14s %8s %10s\n", "Strategy", "M/Tm",
              "accepted", "distinct", "memory", "attempts", "time(s)");
  bool agree = true;
  for (double ratio : {2.0, 8.0, 16.0}) {
    uint64_t netsmf_accepted = 0, lists_accepted = 0, lists_distinct = 0;
    const uint64_t target = static_cast<uint64_t>(
        ratio * window * static_cast<double>(g.NumUndirectedEdges()));
    // --- NetSMF: per-thread buffers, no downsampling ----------------------
    {
      NetsmfOptions opt;
      opt.dim = 16;
      opt.window = window;
      opt.samples_ratio = ratio;
      auto r = RunNetsmfOriginal(g, opt);
      if (!r.ok()) return 1;
      const double secs = r->timing.SecondsFor("sparsifier");
      netsmf_accepted = r->samples_drawn;  // no downsampling: all accepted
      std::printf("%-34s %10.0f %12llu %14s %14s %8s %10.1f\n",
                  "NetSMF buffers (no downsample)", ratio,
                  static_cast<unsigned long long>(r->samples_drawn), "-",
                  HumanBytes(r->buffer_bytes).c_str(), "-", secs);
    }
    // --- the paper's considered alternative: worker lists + histogram -----
    {
      SparsifierOptions opt;
      opt.num_samples = target;
      opt.window = window;
      opt.downsample = false;
      opt.aggregation = AggregationStrategy::kSortHistogram;
      Timer t;
      auto r = BuildSparsifier(g, opt);
      if (!r.ok()) return 1;
      lists_accepted = r->samples_accepted;
      lists_distinct = r->distinct_entries;
      std::printf("%-34s %10.0f %12llu %14llu %14s %8s %10.1f\n",
                  "worker lists + sort histogram", ratio,
                  static_cast<unsigned long long>(r->samples_accepted),
                  static_cast<unsigned long long>(r->distinct_entries),
                  HumanBytes(r->table_bytes).c_str(), "-", t.Seconds());
    }
    // --- hash table, downsampling off/on -----------------------------------
    for (bool downsample : {false, true}) {
      SparsifierOptions opt;
      opt.num_samples = target;
      opt.window = window;
      opt.downsample = downsample;
      Timer t;
      auto r = BuildSparsifier(g, opt);
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
      std::printf("%-34s %10.0f %12llu %14llu %14s %8d %10.1f\n",
                  downsample ? "hash table + downsampling"
                             : "hash table (no downsample)",
                  ratio,
                  static_cast<unsigned long long>(r->samples_accepted),
                  static_cast<unsigned long long>(r->distinct_entries),
                  HumanBytes(r->table_bytes).c_str(), r->attempts,
                  t.Seconds());
      if (!downsample && (r->samples_accepted != netsmf_accepted ||
                          r->samples_accepted != lists_accepted ||
                          r->distinct_entries != lists_distinct)) {
        std::fprintf(stderr, "M = %.0fTm: the rows without downsampling "
                     "disagree on accepted samples or distinct pairs\n",
                     ratio);
        agree = false;
      }
    }
    std::printf("\n");
  }

  Section("paper-reported (OAG, 1.5 TB budget)");
  std::printf("NetSMF fits M = 8Tm; shared hashing raises the affordable "
              "sample count by 56.3%% (to 12.5Tm); downsampling adds "
              "another 60%% (to 20Tm).\n");
  std::printf("\nshape check: at every budget the buffer footprint grows "
              "linearly in M while the hash table grows with distinct "
              "entries (sublinear once the support saturates), and "
              "downsampling cuts accepted samples and table memory "
              "further.\n");
  return agree ? 0 : 1;
}
