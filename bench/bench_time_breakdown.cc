// Regenerates Table 5: the per-stage running-time distribution of
// LightNE-Small/Large, NetSMF and ProNE+ — parallel sparsifier construction,
// randomized SVD, and spectral propagation. NetSMF has no propagation stage;
// ProNE+ has no sparsifier stage (it factorizes the modulated Laplacian
// directly), exactly as in the paper.
//
// Measured through the trace layer (util/trace.h): every run's spans are
// sliced out of the process recorder, printed as a nested breakdown table,
// and written to two machine-readable artifacts —
//   argv[1] (default BENCH_breakdown.json): per-method stage seconds, peak
//            RSS, and the end-of-run metrics snapshot;
//   argv[2] (default BENCH_trace.json): all spans as Chrome trace-event
//            JSON (chrome://tracing / Perfetto).
// scripts/check.sh smoke-runs this binary and validates both schemas.
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "baselines/netsmf_original.h"
#include "baselines/prone.h"
#include "bench_util.h"
#include "core/lightne.h"
#include "graph/compressed.h"
#include "parallel/parallel_for.h"
#include "util/artifact_io.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/trace.h"

using namespace lightne;         // NOLINT
using namespace lightne::bench;  // NOLINT

namespace {

struct MethodRun {
  std::string name;
  std::vector<TraceEvent> events;  // this run's spans, completion order
};

void PrintRow(const MethodRun& run, double sparsifier, double rsvd,
              double propagation) {
  auto cell = [](double v) {
    static char buf[4][32];
    static int slot = 0;
    char* b = buf[slot];
    slot = (slot + 1) % 4;
    if (v < 0) {
      std::snprintf(b, 32, "%10s", "NA");
    } else {
      std::snprintf(b, 32, "%9.1fs", v);
    }
    return b;
  };
  std::printf("%-18s %s %s %s\n", run.name.c_str(), cell(sparsifier),
              cell(rsvd), cell(propagation));
}

double StageOrNa(const MethodRun& run, const char* stage, bool present) {
  return present ? TraceRecorder::SecondsFor(run.events, stage) : -1.0;
}

bool WriteBreakdownJson(const std::string& path,
                        const std::vector<MethodRun>& runs) {
  // Atomic write-tmp -> fsync -> rename: a crash mid-write never leaves a
  // torn artifact where downstream tooling (scripts/check.sh schema checks)
  // expects valid JSON.
  AtomicFileWriter writer;
  if (!writer.Open(path).ok()) return false;
  std::FILE* f = writer.stream();
  std::fprintf(f, "{\n  \"schema\": \"lightne-breakdown-v1\",\n");
  std::fprintf(
      f, "  \"generated_unix\": %lld,\n",
      static_cast<long long>(
          std::time(nullptr)));  // lint-ok: random (timestamp, not a seed)
  std::fprintf(f, "  \"bench_scale\": %.3f,\n", BenchScale());
  std::fprintf(f, "  \"threads\": %d,\n", NumWorkers());
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(PeakRssBytes()));
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const MethodRun& run = runs[i];
    double total = 0;
    for (const TraceEvent& e : run.events) {
      if (e.depth == 0) total += static_cast<double>(e.dur_us) * 1e-6;
    }
    std::fprintf(f, "    {\"method\": \"%s\", \"total_seconds\": %.6f, "
                 "\"stages\": [\n", run.name.c_str(), total);
    for (size_t k = 0; k < run.events.size(); ++k) {
      const TraceEvent& e = run.events[k];
      std::fprintf(f,
                   "      {\"name\": \"%s\", \"seconds\": %.6f, "
                   "\"depth\": %u}%s\n",
                   e.name.c_str(), static_cast<double>(e.dur_us) * 1e-6,
                   e.depth, k + 1 < run.events.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
               MetricsRegistry::Global().Snapshot().ToJson().c_str());
  return writer.Commit().ok();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string breakdown_path =
      argc > 1 ? argv[1] : "BENCH_breakdown.json";
  const std::string trace_path = argc > 2 ? argv[2] : "BENCH_trace.json";

  Banner("Table 5 — running-time distribution per stage", ScaleNote());
  DatasetSpec spec = *FindDataset("OAG-sim");
  spec.n = 20000;
  spec.sampled_edges = 200000;
  Dataset ds = BuildDataset(Scaled(spec));
  std::printf("graph: %u vertices, %llu edges\n", ds.graph.NumVertices(),
              static_cast<unsigned long long>(ds.graph.NumUndirectedEdges()));

  TraceRecorder& recorder = TraceRecorder::Global();
  const uint64_t bench_mark = recorder.Mark();
  std::vector<MethodRun> runs;

  const uint64_t dim = 64;
  for (auto& [name, ratio] :
       {std::pair<const char*, double>{"LightNE-Large", 20.0},
        {"LightNE-Small", 0.1}}) {
    const uint64_t mark = recorder.Mark();
    LightNeOptions opt;
    opt.dim = dim;
    opt.window = 10;
    opt.samples_ratio = ratio;
    auto r = RunLightNe(ds.graph, opt);
    if (!r.ok()) return 1;
    runs.push_back({name, recorder.EventsSince(mark)});
  }
  {
    // Same pipeline on the compressed representation: exercises the walk
    // engine (hub-pinned decode cache + direct block decode), so the
    // metrics snapshot below carries the walk/* counters into
    // BENCH_breakdown.json.
    const CompressedGraph cg = CompressedGraph::FromCsr(ds.graph);
    const uint64_t mark = recorder.Mark();
    LightNeOptions opt;
    opt.dim = dim;
    opt.window = 10;
    opt.samples_ratio = 0.1;
    auto r = RunLightNe(cg, opt);
    if (!r.ok()) return 1;
    runs.push_back({"LightNE-Compressed", recorder.EventsSince(mark)});
  }
  {
    const uint64_t mark = recorder.Mark();
    NetsmfOptions opt;
    opt.dim = dim;
    opt.window = 10;
    opt.samples_ratio = 8.0;
    auto r = RunNetsmfOriginal(ds.graph, opt);
    if (!r.ok()) return 1;
    runs.push_back({"NetSMF (M=8Tm)", recorder.EventsSince(mark)});
  }
  {
    const uint64_t mark = recorder.Mark();
    ProneOptions opt;
    opt.dim = dim;
    auto r = RunProne(ds.graph, opt);
    if (!r.ok()) return 1;
    runs.push_back({"ProNE+", recorder.EventsSince(mark)});
  }

  std::printf("\n%-18s %10s %10s %10s\n", "Method", "Sparsifier", "rSVD",
              "Propagation");
  for (const MethodRun& run : runs) {
    const bool lightne = run.name.rfind("LightNE", 0) == 0;
    const bool prone = run.name == "ProNE+";
    PrintRow(run, StageOrNa(run, "sparsifier", !prone),
             StageOrNa(run, prone ? "factorization" : "rsvd", true),
             StageOrNa(run, "propagation", lightne || prone));
  }

  for (const MethodRun& run : runs) {
    Section(run.name + " — trace breakdown");
    std::printf("%s", TraceRecorder::BreakdownTable(run.events).c_str());
  }

  if (!WriteBreakdownJson(breakdown_path, runs)) {
    std::fprintf(stderr, "failed to write %s\n", breakdown_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", breakdown_path.c_str());
  const Status traced = TraceRecorder::WriteChromeTrace(
      recorder.EventsSince(bench_mark), trace_path);
  if (!traced.ok()) {
    std::fprintf(stderr, "%s\n", traced.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", trace_path.c_str());

  Section("paper-reported (real OAG, 88 cores)");
  std::printf("LightNE-Large   32.8min   49.9min    8.1min\n");
  std::printf("LightNE-Small    1.4min   10.5min    8.2min\n");
  std::printf("NetSMF (M=8Tm)     18h        4h        NA\n");
  std::printf("ProNE+               NA     12min    8.2min\n");
  std::printf("\nshape check: the sparsifier stage dominates NetSMF; "
              "LightNE-Small's stages are ProNE+-like; propagation cost is "
              "identical wherever present.\n");
  return 0;
}
