// The LightNE pipeline (Figure 1): parallel sparsifier construction ->
// NetMF rescale + trunc_log -> randomized SVD -> spectral propagation.
// Generic over raw-CSR and parallel-byte-compressed graphs.
//
// With LightNeOptions::checkpoint_dir set, every stage boundary persists its
// output through the crash-safe artifact layer (core/checkpoint.h), and
// `resume` restarts a killed run from the last completed stage. The pipeline
// is bit-deterministic in (options, graph, seed) by construction, at any
// worker count: the sampler's RNG streams are per edge, the hash table sums
// fixed-point integers (exact under any schedule), and every kernel fixes its
// reduction order by shape. A resumed run therefore produces an embedding
// byte-identical to the uninterrupted one — the property
// tests/crash_recovery_test.cc enforces.
#ifndef LIGHTNE_CORE_LIGHTNE_H_
#define LIGHTNE_CORE_LIGHTNE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "core/checkpoint.h"
#include "core/netmf.h"
#include "core/sparsifier.h"
#include "core/spectral_propagation.h"
#include "graph/graph_view.h"
#include "la/rsvd.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/trace.h"

namespace lightne {

struct LightNeOptions {
  /// Embedding dimension d.
  uint64_t dim = 128;
  /// Context window size T.
  uint32_t window = 10;
  /// Negative-sample count b in the NetMF matrix.
  double negative_samples = 1.0;
  /// Number of path samples as a multiple of T*m (the paper's
  /// parameterization: LightNE-Small = 0.1, LightNE-Large = 20).
  double samples_ratio = 1.0;
  /// Absolute sample count override; used instead of samples_ratio if > 0.
  uint64_t num_samples = 0;
  /// Edge downsampling (§3.2). Off = plain NetSMF sampling.
  bool downsample = true;
  /// Per-worker run-merging upsert batch in front of the sampler's shared
  /// hash table (see SparsifierOptions::combiner). The table sums exact
  /// fixed-point integers, so counters, sparsity pattern and values are
  /// bit-identical either way; off = the direct-upsert path.
  bool sampler_combiner = true;
  /// Byte budget for the sampler's hub-pinned decode cache on compressed
  /// graphs (see SparsifierOptions::walk_pin_budget_bytes). A pure decode
  /// cache — the embedding is bit-identical at any value; 0 disables
  /// pinning. Capped by / reserved against memory_budget_bytes when set.
  uint64_t walk_pin_budget_bytes = uint64_t{4} << 20;
  /// C in the downsampling probability; 0 = log(n).
  double downsample_constant = 0.0;
  /// Spectral-propagation enhancement (step 2). The paper disables it on the
  /// very large graphs for memory reasons.
  bool spectral_propagation = true;
  SpectralPropagationOptions propagation;
  /// Randomized SVD knobs (Algo 3). power_iters = 0 is the paper's Algo 3.
  uint64_t svd_oversample = 10;
  uint64_t svd_power_iters = 1;
  uint64_t seed = 1;
  /// Memory envelope for the pipeline's large allocations (hash table, rSVD
  /// workspace, propagation workspace). 0 = unlimited (exact paper
  /// behavior). When set, the sparsifier degrades gracefully under pressure
  /// (see SparsifierOptions::memory_budget) and the pipeline returns
  /// kResourceExhausted instead of OOM-dying when nothing fits.
  uint64_t memory_budget_bytes = 0;
  /// When non-empty, the spans recorded during this run (the "lightne" root,
  /// its Table-5 stages, and their rSVD/propagation substages) are written
  /// to this path as Chrome trace-event JSON on success. Export failure is
  /// logged, never turned into a pipeline error.
  std::string trace_path;
  /// When non-empty, each completed stage (NetMF-transformed sparsifier,
  /// pre-propagation embedding, final embedding) is checkpointed into this
  /// directory as one checksummed, atomically written artifact whose header
  /// frame carries the options and graph fingerprints (core/checkpoint.h).
  /// Save failures are logged and counted ("checkpoint/save_failures"),
  /// never pipeline errors.
  std::string checkpoint_dir;
  /// With checkpoint_dir set: resume from the latest completed stage of a
  /// previous run over the same options and graph instead of recomputing.
  /// Missing, stale (fingerprint mismatch), or corrupt (truncated /
  /// bit-flipped / bad checksum) artifacts degrade gracefully to
  /// recomputing — counted per artifact under "resume/stale_artifacts" and
  /// "resume/corrupt_artifacts", never a hard failure.
  bool resume = false;
};

struct LightNeResult {
  Matrix embedding;  // n x dim
  /// Stage breakdown matching Table 5: "sparsifier", "rsvd", "propagation".
  StageTimer timing;
  SparsifierResult sparsifier_stats;  // matrix member left empty
  uint64_t sparsifier_nnz_raw = 0;    // before trunc_log pruning
  uint64_t sparsifier_nnz = 0;        // after trunc_log pruning
  /// True when the memory-budget governor degraded any stage; the embedding
  /// is usable but sparser/noisier than the un-budgeted run would produce.
  bool degraded = false;
  /// High-water mark of budget-tracked reservations (0 when unbudgeted).
  uint64_t peak_reserved_bytes = 0;
  /// Pipeline stages skipped by loading checkpoint artifacts (0 unless
  /// resume found usable artifacts).
  uint64_t resume_stages_skipped = 0;
};

namespace internal {

/// Fingerprint over every option that influences the computed embedding.
/// trace_path / checkpoint_dir / resume are deliberately excluded: they
/// change where results go, not what they are. memory_budget_bytes is
/// included because budget-driven degradation changes the sparsifier.
inline uint64_t CheckpointOptionsFingerprint(const LightNeOptions& opt) {
  uint64_t h = 0x4c4e453643505431ull;  // "LNE6CPT1"
  const auto mix = [&h](uint64_t v) { h = HashCombine64(h, v); };
  mix(opt.dim);
  mix(opt.window);
  mix(std::bit_cast<uint64_t>(opt.negative_samples));
  mix(std::bit_cast<uint64_t>(opt.samples_ratio));
  mix(opt.num_samples);
  mix(opt.downsample ? 1 : 0);
  mix(opt.sampler_combiner ? 1 : 0);
  // walk_pin_budget_bytes is deliberately excluded: the hub-pinned decode
  // cache cannot change any sampled value, only how fast it decodes.
  mix(std::bit_cast<uint64_t>(opt.downsample_constant));
  mix(opt.spectral_propagation ? 1 : 0);
  mix(opt.propagation.order);
  mix(std::bit_cast<uint64_t>(opt.propagation.mu));
  mix(std::bit_cast<uint64_t>(opt.propagation.theta));
  mix(opt.propagation.svd_smoothing ? 1 : 0);
  mix(opt.svd_oversample);
  mix(opt.svd_power_iters);
  mix(opt.seed);
  mix(opt.memory_budget_bytes);
  return h;
}

/// Cheap structural fingerprint: exact on (n, 2m, volume) plus ~256 strided
/// degrees. Not collision-proof against adversarial graphs — it guards
/// against the operational mistake of resuming onto a different input.
template <GraphView G>
uint64_t CheckpointGraphFingerprint(const G& g) {
  uint64_t h = HashCombine64(static_cast<uint64_t>(g.NumVertices()),
                             static_cast<uint64_t>(g.NumDirectedEdges()));
  h = HashCombine64(h, std::bit_cast<uint64_t>(g.Volume()));
  const uint64_t n = g.NumVertices();
  const uint64_t stride = n <= 256 ? 1 : n / 256;
  for (uint64_t v = 0; v < n; v += stride) {
    h = HashCombine64(h, HashCombine64(v, g.Degree(static_cast<NodeId>(v))));
  }
  return h;
}

/// The one list of the LightNeResult scalars a stage artifact carries, in
/// CheckpointedPipelineStats word order. `visit` is called on each field.
template <typename R, typename Visit>
void ForEachCheckpointedStat(R& result, Visit&& visit) {
  auto& s = result.sparsifier_stats;
  visit(s.samples_drawn);
  visit(s.samples_accepted);
  visit(s.distinct_entries);
  visit(s.table_bytes);
  visit(s.attempts);
  visit(s.budget_tightenings);
  visit(s.degraded);
  visit(s.capacity_capped);
  visit(s.downsample_constant_used);
  visit(s.mass_fp20);
  visit(s.table_upserts);
  visit(s.combiner_hits);
  visit(s.combiner_flushes);
  visit(s.table_batch_upserts);
  visit(result.sparsifier_nnz_raw);
  visit(result.sparsifier_nnz);
}

inline CheckpointedPipelineStats CheckpointStatsFromResult(
    const LightNeResult& result) {
  CheckpointedPipelineStats words{};
  size_t i = 0;
  ForEachCheckpointedStat(result, [&](const auto& field) {
    LIGHTNE_CHECK_LT(i, words.size());
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>, double>) {
      words[i++] = std::bit_cast<uint64_t>(field);
    } else {
      words[i++] = static_cast<uint64_t>(field);
    }
  });
  LIGHTNE_CHECK_EQ(i, words.size());
  return words;
}

inline void ApplyCheckpointStats(const CheckpointedPipelineStats& words,
                                 LightNeResult* result) {
  size_t i = 0;
  ForEachCheckpointedStat(*result, [&](auto& field) {
    using T = std::decay_t<decltype(field)>;
    LIGHTNE_CHECK_LT(i, words.size());
    if constexpr (std::is_same_v<T, double>) {
      field = std::bit_cast<double>(words[i++]);
    } else {
      field = static_cast<T>(words[i++]);
    }
  });
}

}  // namespace internal

/// Runs the full pipeline. The graph must be symmetric and simple.
template <GraphView G>
Result<LightNeResult> RunLightNe(const G& g, const LightNeOptions& opt) {
  if (g.NumVertices() == 0 || g.NumDirectedEdges() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (opt.dim > g.NumVertices()) {
    return Status::InvalidArgument("embedding dim exceeds vertex count");
  }
  LightNeResult result;
  MemoryBudget budget(opt.memory_budget_bytes);
  // Everything below runs under a root span so trace exports show the stage
  // spans (recorded by result.timing) nested inside one "lightne" event. On
  // error paths the span and timer destructors unwind the nesting depth.
  const uint64_t trace_mark = TraceRecorder::Global().Mark();
  TraceSpan pipeline_span("lightne");

  CheckpointManager checkpoint(
      opt.checkpoint_dir, opt.resume,
      internal::CheckpointOptionsFingerprint(opt),
      internal::CheckpointGraphFingerprint(g),
      /*total_stages=*/opt.spectral_propagation ? 3 : 2);
  // Stage scalars carried inside every artifact, so a resume from any rung
  // of the ladder restores the same LightNeResult statistics.
  CheckpointedPipelineStats ckpt_stats{};

  const auto finish = [&](LightNeResult&& r) -> LightNeResult {
    r.timing.Stop();
    pipeline_span.End();
    r.peak_reserved_bytes = budget.peak_reserved_bytes();
    r.resume_stages_skipped = checkpoint.stages_skipped();
    if (!opt.trace_path.empty()) {
      const Status written = TraceRecorder::WriteChromeTrace(
          TraceRecorder::Global().EventsSince(trace_mark), opt.trace_path);
      if (!written.ok()) {
        LIGHTNE_LOG_WARN("pipeline trace not written to %s: %s",
                         opt.trace_path.c_str(), written.message().c_str());
      }
    }
    return std::move(r);
  };

  // ---- Resume ladder: newest artifact first ------------------------------
  using EmbeddingStage = CheckpointManager::EmbeddingStage;
  if (checkpoint.LoadEmbedding(EmbeddingStage::kFinal, &result.embedding,
                               &ckpt_stats)) {
    internal::ApplyCheckpointStats(ckpt_stats, &result);
    result.degraded = result.sparsifier_stats.degraded;
    return finish(std::move(result));
  }
  SparseMatrix matrix;
  const bool have_embedding = checkpoint.LoadEmbedding(
      EmbeddingStage::kRsvd, &result.embedding, &ckpt_stats);
  const bool have_matrix =
      !have_embedding && checkpoint.LoadSparsifier(&matrix, &ckpt_stats);
  if (have_embedding || have_matrix) {
    internal::ApplyCheckpointStats(ckpt_stats, &result);
  }

  // ---- Stage 1: parallel sparsifier construction -------------------------
  if (!have_embedding && !have_matrix) {
    result.timing.Start("sparsifier");
    SparsifierOptions sopt;
    const double m = static_cast<double>(g.NumDirectedEdges()) / 2.0;
    sopt.num_samples =
        opt.num_samples > 0
            ? opt.num_samples
            : static_cast<uint64_t>(opt.samples_ratio * opt.window * m);
    sopt.window = opt.window;
    sopt.downsample = opt.downsample;
    sopt.downsample_constant = opt.downsample_constant;
    sopt.seed = opt.seed;
    sopt.memory_budget = budget.limited() ? &budget : nullptr;
    sopt.combiner = opt.sampler_combiner;
    sopt.walk_pin_budget_bytes = opt.walk_pin_budget_bytes;
    auto sparsifier = BuildSparsifier(g, sopt);
    if (!sparsifier.ok()) return sparsifier.status();
    matrix = std::move(sparsifier->matrix);
    result.sparsifier_nnz_raw = matrix.nnz();
    ApplyNetmfTransform(g, sopt.num_samples, opt.negative_samples, &matrix);
    result.sparsifier_nnz = matrix.nnz();
    result.sparsifier_stats = std::move(*sparsifier);
    result.sparsifier_stats.matrix = SparseMatrix();
    LIGHTNE_LOG_DEBUG(
        "sparsifier: %llu samples drawn, %llu accepted, nnz %llu -> %llu",
        static_cast<unsigned long long>(result.sparsifier_stats.samples_drawn),
        static_cast<unsigned long long>(
            result.sparsifier_stats.samples_accepted),
        static_cast<unsigned long long>(result.sparsifier_nnz_raw),
        static_cast<unsigned long long>(result.sparsifier_nnz));
    ckpt_stats = internal::CheckpointStatsFromResult(result);
    // Saved after the NetMF transform, so a resume skips both the sampling
    // pass and the entrywise transform.
    checkpoint.SaveSparsifier(matrix, ckpt_stats);
  }

  // ---- Stage 2: randomized SVD (Algo 3) ----------------------------------
  if (!have_embedding) {
    result.timing.Start("rsvd");
    RandomizedSvdOptions ropt;
    ropt.rank = opt.dim;
    ropt.oversample = opt.svd_oversample;
    ropt.power_iters = opt.svd_power_iters;
    ropt.symmetric = true;  // sparsifier is symmetric by construction
    ropt.seed = opt.seed + 7;
    // Workspace: RandomizedSvd keeps at most three dense n x q float
    // panels' worth alive (la/rsvd.h): two panels, or one panel and its
    // double Householder workspace. Reserve them up front so an envelope
    // too small for the factorization is a reported error, not an OOM kill.
    uint64_t q = ropt.rank + ropt.oversample;
    if (q > g.NumVertices()) q = g.NumVertices();
    BudgetReservation svd_reservation(
        budget.limited() ? &budget : nullptr,
        3 * static_cast<uint64_t>(g.NumVertices()) * q * sizeof(float));
    if (!svd_reservation.ok()) {
      return Status::ResourceExhausted(
          "memory budget of " + HumanBytes(budget.limit_bytes()) +
          " cannot hold the randomized-SVD workspace");
    }
    auto svd = RandomizedSvd(matrix, ropt);
    if (!svd.ok()) return svd.status();
    matrix = SparseMatrix();
    result.embedding = EmbeddingFromSvd(std::move(*svd));
    svd_reservation.ReleaseEarly();
    checkpoint.SaveEmbedding(EmbeddingStage::kRsvd, result.embedding,
                             ckpt_stats);
  }

  // ---- Stage 3: spectral propagation (ProNE enhancement) -----------------
  if (opt.spectral_propagation) {
    result.timing.Start("propagation");
    // The Chebyshev recurrence keeps 5 dense n x d panels alive (X and its
    // four buffers) next to the operator SpectralPropagate copies g into.
    const uint64_t n = g.NumVertices();
    BudgetReservation prop_reservation(
        budget.limited() ? &budget : nullptr,
        5 * n * opt.dim * sizeof(float) +
            internal::PropagationOperatorBytes(n, g.NumDirectedEdges()));
    if (!prop_reservation.ok()) {
      return Status::ResourceExhausted(
          "memory budget of " + HumanBytes(budget.limit_bytes()) +
          " cannot hold the spectral-propagation workspace");
    }
    auto propagated = SpectralPropagate(g, result.embedding, opt.propagation);
    if (!propagated.ok()) return propagated.status();
    result.embedding = std::move(*propagated);
  }
  checkpoint.SaveEmbedding(EmbeddingStage::kFinal, result.embedding,
                           ckpt_stats);
  result.degraded = result.sparsifier_stats.degraded;
  return finish(std::move(result));
}

}  // namespace lightne

#endif  // LIGHTNE_CORE_LIGHTNE_H_
