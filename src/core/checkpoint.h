// Crash-safe pipeline checkpoint/resume (DESIGN.md §12).
//
// A checkpoint directory holds one framed artifact (util/artifact_io.h) per
// completed pipeline stage, and nothing else:
//
//   <dir>/sparsifier.art     NetMF-transformed sparsifier matrix
//   <dir>/rsvd.art           pre-propagation embedding U diag(sqrt(sigma))
//   <dir>/final.art          final embedding (post-propagation)
//
// Each artifact is self-describing: its first frame is a header holding the
// options fingerprint, the graph fingerprint and the pipeline stats, so the
// file itself says which run wrote it. Artifacts are committed atomically,
// so a file under its final name is complete, and a stage is resumable as
// soon as its artifact commits.
//
// Resume contract: because the pipeline is bit-deterministic in
// (options, graph, seed) at any worker count (DESIGN.md §8), a run that
// loads a stage artifact instead of recomputing the stage produces a final
// embedding byte-identical to the uninterrupted run. That makes resume
// correctness machine-checkable — tests/crash_recovery_test.cc kills the
// pipeline at registered fault points and asserts exactly this.
//
// Graceful-degradation ladder, per artifact (never a hard failure):
//   1. artifact missing            -> that stage (and later) recomputed
//   2. artifact corrupt            -> same, resume/corrupt_artifacts++
//      (any byte of the framing, a frame checksum, the schema version, the
//      frame count or a frame size, a CSR invariant)
//   3. fingerprint mismatch        -> same, resume/stale_artifacts++
//   4. stage save fails            -> logged, checkpoint/save_failures++,
//                                     pipeline continues uncheckpointed
//
// Observability: checkpoint/{saves,save_ms,bytes,save_failures} and
// resume/{stages_skipped,corrupt_artifacts,stale_artifacts} counters, plus
// "checkpoint/save/<stage>" and "checkpoint/load/<stage>" trace spans.
#ifndef LIGHTNE_CORE_CHECKPOINT_H_
#define LIGHTNE_CORE_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/artifact_io.h"
#include "util/status.h"

namespace lightne {

/// Scalar pipeline facts carried inside every stage artifact so a resumed
/// LightNeResult reports the same statistics as the uninterrupted run: one
/// u64 word per field (doubles bit-cast), in the order
/// internal::ForEachCheckpointedStat (core/lightne.h) lists the fields.
using CheckpointedPipelineStats = std::array<uint64_t, 14>;

/// Stage-boundary save/load for RunLightNe. All failure handling lives here:
/// loads return false (recompute) on every corruption mode, saves are
/// best-effort and never surface an error to the pipeline.
class CheckpointManager {
 public:
  /// The stages whose artifact is a dense n x d embedding, in one frame
  /// layout (header, dims, matrix) told apart by the schema id.
  enum class EmbeddingStage { kRsvd, kFinal };

  /// `dir` empty disables checkpointing entirely (every call is a no-op).
  /// The directory is created (recursively) if missing. `resume` requests
  /// artifact reuse; the fingerprints bind artifacts to this exact
  /// (options, graph) pair. `total_stages` is the number of pipeline stages
  /// a valid final artifact skips (2 without spectral propagation, 3 with).
  CheckpointManager(std::string dir, bool resume, uint64_t options_fp,
                    uint64_t graph_fp, uint64_t total_stages);

  bool enabled() const { return !dir_.empty(); }

  // ---- Loads (latest stage first; false unless resume was requested and
  //      the artifact is valid for this run; each success bumps
  //      resume/stages_skipped by the number of stages it covers) ----------
  bool LoadEmbedding(EmbeddingStage stage, Matrix* embedding,
                     CheckpointedPipelineStats* stats);
  bool LoadSparsifier(SparseMatrix* matrix, CheckpointedPipelineStats* stats);

  // ---- Saves (best-effort) -----------------------------------------------
  void SaveSparsifier(const SparseMatrix& matrix,
                      const CheckpointedPipelineStats& stats);
  void SaveEmbedding(EmbeddingStage stage, const Matrix& embedding,
                     const CheckpointedPipelineStats& stats);

  /// Pipeline stages skipped via artifact loads in this run.
  uint64_t stages_skipped() const { return stages_skipped_; }

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

 private:
  struct Frame {
    const void* data;
    uint64_t bytes;
  };
  using Decoder = std::function<Status(const MappedArtifact&)>;

  /// Shared save: commits <dir>/<stage>.art as the header frame followed by
  /// `frames`. Failures are counted and logged, never returned.
  void Save(const char* stage, uint32_t schema_id,
            const CheckpointedPipelineStats& stats,
            std::initializer_list<Frame> frames);
  /// Shared load: maps <dir>/<stage>.art, checks it is a `frames`-frame
  /// artifact of this run, then runs `decode` over it. On success restores
  /// `stats` and counts `stages` skipped stages.
  bool Load(const char* stage, uint32_t schema_id, size_t frames,
            uint64_t stages, CheckpointedPipelineStats* stats,
            const Decoder& decode);

  std::string dir_;
  bool resume_ = false;
  uint64_t options_fp_ = 0;
  uint64_t graph_fp_ = 0;
  uint64_t total_stages_ = 3;
  uint64_t stages_skipped_ = 0;
};

}  // namespace lightne

#endif  // LIGHTNE_CORE_CHECKPOINT_H_
