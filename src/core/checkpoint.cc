#include "core/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace lightne {

namespace {

constexpr char kStageSparsifier[] = "sparsifier";
constexpr char kStageRsvd[] = "rsvd";
constexpr char kStageFinal[] = "final";

// Artifact schema ids (util/artifact_io.h header field).
constexpr uint32_t kSchemaSparsifier = 1;
constexpr uint32_t kSchemaRsvd = 2;
constexpr uint32_t kSchemaFinal = 3;
// Artifacts of any other version are refused and recomputed (version 1 has
// no header frame; version 2's rsvd.art holds the factors U, sigma and V;
// version 3's header frame carries 16 stats words, two of them the retired
// combiner_flushes and table_batch_upserts counters).
constexpr uint32_t kSchemaVersion = 4;

// Frame 0 of every stage artifact, as little-endian u64 words: it binds the
// artifact to the (options, graph) pair that wrote it.
struct HeaderFrame {
  uint64_t options_fp;
  uint64_t graph_fp;
  CheckpointedPipelineStats stats;
};
static_assert(sizeof(HeaderFrame) ==
              (2 + std::tuple_size_v<CheckpointedPipelineStats>) *
                  sizeof(uint64_t));

// Frame `index` of a validated artifact, checked to hold exactly `bytes`.
Result<const void*> SizedFrame(const MappedArtifact& artifact, size_t index,
                               uint64_t bytes, const char* what) {
  const MappedArtifact::FrameView& frame = artifact.frame(index);
  if (frame.bytes != bytes) {
    return Status::DataLoss(std::string(what) + " frame holds " +
                            std::to_string(frame.bytes) +
                            " bytes, expected " + std::to_string(bytes));
  }
  return frame.data;
}

Status CopyFrame(const MappedArtifact& artifact, size_t index, void* out,
                 uint64_t bytes, const char* what) {
  auto data = SizedFrame(artifact, index, bytes, what);
  if (!data.ok()) return data.status();
  if (bytes > 0) std::memcpy(out, *data, bytes);
  return Status::Ok();
}

// mkdir -p. Best-effort: failures surface later as save failures.
void MakeDirs(const std::string& dir) {
  std::string prefix;
  size_t from = 0;
  while (from <= dir.size()) {
    const size_t slash = dir.find('/', from);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    if (!prefix.empty()) {
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        LIGHTNE_LOG_WARN("checkpoint: cannot create directory %s: %s",
                         prefix.c_str(), std::strerror(errno));
        return;
      }
    }
    if (slash == std::string::npos) break;
    from = slash + 1;
  }
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, bool resume,
                                     uint64_t options_fp, uint64_t graph_fp,
                                     uint64_t total_stages)
    : dir_(std::move(dir)),
      resume_(resume && !dir_.empty()),
      options_fp_(options_fp),
      graph_fp_(graph_fp),
      total_stages_(total_stages) {
  if (enabled()) MakeDirs(dir_);
}

// ---- shared save / load ---------------------------------------------------

void CheckpointManager::Save(const char* stage, uint32_t schema_id,
                             const CheckpointedPipelineStats& stats,
                             std::initializer_list<Frame> frames) {
  if (!enabled()) return;
  TraceSpan span(std::string("checkpoint/save/") + stage);
  Timer timer;
  ArtifactWriter writer;
  const HeaderFrame header = {options_fp_, graph_fp_, stats};
  const Status saved = [&]() -> Status {
    LIGHTNE_RETURN_IF_ERROR(writer.Open(dir_ + "/" + stage + ".art",
                                        schema_id, kSchemaVersion));
    LIGHTNE_RETURN_IF_ERROR(writer.AppendFrame(&header, sizeof(header)));
    for (const Frame& frame : frames) {
      LIGHTNE_RETURN_IF_ERROR(writer.AppendFrame(frame.data, frame.bytes));
    }
    return writer.Commit();
  }();
  if (!saved.ok()) {
    static Counter* failures =
        MetricsRegistry::Global().GetCounter("checkpoint/save_failures");
    failures->Increment();
    LIGHTNE_LOG_WARN("checkpoint: %s not saved (pipeline continues): %s",
                     stage, saved.message().c_str());
    return;
  }
  static Counter* saves =
      MetricsRegistry::Global().GetCounter("checkpoint/saves");
  static Counter* save_ms =
      MetricsRegistry::Global().GetCounter("checkpoint/save_ms");
  static Counter* save_bytes =
      MetricsRegistry::Global().GetCounter("checkpoint/bytes");
  saves->Increment();
  save_ms->Add(static_cast<uint64_t>(timer.Millis()));
  save_bytes->Add(writer.bytes_written());
}

bool CheckpointManager::Load(const char* stage, uint32_t schema_id,
                             size_t frames, uint64_t stages,
                             CheckpointedPipelineStats* stats,
                             const Decoder& decode) {
  if (!resume_) return false;
  const std::string path = dir_ + "/" + stage + ".art";
  if (!FileExists(path)) return false;  // never saved: nothing to count
  TraceSpan span(std::string("checkpoint/load/") + stage);
  auto artifact = MappedArtifact::Open(path, schema_id);
  HeaderFrame header{};
  Status status = [&]() -> Status {
    LIGHTNE_RETURN_IF_ERROR(artifact.status());
    if (artifact->schema_version() != kSchemaVersion ||
        artifact->num_frames() != frames) {
      return Status::DataLoss(
          path + " is schema version " +
          std::to_string(artifact->schema_version()) + " with " +
          std::to_string(artifact->num_frames()) + " frames, expected " +
          std::to_string(kSchemaVersion) + " with " + std::to_string(frames));
    }
    return CopyFrame(*artifact, 0, &header, sizeof(header), "header");
  }();
  if (status.ok() &&
      (header.options_fp != options_fp_ || header.graph_fp != graph_fp_)) {
    static Counter* stale =
        MetricsRegistry::Global().GetCounter("resume/stale_artifacts");
    stale->Increment();
    LIGHTNE_LOG_WARN(
        "checkpoint: %s was written for different options/graph (options "
        "%016" PRIx64 " vs %016" PRIx64 ", graph %016" PRIx64 " vs %016" PRIx64
        "), recomputing",
        path.c_str(), header.options_fp, options_fp_, header.graph_fp,
        graph_fp_);
    return false;
  }
  if (status.ok()) status = decode(*artifact);
  if (!status.ok()) {
    static Counter* corrupt =
        MetricsRegistry::Global().GetCounter("resume/corrupt_artifacts");
    corrupt->Increment();
    LIGHTNE_LOG_WARN("checkpoint: %s artifact unusable, recomputing: %s",
                     stage, status.message().c_str());
    return false;
  }
  *stats = header.stats;
  stages_skipped_ += stages;
  static Counter* skipped =
      MetricsRegistry::Global().GetCounter("resume/stages_skipped");
  skipped->Add(stages);
  LIGHTNE_LOG_INFO("checkpoint: resumed %s from %s (%" PRIu64
                   " stage(s) skipped)",
                   stage, path.c_str(), stages);
  return true;
}

// ---- loads ----------------------------------------------------------------

bool CheckpointManager::LoadEmbedding(EmbeddingStage stage, Matrix* embedding,
                                      CheckpointedPipelineStats* stats) {
  const bool is_final = stage == EmbeddingStage::kFinal;
  // Frames: header, dims {rows, cols}, embedding.
  return Load(is_final ? kStageFinal : kStageRsvd,
              is_final ? kSchemaFinal : kSchemaRsvd, 3,
              is_final ? total_stages_ : 2, stats,
              [&](const MappedArtifact& artifact) -> Status {
                uint64_t shape[2] = {};
                LIGHTNE_RETURN_IF_ERROR(
                    CopyFrame(artifact, 1, shape, sizeof(shape), "dims"));
                const uint64_t rows = shape[0], cols = shape[1];
                if (cols != 0 && rows > UINT64_MAX / sizeof(float) / cols) {
                  return Status::DataLoss(
                      "embedding dimensions overflow a byte count");
                }
                const uint64_t bytes = rows * cols * sizeof(float);
                auto data = SizedFrame(artifact, 2, bytes, "embedding");
                if (!data.ok()) return data.status();
                *embedding = Matrix(rows, cols);
                if (bytes > 0) std::memcpy(embedding->data(), *data, bytes);
                return Status::Ok();
              });
}

bool CheckpointManager::LoadSparsifier(SparseMatrix* matrix,
                                       CheckpointedPipelineStats* stats) {
  // Frames: header, dims {rows, cols, nnz}, row_offsets, col_indices, values.
  return Load(
      kStageSparsifier, kSchemaSparsifier, 5, 1, stats,
      [&](const MappedArtifact& artifact) -> Status {
        uint64_t shape[3] = {};
        LIGHTNE_RETURN_IF_ERROR(
            CopyFrame(artifact, 1, shape, sizeof(shape), "dims"));
        const uint64_t rows = shape[0], cols = shape[1], nnz = shape[2];
        if (rows > UINT64_MAX / sizeof(uint64_t) - 1 ||
            nnz > UINT64_MAX / sizeof(uint64_t) || cols > UINT64_MAX / 2) {
          return Status::DataLoss("sparsifier declares absurd dimensions");
        }
        auto offsets = SizedFrame(artifact, 2, (rows + 1) * sizeof(uint64_t),
                                  "row_offsets");
        if (!offsets.ok()) return offsets.status();
        auto col_frame =
            SizedFrame(artifact, 3, nnz * sizeof(uint32_t), "col_indices");
        if (!col_frame.ok()) return col_frame.status();
        auto values = SizedFrame(artifact, 4, nnz * sizeof(float), "values");
        if (!values.ok()) return values.status();
        std::vector<uint64_t> row_offsets(rows + 1);
        std::memcpy(row_offsets.data(), *offsets,
                    row_offsets.size() * sizeof(uint64_t));
        // Rebuild the strictly-increasing (row << 32 | col, value) stream
        // FromSortedTriplets expects, re-validating the CSR invariants so a
        // corruption mode the checksum happens to miss degrades to
        // recompute instead of tripping a CHECK.
        if (row_offsets[0] != 0 || row_offsets[rows] != nnz) {
          return Status::DataLoss("sparsifier has inconsistent row offsets");
        }
        std::vector<std::pair<uint64_t, float>> keyed(nnz);
        const auto* col_bytes = static_cast<const uint8_t*>(*col_frame);
        const auto* val_bytes = static_cast<const uint8_t*>(*values);
        uint64_t prev_key = 0;
        for (uint64_t i = 0; i < rows; ++i) {
          if (row_offsets[i] > row_offsets[i + 1]) {
            return Status::DataLoss("sparsifier has decreasing row offsets");
          }
          for (uint64_t k = row_offsets[i]; k < row_offsets[i + 1]; ++k) {
            uint32_t col = 0;
            float value = 0.0f;
            std::memcpy(&col, col_bytes + k * sizeof(uint32_t), sizeof(col));
            std::memcpy(&value, val_bytes + k * sizeof(float), sizeof(value));
            if (col >= cols) {
              return Status::DataLoss("sparsifier has an out-of-range column");
            }
            const uint64_t key = (i << 32) | col;
            if (k > 0 && key <= prev_key) {
              return Status::DataLoss("sparsifier has unsorted entries");
            }
            prev_key = key;
            keyed[k] = {key, value};
          }
        }
        *matrix = SparseMatrix::FromSortedTriplets(rows, cols, keyed);
        return Status::Ok();
      });
}

// ---- saves ----------------------------------------------------------------

void CheckpointManager::SaveSparsifier(const SparseMatrix& matrix,
                                       const CheckpointedPipelineStats& stats) {
  const uint64_t dims[3] = {matrix.rows(), matrix.cols(), matrix.nnz()};
  Save(kStageSparsifier, kSchemaSparsifier, stats,
       {{dims, sizeof(dims)},
        {matrix.row_offsets().data(),
         matrix.row_offsets().size() * sizeof(uint64_t)},
        {matrix.col_indices().data(),
         matrix.col_indices().size() * sizeof(uint32_t)},
        {matrix.values().data(), matrix.values().size() * sizeof(float)}});
}

void CheckpointManager::SaveEmbedding(EmbeddingStage stage,
                                      const Matrix& embedding,
                                      const CheckpointedPipelineStats& stats) {
  const bool is_final = stage == EmbeddingStage::kFinal;
  const uint64_t dims[2] = {embedding.rows(), embedding.cols()};
  Save(is_final ? kStageFinal : kStageRsvd,
       is_final ? kSchemaFinal : kSchemaRsvd, stats,
       {{dims, sizeof(dims)}, {embedding.data(), embedding.SizeBytes()}});
}

}  // namespace lightne
