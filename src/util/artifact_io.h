// Crash-safe artifact I/O (DESIGN.md §12, "Checkpoint & recovery contract").
//
// Two layers:
//
//  1. AtomicFileWriter — the ONE way this repo writes a file. Bytes go to
//     `<path>.tmp`; Commit() flushes, fsyncs, closes, and atomically renames
//     onto `path`, so a reader (or a process restarted after a crash) only
//     ever sees either the previous complete file or the new complete file,
//     never a torn intermediate. Destruction without Commit() removes the
//     tmp file. The `atomicio` lint rule (tools/lint/lightne_lint.py) bans
//     direct write-mode fopen/std::ofstream outside this module so the
//     guarantee holds repo-wide.
//
//  2. ArtifactWriter / MappedArtifact — a framed, versioned, checksummed
//     binary container for checkpoint artifacts and embedding stores. File
//     layout:
//
//         [u64 magic "LNEART1"] [u32 schema_id] [u32 schema_version]
//         frame*: [u64 payload_bytes] [u32 crc32c(payload)] [u32 reserved=0]
//                 [payload bytes]
//
//     The reader checks the magic, the schema id, each frame's length,
//     checksum and zero reserved word, and that the frames end exactly at
//     the file's end. It maps every corruption mode to kDataLoss instead of
//     crashing or silently returning garbage, so callers can degrade to
//     recomputing the artifact (core/checkpoint). The schema version and
//     the frame count and sizes are the caller's to check, since its schema
//     defines them; with those checks, every byte of the file is covered.
//
// Fault points: "io/write" is evaluated per frame append and at Commit(), so
// the fault-injection harness can fail — or crash-kill (kCrash) — a writer
// mid-file and at the commit boundary.
#ifndef LIGHTNE_UTIL_ARTIFACT_IO_H_
#define LIGHTNE_UTIL_ARTIFACT_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

namespace lightne {

/// CRC32C (Castagnoli) of `bytes`: the standard reflected CRC, so checksums
/// are portable across builds and machines. Runs the SSE4.2 crc32
/// instruction where the CPU has it (checked once, at first use) and a table
/// walk elsewhere.
uint32_t Crc32c(const void* data, uint64_t bytes, uint32_t seed = 0);

namespace crc32c_internal {
using Fn = uint32_t (*)(const void* data, uint64_t bytes, uint32_t seed);
/// Crc32c's two arms, exposed so a test can run both. The table walk runs
/// anywhere; Hardware() is nullptr on a CPU without SSE4.2.
uint32_t Software(const void* data, uint64_t bytes, uint32_t seed);
Fn Hardware();
}  // namespace crc32c_internal

/// True if `path` exists (any file type).
bool FileExists(const std::string& path);

/// Size of `path` in bytes, or kIOError.
Result<uint64_t> FileSizeBytes(const std::string& path);

/// Write-tmp -> fsync -> atomic-rename file writer. Usage:
///
///   AtomicFileWriter w;
///   LIGHTNE_RETURN_IF_ERROR(w.Open(path));
///   std::fprintf(w.stream(), ...);       // or fwrite
///   return w.Commit();
///
/// Any failure before Commit(): just return; the destructor removes the tmp
/// file and `path` is untouched (previous contents, if any, survive).
class AtomicFileWriter {
 public:
  AtomicFileWriter() = default;
  ~AtomicFileWriter() { Abort(); }
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Opens `<path>.tmp` for writing ("wb": binary/text make no difference on
  /// POSIX). kIOError if the tmp file cannot be created.
  Status Open(const std::string& path);

  /// The tmp-file stream; valid between a successful Open and Commit/Abort.
  std::FILE* stream() const { return file_; }

  /// Flushes, fsyncs, closes, and renames tmp onto the target path, then
  /// fsyncs the parent directory so the rename itself is durable. On any
  /// failure the tmp file is removed and the target is left untouched.
  /// Evaluates fault point "io/write".
  Status Commit();

  /// Closes and removes the tmp file (idempotent; no-op after Commit).
  void Abort();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::string tmp_path_;
};

/// Framed artifact writer on top of AtomicFileWriter.
class ArtifactWriter {
 public:
  /// Opens the artifact and writes the header. `schema_id` names the payload
  /// layout (caller-chosen constant); `schema_version` its revision.
  Status Open(const std::string& path, uint32_t schema_id,
              uint32_t schema_version);

  /// Appends one checksummed frame. Evaluates fault point "io/write".
  Status AppendFrame(const void* data, uint64_t bytes);

  /// Commits the file atomically. The artifact is unreadable (tmp-only)
  /// until this returns OK.
  Status Commit();

  /// Bytes written so far, header and frame headers included.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  AtomicFileWriter file_;
  uint64_t bytes_written_ = 0;
};

/// Read-only mmap view of a committed artifact. Open() maps the whole file
/// and validates the header plus EVERY frame checksum in one pass, so a
/// returned MappedArtifact guarantees the mapped bytes are exactly what the
/// writer committed; after that, frames are served zero-copy out of the map
/// (the embedding store serves multi-GiB payloads this way without a heap
/// copy). Error mapping: missing file kNotFound, wrong schema_id
/// kInvalidArgument, anything structurally wrong — short header, truncated
/// frame, checksum mismatch, nonzero reserved word, trailing bytes —
/// kDataLoss.
class MappedArtifact {
 public:
  /// One validated frame inside the map. `data` stays valid as long as the
  /// owning MappedArtifact is alive; alignment is whatever the on-disk
  /// layout gives (header and frame headers are 16 bytes, so frame payloads
  /// start 16-byte aligned relative to the preceding payload end).
  struct FrameView {
    const void* data = nullptr;
    uint64_t bytes = 0;
  };

  /// Maps `path` and validates every frame. Evaluates fault point "io/read".
  static Result<MappedArtifact> Open(const std::string& path,
                                     uint32_t expected_schema_id);

  MappedArtifact() = default;
  ~MappedArtifact();
  MappedArtifact(MappedArtifact&& other) noexcept;
  MappedArtifact& operator=(MappedArtifact&& other) noexcept;
  MappedArtifact(const MappedArtifact&) = delete;
  MappedArtifact& operator=(const MappedArtifact&) = delete;

  /// Schema version from the header (valid after Open).
  uint32_t schema_version() const { return schema_version_; }
  /// Total mapped size, header and frame headers included.
  uint64_t file_bytes() const { return file_bytes_; }
  size_t num_frames() const { return frames_.size(); }
  /// CHECK-fails on out-of-range index: callers know their schema's frame
  /// count (and validated it) before asking.
  const FrameView& frame(size_t index) const;

 private:
  void* map_ = nullptr;
  uint64_t file_bytes_ = 0;
  uint32_t schema_version_ = 0;
  std::vector<FrameView> frames_;
};

}  // namespace lightne

#endif  // LIGHTNE_UTIL_ARTIFACT_IO_H_
