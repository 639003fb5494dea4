#include "util/artifact_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "util/fault_injection.h"

namespace lightne {

namespace {

constexpr uint64_t kArtifactMagic = 0x4c4e454152543100ull;  // "LNEART1\0"

struct FrameHeader {
  uint64_t payload_bytes;
  uint32_t crc32c;
  uint32_t reserved;
};
static_assert(sizeof(FrameHeader) == 16);

struct FileHeader {
  uint64_t magic;
  uint32_t schema_id;
  uint32_t schema_version;
};
static_assert(sizeof(FileHeader) == 16);

const uint32_t* Crc32cTable() {
  // Standard reflected Castagnoli table, built once.
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

#if defined(__x86_64__)
// Eight bytes per crc32 instruction, then the tail a byte at a time. It
// carries the sse4.2 target itself, so the default x86-64 build compiles it
// and Hardware() decides at run time whether it may run.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       uint64_t bytes,
                                                       uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; bytes >= 8; p += 8, bytes -= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc = __builtin_ia32_crc32di(crc, chunk);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; bytes > 0; --bytes) crc32 = __builtin_ia32_crc32qi(crc32, *p++);
  return ~crc32;
}
#endif

/// Fsyncs the directory containing `path` so a just-committed rename
/// survives power loss. Best-effort: some filesystems reject O_DIRECTORY
/// fsync, and the rename itself is already atomic for crash-of-this-process
/// purposes.
void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

}  // namespace

uint32_t crc32c_internal::Software(const void* data, uint64_t bytes,
                                   uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const uint32_t* table = Crc32cTable();
  uint32_t crc = ~seed;
  for (uint64_t i = 0; i < bytes; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

crc32c_internal::Fn crc32c_internal::Hardware() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return nullptr;
}

uint32_t Crc32c(const void* data, uint64_t bytes, uint32_t seed) {
  // Resolved once, on first use (thread-safe static initialization).
  static const crc32c_internal::Fn hardware = crc32c_internal::Hardware();
  if (hardware != nullptr) return hardware(data, bytes, seed);
  return crc32c_internal::Software(data, bytes, seed);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<uint64_t> FileSizeBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat " + path);
  }
  return static_cast<uint64_t>(st.st_size);
}

// ------------------------------------------------------- AtomicFileWriter --

Status AtomicFileWriter::Open(const std::string& path) {
  LIGHTNE_CHECK_MSG(file_ == nullptr, "AtomicFileWriter reopened");
  path_ = path;
  tmp_path_ = path + ".tmp";
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IOError("cannot open " + tmp_path_ + " for writing");
  }
  return Status::Ok();
}

Status AtomicFileWriter::Commit() {
  LIGHTNE_CHECK_MSG(file_ != nullptr, "Commit without a successful Open");
  if (LIGHTNE_FAULT_POINT("io/write")) {
    Abort();
    return Status::IOError("injected fault io/write committing " + path_);
  }
  bool ok = std::fflush(file_) == 0;
  if (ok) ok = ::fsync(::fileno(file_)) == 0;
  const int close_rc = std::fclose(file_);
  file_ = nullptr;
  ok = ok && close_rc == 0;
  if (ok) ok = std::rename(tmp_path_.c_str(), path_.c_str()) == 0;
  if (!ok) {
    std::remove(tmp_path_.c_str());
    return Status::IOError("cannot commit " + path_);
  }
  FsyncParentDir(path_);
  return Status::Ok();
}

void AtomicFileWriter::Abort() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  std::remove(tmp_path_.c_str());
}

// --------------------------------------------------------- ArtifactWriter --

Status ArtifactWriter::Open(const std::string& path, uint32_t schema_id,
                            uint32_t schema_version) {
  LIGHTNE_RETURN_IF_ERROR(file_.Open(path));
  const FileHeader header = {kArtifactMagic, schema_id, schema_version};
  if (std::fwrite(&header, sizeof(header), 1, file_.stream()) != 1) {
    return Status::IOError("short write to " + path);
  }
  bytes_written_ += sizeof(header);
  return Status::Ok();
}

Status ArtifactWriter::AppendFrame(const void* data, uint64_t bytes) {
  if (LIGHTNE_FAULT_POINT("io/write")) {
    return Status::IOError("injected fault io/write appending frame");
  }
  const FrameHeader header = {bytes, Crc32c(data, bytes), 0};
  std::FILE* f = file_.stream();
  if (std::fwrite(&header, sizeof(header), 1, f) != 1 ||
      (bytes > 0 && std::fwrite(data, 1, bytes, f) != bytes)) {
    return Status::IOError("short write appending artifact frame");
  }
  bytes_written_ += sizeof(header) + bytes;
  return Status::Ok();
}

Status ArtifactWriter::Commit() { return file_.Commit(); }

// --------------------------------------------------------- MappedArtifact --

MappedArtifact::~MappedArtifact() {
  if (map_ != nullptr) ::munmap(map_, file_bytes_);
}

MappedArtifact::MappedArtifact(MappedArtifact&& other) noexcept
    : map_(other.map_),
      file_bytes_(other.file_bytes_),
      schema_version_(other.schema_version_),
      frames_(std::move(other.frames_)) {
  other.map_ = nullptr;
  other.file_bytes_ = 0;
  other.frames_.clear();
}

MappedArtifact& MappedArtifact::operator=(MappedArtifact&& other) noexcept {
  if (this == &other) return *this;
  if (map_ != nullptr) ::munmap(map_, file_bytes_);
  map_ = other.map_;
  file_bytes_ = other.file_bytes_;
  schema_version_ = other.schema_version_;
  frames_ = std::move(other.frames_);
  other.map_ = nullptr;
  other.file_bytes_ = 0;
  other.frames_.clear();
  return *this;
}

const MappedArtifact::FrameView& MappedArtifact::frame(size_t index) const {
  LIGHTNE_CHECK_MSG(index < frames_.size(), "frame index out of range");
  return frames_[index];
}

Result<MappedArtifact> MappedArtifact::Open(const std::string& path,
                                            uint32_t expected_schema_id) {
  if (LIGHTNE_FAULT_POINT("io/read")) {
    return Status::IOError("injected fault io/read mapping " + path);
  }
  if (!FileExists(path)) return Status::NotFound(path + " does not exist");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < sizeof(FileHeader)) {
    ::close(fd);
    return Status::DataLoss("truncated artifact header in " + path);
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (map == MAP_FAILED) return Status::IOError("cannot mmap " + path);

  MappedArtifact artifact;
  artifact.map_ = map;
  artifact.file_bytes_ = file_bytes;
  const auto* base = static_cast<const uint8_t*>(map);

  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (header.magic != kArtifactMagic) {
    return Status::DataLoss("bad artifact magic in " + path);
  }
  if (header.schema_id != expected_schema_id) {
    return Status::InvalidArgument(
        path + " holds schema id " + std::to_string(header.schema_id) +
        ", expected " + std::to_string(expected_schema_id));
  }
  artifact.schema_version_ = header.schema_version;

  // Walk every frame up front: a MappedArtifact that Opens OK has had each
  // payload checksummed, so later zero-copy frame() reads cannot surface
  // silent corruption. The walk must end exactly at the file's last byte —
  // trailing garbage means the file is not what the writer committed.
  uint64_t offset = sizeof(FileHeader);
  while (offset < file_bytes) {
    if (file_bytes - offset < sizeof(FrameHeader)) {
      return Status::DataLoss("truncated artifact: torn frame header in " +
                              path);
    }
    FrameHeader frame;
    std::memcpy(&frame, base + offset, sizeof(frame));
    offset += sizeof(FrameHeader);
    if (frame.payload_bytes > file_bytes - offset) {
      return Status::DataLoss("truncated artifact frame in " + path);
    }
    if (frame.reserved != 0) {
      return Status::DataLoss("nonzero frame reserved word in " + path);
    }
    const uint8_t* payload = base + offset;
    if (Crc32c(payload, frame.payload_bytes) != frame.crc32c) {
      return Status::DataLoss("artifact frame checksum mismatch in " + path);
    }
    artifact.frames_.push_back(
        FrameView{frame.payload_bytes > 0 ? payload : nullptr,
                  frame.payload_bytes});
    offset += frame.payload_bytes;
  }
  LIGHTNE_CHECK_MSG(offset == file_bytes, "frame walk overran the map");
  return artifact;
}

}  // namespace lightne
