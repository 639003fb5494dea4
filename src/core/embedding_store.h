// Quantized, mmap-able embedding store — the serving half of the pipeline
// (DESIGN.md §14, "Serving contract").
//
// The training pipeline ends at a dense float matrix; serving wants that
// matrix resident for the process lifetime at a fraction of the memory and
// with crash-safe provenance. EmbeddingStore::Write() quantizes a Matrix
// per *dimension* (LightNE 2.0's quantization step: each column j gets its
// own affine code map) and commits it through util/artifact_io's framed+CRC
// format, so every corruption mode surfaces as a typed Status instead of a
// silently wrong score. EmbeddingStore::Open() mmaps the committed file,
// validates every frame checksum once, and serves code rows zero-copy.
//
// Quantization codebook, per column j over rows of the source matrix:
//
//   int8:  codes are uint8 q in [0, 255],
//            scale_j  = (max_j - min_j) / 255,  offset_j = min_j,
//            encode: q = clamp(lround((x - offset_j) / scale_j), 0, 255)
//            decode: x' = offset_j + scale_j * q          (double, then float)
//   fp16:  codes are IEEE binary16 of the normalized value,
//            scale_j  = (max_j - min_j) / 2,  offset_j = (max_j + min_j) / 2,
//            encode: h = FloatToHalf((x - offset_j) / scale_j)   (h in [-1,1])
//            decode: x' = offset_j + scale_j * HalfToFloat(h)
//   fp32:  codes are the raw floats (scale_j = 1, offset_j = 0); the store
//          is then a checksummed mmap of the matrix — the serving baseline
//          the quantized kinds are measured against.
//
// Degenerate columns are handled explicitly: a constant column (max == min,
// including all-zero and all-denormal columns) stores scale_j = 0 and
// decodes exactly to offset_j; a column whose span underflows float (scale
// rounds to 0 while max > min) bumps scale to the smallest positive float so
// the round-trip error bound below still holds.
//
// Round-trip contract (property-tested in tests/store_test.cc): for finite
// inputs, |dequantize(quantize(x)) - x| <= scale_j / 2 up to one float
// rounding of the result (i.e. plus half an ulp of the column's magnitude).
// Encoding is deterministic and parallel over rows with a partition
// independent of worker count, so the committed file bytes are identical at
// any worker count: a fingerprint of the embedding, not of the machine that
// wrote it.
//
// Sizing: Write() reserves the transient code buffer and Open() reserves
// the mapped file size against the MemoryBudget governor (admission
// control); both fail with kResourceExhausted instead of OOM-dying.
#ifndef LIGHTNE_CORE_EMBEDDING_STORE_H_
#define LIGHTNE_CORE_EMBEDDING_STORE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.h"
#include "util/artifact_io.h"
#include "util/memory.h"
#include "util/status.h"

namespace lightne {

/// Code layout of a store. Values are part of the on-disk format.
enum class QuantKind : uint32_t {
  kInt8 = 0,   // 1 byte/dim, per-dimension affine uint8 codes
  kFp16 = 1,   // 2 bytes/dim, per-dimension normalized IEEE binary16
  kFp32 = 2,   // 4 bytes/dim, raw floats (identity codebook)
};

/// Bytes per stored code element for `kind`.
inline uint64_t QuantElemBytes(QuantKind kind) {
  switch (kind) {
    case QuantKind::kInt8: return 1;
    case QuantKind::kFp16: return 2;
    case QuantKind::kFp32: return 4;
  }
  return 0;
}

const char* QuantKindName(QuantKind kind);

/// Parses "int8" / "fp16" / "fp32" (CLI surface); kInvalidArgument otherwise.
Result<QuantKind> ParseQuantKind(const std::string& name);

/// float -> IEEE binary16 bits, round-to-nearest-even, overflow to ±inf,
/// NaN preserved (quietened). Pure bit manipulation: no FP environment
/// dependence, so encodings are identical across builds and worker counts.
inline uint16_t FloatToHalf(float value) {
  const uint32_t bits = std::bit_cast<uint32_t>(value);
  const auto sign = static_cast<uint16_t>((bits >> 16) & 0x8000u);
  const uint32_t abs = bits & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // inf / NaN (keep NaN-ness, quieten payload)
    return static_cast<uint16_t>(
        sign | 0x7c00u | (abs > 0x7f800000u ? 0x0200u : 0u));
  }
  const uint32_t exp = abs >> 23;  // biased float exponent
  if (exp >= 143) return static_cast<uint16_t>(sign | 0x7c00u);  // >= 2^16
  if (exp >= 113) {
    // Normal half range [2^-14, 65504]: drop 13 mantissa bits with RNE.
    // A mantissa carry propagates into the exponent naturally, including
    // 65504+ rounding up to infinity.
    const uint32_t mant = abs & 0x007fffffu;
    uint32_t half = ((exp - 112u) << 10) | (mant >> 13);
    const uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (half & 1u) != 0)) ++half;
    return static_cast<uint16_t>(sign | half);
  }
  if (exp >= 102) {
    // Subnormal half range [2^-25, 2^-14): shift the 24-bit significand
    // (implicit bit restored) into denormal position with RNE. exp == 102
    // covers the values just below 2^-24 that still round up to the
    // smallest half denormal.
    const uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
    const uint32_t shift = 126u - exp;  // in [14, 24]
    uint32_t half = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1u);
    if (rem > halfway || (rem == halfway && (half & 1u) != 0)) ++half;
    return static_cast<uint16_t>(sign | half);
  }
  return sign;  // < 2^-25 (float denormals included) rounds to signed zero
}

/// IEEE binary16 bits -> float. Exact (every half is a float).
inline float HalfToFloat(uint16_t half) {
  const uint32_t sign = (static_cast<uint32_t>(half) & 0x8000u) << 16;
  uint32_t exp = (half >> 10) & 0x1fu;
  uint32_t mant = half & 0x3ffu;
  uint32_t bits = 0;
  if (exp == 31) {
    bits = sign | 0x7f800000u | (mant << 13);  // inf / NaN
  } else if (exp != 0) {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  } else if (mant == 0) {
    bits = sign;  // ±0
  } else {
    // Half subnormal: normalize into a float with implicit leading bit.
    exp = 113;
    while ((mant & 0x400u) == 0) {
      mant <<= 1;
      --exp;
    }
    bits = sign | (exp << 23) | ((mant & 0x3ffu) << 13);
  }
  return std::bit_cast<float>(bits);
}

/// An opened, fully-validated, mmap-backed embedding store. Move-only; the
/// mapping and its budget reservation live until destruction.
class EmbeddingStore {
 public:
  /// Quantizes `embedding` as `kind` and commits it to `path` through the
  /// artifact writer (atomic rename; concurrent readers see old-or-new,
  /// never torn). The transient code buffer (rows*dims*elem bytes) is
  /// reserved against `budget` — kResourceExhausted if it does not fit.
  /// Non-finite input values are kInvalidArgument: a NaN would poison the
  /// per-dimension codebook silently.
  static Status Write(const Matrix& embedding, const std::string& path,
                      QuantKind kind, MemoryBudget* budget = nullptr);

  /// Maps `path`, validating the header and every frame checksum once.
  /// The mapped bytes are reserved against `budget`. Missing file
  /// kNotFound, corruption kDataLoss, wrong artifact schema
  /// kInvalidArgument, budget miss kResourceExhausted.
  static Result<EmbeddingStore> Open(const std::string& path,
                                     MemoryBudget* budget = nullptr);

  /// Open() plus a provenance check: the stored source fingerprint must
  /// equal `expected_fingerprint` (from Fingerprint() on the embedding the
  /// caller believes this store serves). Mismatch — a stale store after
  /// retraining — is kFailedPrecondition, distinct from corruption.
  static Result<EmbeddingStore> OpenValidated(const std::string& path,
                                              uint64_t expected_fingerprint,
                                              MemoryBudget* budget = nullptr);

  /// Content fingerprint of a source embedding (shape + CRC of the float
  /// bytes). Stores of the same matrix share it across QuantKinds.
  static uint64_t Fingerprint(const Matrix& embedding);

  uint64_t rows() const { return rows_; }
  uint64_t dims() const { return dims_; }
  QuantKind kind() const { return kind_; }
  uint64_t source_fingerprint() const { return source_fingerprint_; }
  /// Total on-disk (== mapped) bytes, headers included.
  uint64_t store_bytes() const { return artifact_.file_bytes(); }
  uint64_t elem_bytes() const { return QuantElemBytes(kind_); }

  const std::vector<float>& scales() const { return scales_; }
  const std::vector<float>& offsets() const { return offsets_; }

  /// Raw code bytes of row `i` (rows*dims codes, row-major, zero-copy from
  /// the map). Layout per kind: uint8 / uint16 half bits / float.
  const void* RowData(uint64_t i) const {
    return payload_ + i * dims_ * QuantElemBytes(kind_);
  }

  /// The code at (i, j) as a float — uint8 codes as their integer value,
  /// half codes decoded, fp32 codes as-is. This is the value the query
  /// engine's folded scoring multiplies; its panel decoder must reproduce
  /// it bit for bit, and uses it for the codes off its 32-bit word grid.
  float CodeValue(uint64_t i, uint64_t j) const;

  /// CodeValue for a whole row into `out` (dims floats): the decode the
  /// naive top-k oracle scores through. Pure decode, no arithmetic.
  void CodeRow(uint64_t i, float* out) const;

  /// Dequantized row i into `out` (dims floats): offset_j + scale_j * code,
  /// accumulated in double and rounded once to float.
  void DequantizeRow(uint64_t i, float* out) const;

  /// Full dequantized matrix (rows x dims), parallel over rows.
  Matrix Dequantize() const;

  EmbeddingStore(EmbeddingStore&&) noexcept = default;
  EmbeddingStore& operator=(EmbeddingStore&&) noexcept = default;
  EmbeddingStore(const EmbeddingStore&) = delete;
  EmbeddingStore& operator=(const EmbeddingStore&) = delete;

 private:
  EmbeddingStore() = default;

  MappedArtifact artifact_;
  BudgetReservation reservation_;
  uint64_t rows_ = 0;
  uint64_t dims_ = 0;
  QuantKind kind_ = QuantKind::kFp32;
  uint64_t source_fingerprint_ = 0;
  std::vector<float> scales_;   // per dimension, copied out of the map
  std::vector<float> offsets_;  // per dimension
  const uint8_t* payload_ = nullptr;  // rows*dims codes inside the map
};

}  // namespace lightne

#endif  // LIGHTNE_CORE_EMBEDDING_STORE_H_
