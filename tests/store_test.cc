// EmbeddingStore contract tests (DESIGN.md §14, "Serving contract"):
//
//  - the half-float codec is exactly IEEE binary16 with round-to-nearest-
//    even (exhaustive round-trip over all 65536 half patterns + boundary
//    cases);
//  - quantize -> dequantize round-trip error is bounded by the committed
//    per-dimension bound (scale/2 for int8, scale * 2^-10 for fp16, exact
//    for fp32, plus one float rounding of the result) on adversarial
//    inputs: denormal columns, ±0, constant columns, huge-offset/tiny-
//    spread columns, single-row matrices;
//  - the committed file bytes are identical at any worker count (the _mt4
//    ctest variant reruns this whole suite on a 4-worker pool);
//  - every corruption mode surfaces the right StatusCode and never a
//    silently wrong answer: missing kNotFound, truncation/bit-flips/
//    trailing bytes kDataLoss, wrong artifact schema kInvalidArgument,
//    stale source fingerprint kFailedPrecondition, budget miss
//    kResourceExhausted.
#include "core/embedding_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "parallel/parallel_for.h"
#include "util/artifact_io.h"
#include "util/memory.h"
#include "util/random.h"

namespace lightne {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/store_" + name + "_" +
         std::to_string(::getpid()) + ".est";
}

void TruncateFile(const std::string& path, uint64_t remove_bytes) {
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  ASSERT_GT(*size, remove_bytes);
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(*size - remove_bytes)),
            0);
}

void FlipByteAt(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

/// The adversarial fixture: every column is a quantizer edge case.
Matrix AdversarialMatrix(uint64_t rows) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  Matrix m(rows, 10);
  uint64_t state = 0x5eedf00d;
  for (uint64_t i = 0; i < rows; ++i) {
    const auto x = static_cast<float>(i);
    m.At(i, 0) = 0.0f;                          // all +0
    m.At(i, 1) = (i % 2 == 0) ? 0.0f : -0.0f;   // mixed ±0
    m.At(i, 2) = 42.5f;                         // non-zero constant
    m.At(i, 3) = static_cast<float>(i % 7) * denorm;     // denormal span
    m.At(i, 4) = 1.0e8f + x;                    // huge offset, tiny spread
    m.At(i, 5) = (i % 2 == 0 ? 1.0f : -1.0f) * 1.0e30f;  // huge range
    m.At(i, 6) = denorm * (i % 2 == 0 ? 1.0f : -1.0f);   // ±denorm_min
    m.At(i, 7) = -3.75f + 0.125f * static_cast<float>(i % 64);
    const uint64_t r = SplitMix64(state);
    m.At(i, 8) = static_cast<float>(static_cast<double>(r >> 11) * 0x1p-52) -
                 0.5f;                          // uniform [-0.5, 0.5)
    m.At(i, 9) = std::ldexp(1.0f, static_cast<int>(i % 40) - 20);  // dyadic
  }
  return m;
}

/// Per-column round-trip bound from the committed contract: the exact-
/// arithmetic quantization error bound plus one float rounding of a value
/// of the column's magnitude (and one denormal quantum of slack for the
/// degenerate-scale paths).
double RoundTripBound(QuantKind kind, float scale, float offset) {
  const double s = scale;
  double maxmag = 0.0;
  double quant_err = 0.0;
  switch (kind) {
    case QuantKind::kInt8:
      maxmag = std::max(std::fabs(static_cast<double>(offset)),
                        std::fabs(offset + 255.0 * s));
      quant_err = 0.5 * s;
      break;
    case QuantKind::kFp16:
      maxmag = std::fabs(static_cast<double>(offset)) + s;
      quant_err = s * 0x1p-10;
      break;
    case QuantKind::kFp32:
      return 0.0;
  }
  return quant_err + std::ldexp(maxmag, -24) +
         std::numeric_limits<float>::denorm_min();
}

void ExpectRoundTripBounded(const Matrix& m, QuantKind kind,
                            const std::string& tag) {
  const std::string path = TestPath(tag);
  ASSERT_TRUE(EmbeddingStore::Write(m, path, kind).ok());
  auto store = EmbeddingStore::Open(path);
  ASSERT_TRUE(store.status().ok()) << store.status().ToString();
  ASSERT_EQ(store->rows(), m.rows());
  ASSERT_EQ(store->dims(), m.cols());
  ASSERT_EQ(store->kind(), kind);
  const Matrix decoded = store->Dequantize();
  for (uint64_t j = 0; j < m.cols(); ++j) {
    const double bound =
        RoundTripBound(kind, store->scales()[j], store->offsets()[j]);
    for (uint64_t i = 0; i < m.rows(); ++i) {
      const double err = std::fabs(static_cast<double>(m.At(i, j)) -
                                   decoded.At(i, j));
      ASSERT_LE(err, bound)
          << QuantKindName(kind) << " column " << j << " row " << i
          << ": value " << m.At(i, j) << " decoded " << decoded.At(i, j)
          << " scale " << store->scales()[j] << " offset "
          << store->offsets()[j];
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------ half codec --

TEST(HalfCodec, RoundTripsEveryHalfPattern) {
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto half = static_cast<uint16_t>(bits);
    const float value = HalfToFloat(half);
    if (std::isnan(value)) {
      EXPECT_TRUE(std::isnan(HalfToFloat(FloatToHalf(value))));
      continue;
    }
    // Every non-NaN half is exactly representable as float, so the
    // conversion pair must be the identity on bit patterns.
    EXPECT_EQ(FloatToHalf(value), half) << "half bits 0x" << std::hex << bits;
  }
}

TEST(HalfCodec, RoundsToNearestEven) {
  // 65519.999… rounds down to the largest finite half, 65520 ties to even
  // upward into infinity.
  EXPECT_EQ(FloatToHalf(65519.996f), 0x7bff);
  EXPECT_EQ(FloatToHalf(65520.0f), 0x7c00);
  EXPECT_EQ(FloatToHalf(70000.0f), 0x7c00);
  EXPECT_EQ(FloatToHalf(-70000.0f), 0xfc00);
  // 2^-25 ties to even downward to zero; anything above it rounds to the
  // smallest subnormal half.
  EXPECT_EQ(FloatToHalf(0x1p-25f), 0x0000);
  EXPECT_EQ(FloatToHalf(std::nextafterf(0x1p-25f, 1.0f)), 0x0001);
  EXPECT_EQ(FloatToHalf(0x1p-24f), 0x0001);
  // Signed zero survives.
  EXPECT_EQ(FloatToHalf(0.0f), 0x0000);
  EXPECT_EQ(FloatToHalf(-0.0f), 0x8000);
  // Float denormals are far below half resolution.
  EXPECT_EQ(FloatToHalf(std::numeric_limits<float>::denorm_min()), 0x0000);
  // Infinities and NaN map to their half counterparts.
  EXPECT_EQ(FloatToHalf(std::numeric_limits<float>::infinity()), 0x7c00);
  EXPECT_NE(FloatToHalf(std::nanf("")) & 0x03ffu, 0u);
  // Exact values stay exact: 1.0, -2.5, 2^-14 (smallest normal half).
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f)), 1.0f);
  EXPECT_EQ(HalfToFloat(FloatToHalf(-2.5f)), -2.5f);
  EXPECT_EQ(HalfToFloat(FloatToHalf(0x1p-14f)), 0x1p-14f);
}

// ------------------------------------------------------- round-trip bound --

TEST(StoreRoundTrip, AdversarialInt8) {
  ExpectRoundTripBounded(AdversarialMatrix(193), QuantKind::kInt8,
                         "adv_int8");
}

TEST(StoreRoundTrip, AdversarialFp16) {
  ExpectRoundTripBounded(AdversarialMatrix(193), QuantKind::kFp16,
                         "adv_fp16");
}

TEST(StoreRoundTrip, SingleRowIsExactUpToFloatRounding) {
  Matrix m(1, 5);
  m.At(0, 0) = 3.25f;
  m.At(0, 1) = -0.0f;
  m.At(0, 2) = std::numeric_limits<float>::denorm_min();
  m.At(0, 3) = -1.0e30f;
  m.At(0, 4) = 1.0e-30f;
  for (const QuantKind kind :
       {QuantKind::kInt8, QuantKind::kFp16, QuantKind::kFp32}) {
    const std::string path = TestPath("single_row");
    ASSERT_TRUE(EmbeddingStore::Write(m, path, kind).ok());
    auto store = EmbeddingStore::Open(path);
    ASSERT_TRUE(store.status().ok());
    // Every column of a single-row matrix is constant, so scale is 0 and
    // decode returns the offset — the value itself, exactly.
    const Matrix decoded = store->Dequantize();
    for (uint64_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(decoded.At(0, j), m.At(0, j))
          << QuantKindName(kind) << " column " << j;
    }
    std::remove(path.c_str());
  }
}

TEST(StoreRoundTrip, GaussianInt8AndFp16) {
  const Matrix m = Matrix::Gaussian(401, 17, 77);
  ExpectRoundTripBounded(m, QuantKind::kInt8, "gauss_int8");
  ExpectRoundTripBounded(m, QuantKind::kFp16, "gauss_fp16");
}

TEST(StoreRoundTrip, Fp32IsBitExact) {
  const Matrix m = Matrix::Gaussian(64, 9, 5);
  const std::string path = TestPath("fp32_exact");
  ASSERT_TRUE(EmbeddingStore::Write(m, path, QuantKind::kFp32).ok());
  auto store = EmbeddingStore::Open(path);
  ASSERT_TRUE(store.status().ok());
  const Matrix decoded = store->Dequantize();
  EXPECT_EQ(std::memcmp(m.data(), decoded.data(), m.SizeBytes()), 0);
  std::remove(path.c_str());
}

// ------------------------------------------------- deterministic bytes --

TEST(StoreDeterminism, FileBytesIdenticalAcrossWorkerCounts) {
  // The suite runs on the default pool and again (via the _mt4 ctest
  // variant) on a 4-worker pool. A forced 1-worker write inside this
  // process must match the pool's write byte for byte.
  const Matrix m = AdversarialMatrix(257);
  for (const QuantKind kind :
       {QuantKind::kInt8, QuantKind::kFp16, QuantKind::kFp32}) {
    const std::string pool_path = TestPath("det_pool");
    const std::string seq_path = TestPath("det_seq");
    ASSERT_TRUE(EmbeddingStore::Write(m, pool_path, kind).ok());
    {
      SequentialRegion seq;
      ASSERT_TRUE(EmbeddingStore::Write(m, seq_path, kind).ok());
    }
    const std::vector<uint8_t> pool_bytes = ReadFileBytes(pool_path);
    ASSERT_FALSE(pool_bytes.empty());
    EXPECT_EQ(pool_bytes, ReadFileBytes(seq_path)) << QuantKindName(kind);
    std::remove(pool_path.c_str());
    std::remove(seq_path.c_str());
  }
}

// ------------------------------------------------------------- open path --

TEST(StoreOpen, ExposesShapeCodebookAndPayload) {
  const Matrix m = Matrix::Gaussian(33, 6, 21);
  const std::string path = TestPath("open_basics");
  ASSERT_TRUE(EmbeddingStore::Write(m, path, QuantKind::kInt8).ok());
  auto store = EmbeddingStore::Open(path);
  ASSERT_TRUE(store.status().ok());
  EXPECT_EQ(store->rows(), 33u);
  EXPECT_EQ(store->dims(), 6u);
  EXPECT_EQ(store->kind(), QuantKind::kInt8);
  EXPECT_EQ(store->elem_bytes(), 1u);
  EXPECT_EQ(store->source_fingerprint(), EmbeddingStore::Fingerprint(m));
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(store->store_bytes(), *size);
  // A store is strictly smaller than the float matrix it codes (header +
  // codebook amortize away even at this toy size).
  EXPECT_LT(store->store_bytes(), m.SizeBytes());
  ASSERT_EQ(store->scales().size(), 6u);
  ASSERT_EQ(store->offsets().size(), 6u);
  // CodeValue / CodeRow / DequantizeRow agree with each other.
  std::vector<float> code_row(store->dims());
  std::vector<float> deq_row(store->dims());
  for (uint64_t i = 0; i < store->rows(); ++i) {
    store->CodeRow(i, code_row.data());
    store->DequantizeRow(i, deq_row.data());
    for (uint64_t j = 0; j < store->dims(); ++j) {
      EXPECT_EQ(code_row[j], store->CodeValue(i, j));
      const float expect = static_cast<float>(
          static_cast<double>(store->offsets()[j]) +
          static_cast<double>(store->scales()[j]) * code_row[j]);
      EXPECT_EQ(deq_row[j], expect);
    }
  }
  std::remove(path.c_str());
}

TEST(StoreOpen, WriteRejectsEmptyAndNonFinite) {
  const std::string path = TestPath("rejects");
  EXPECT_EQ(EmbeddingStore::Write(Matrix(), path, QuantKind::kInt8).code(),
            StatusCode::kInvalidArgument);
  Matrix bad(4, 4);
  bad.At(2, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(EmbeddingStore::Write(bad, path, QuantKind::kInt8).code(),
            StatusCode::kInvalidArgument);
  Matrix inf(4, 4);
  inf.At(0, 3) = std::numeric_limits<float>::infinity();
  EXPECT_EQ(EmbeddingStore::Write(inf, path, QuantKind::kFp32).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(FileExists(path));
}

TEST(StoreOpen, ParseQuantKindNames) {
  EXPECT_EQ(ParseQuantKind("int8").value(), QuantKind::kInt8);
  EXPECT_EQ(ParseQuantKind("fp16").value(), QuantKind::kFp16);
  EXPECT_EQ(ParseQuantKind("fp32").value(), QuantKind::kFp32);
  EXPECT_EQ(ParseQuantKind("int4").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_STREQ(QuantKindName(QuantKind::kFp16), "fp16");
}

// -------------------------------------------------------- memory budget --

TEST(StoreBudget, WriteAndOpenRespectTheGovernor) {
  const Matrix m = Matrix::Gaussian(128, 16, 3);
  const std::string path = TestPath("budget");

  MemoryBudget tiny(64);  // fits neither the code buffer nor the map
  EXPECT_EQ(EmbeddingStore::Write(m, path, QuantKind::kInt8, &tiny).code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(FileExists(path));

  MemoryBudget roomy(1ull << 20);
  ASSERT_TRUE(EmbeddingStore::Write(m, path, QuantKind::kInt8, &roomy).ok());
  EXPECT_EQ(roomy.reserved_bytes(), 0u)
      << "write must release its transient reservation";

  EXPECT_EQ(EmbeddingStore::Open(path, &tiny).status().code(),
            StatusCode::kResourceExhausted);
  {
    auto store = EmbeddingStore::Open(path, &roomy);
    ASSERT_TRUE(store.status().ok());
    EXPECT_EQ(roomy.reserved_bytes(), store->store_bytes())
        << "an open store holds its mapped bytes against the budget";
  }
  EXPECT_EQ(roomy.reserved_bytes(), 0u)
      << "closing the store must return the reservation";
  std::remove(path.c_str());
}

// --------------------------------------------------- corruption ladder --

class StoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    matrix_ = Matrix::Gaussian(57, 8, 11);
    path_ = TestPath(std::string("corrupt_") +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
    ASSERT_TRUE(EmbeddingStore::Write(matrix_, path_, QuantKind::kInt8).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  StatusCode OpenCode() {
    return EmbeddingStore::Open(path_).status().code();
  }

  Matrix matrix_;
  std::string path_;
};

TEST_F(StoreCorruptionTest, IntactFileOpens) {
  EXPECT_EQ(OpenCode(), StatusCode::kOk);
}

TEST_F(StoreCorruptionTest, MissingFileIsNotFound) {
  std::remove(path_.c_str());
  EXPECT_EQ(OpenCode(), StatusCode::kNotFound);
}

TEST_F(StoreCorruptionTest, TruncatedHeaderIsDataLoss) {
  auto size = FileSizeBytes(path_);
  ASSERT_TRUE(size.ok());
  TruncateFile(path_, *size - 8);  // 8 bytes left: not even a file header
  EXPECT_EQ(OpenCode(), StatusCode::kDataLoss);
}

TEST_F(StoreCorruptionTest, TruncatedPayloadIsDataLoss) {
  TruncateFile(path_, 3);
  EXPECT_EQ(OpenCode(), StatusCode::kDataLoss);
}

TEST_F(StoreCorruptionTest, BitFlippedMagicIsDataLoss) {
  FlipByteAt(path_, 0);
  EXPECT_EQ(OpenCode(), StatusCode::kDataLoss);
}

TEST_F(StoreCorruptionTest, BitFlippedHeaderFrameIsDataLoss) {
  FlipByteAt(path_, 40);  // inside frame 0's payload (the store header)
  EXPECT_EQ(OpenCode(), StatusCode::kDataLoss);
}

TEST_F(StoreCorruptionTest, BitFlippedCodePayloadIsDataLoss) {
  auto size = FileSizeBytes(path_);
  ASSERT_TRUE(size.ok());
  FlipByteAt(path_, *size - 5);  // inside the code payload frame
  EXPECT_EQ(OpenCode(), StatusCode::kDataLoss);
}

TEST_F(StoreCorruptionTest, TrailingGarbageIsDataLoss) {
  // Deliberately corrupting a committed file under test (tests are outside
  // the atomicio writer rule's scope).
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc(0x5a, f);
  std::fputc(0xa5, f);
  std::fclose(f);
  EXPECT_EQ(OpenCode(), StatusCode::kDataLoss);
}

TEST_F(StoreCorruptionTest, WrongArtifactSchemaIsInvalidArgument) {
  // Overwrite with a valid artifact of a different schema (a checkpoint-
  // style id): structurally sound, semantically not an embedding store.
  ArtifactWriter writer;
  ASSERT_TRUE(writer.Open(path_, /*schema_id=*/1, /*schema_version=*/1).ok());
  const uint64_t payload = 0xdeadbeef;
  ASSERT_TRUE(writer.AppendFrame(&payload, sizeof(payload)).ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(OpenCode(), StatusCode::kInvalidArgument);
}

TEST_F(StoreCorruptionTest, StaleFingerprintIsFailedPrecondition) {
  const uint64_t good = EmbeddingStore::Fingerprint(matrix_);
  EXPECT_TRUE(EmbeddingStore::OpenValidated(path_, good).status().ok());
  // "The embedding was retrained but the store was not rebuilt": validate
  // against a different matrix's fingerprint.
  const Matrix other = Matrix::Gaussian(57, 8, 12);
  const uint64_t stale = EmbeddingStore::Fingerprint(other);
  ASSERT_NE(good, stale);
  EXPECT_EQ(EmbeddingStore::OpenValidated(path_, stale).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(StoreCorruptionTest, CorruptionNeverReturnsWrongBytes) {
  // Sweep a byte flip across the whole file: every offset must either still
  // open (impossible for CRC-covered bytes, possible for none here) or fail
  // typed — never open and serve different codes.
  auto reference = EmbeddingStore::Open(path_);
  ASSERT_TRUE(reference.status().ok());
  const Matrix expect = reference->Dequantize();
  auto size = FileSizeBytes(path_);
  ASSERT_TRUE(size.ok());
  for (uint64_t offset = 0; offset < *size; offset += 7) {
    FlipByteAt(path_, offset);
    auto store = EmbeddingStore::Open(path_);
    if (store.status().ok()) {
      const Matrix decoded = store->Dequantize();
      EXPECT_EQ(std::memcmp(expect.data(), decoded.data(), expect.SizeBytes()),
                0)
          << "flip at offset " << offset << " opened with different bytes";
    } else {
      const StatusCode code = store.status().code();
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << "flip at offset " << offset << " surfaced "
          << store.status().ToString();
    }
    FlipByteAt(path_, offset);  // restore
  }
}

}  // namespace
}  // namespace lightne
