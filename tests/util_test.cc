#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/artifact_io.h"
#include "util/cli.h"
#include "util/fault_injection.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/timer.h"

namespace lightne {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: no such file");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDataLoss); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
  EXPECT_EQ(rng.UniformInt(0), 0u);
  EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(99);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) ++hits[rng.UniformInt(8)];
  for (int b = 0; b < 8; ++b) {
    EXPECT_GT(hits[b], 700) << "bucket " << b;
    EXPECT_LT(hits[b], 1300) << "bucket " << b;
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(5), b(6);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(2024);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(RngTest, ItemRngIsThreadCountIndependent) {
  // Per-item seeding must give identical streams regardless of who draws.
  Rng a = ItemRng(17, 12345);
  Rng b = ItemRng(17, 12345);
  EXPECT_EQ(a.Next(), b.Next());
  Rng c = ItemRng(17, 12346);
  EXPECT_NE(ItemRng(17, 12345).Next(), c.Next());
}

// ------------------------------------------------------------------- CLI --

TEST(CliTest, ParsesAllFlagForms) {
  const char* argv[] = {"prog",      "--alpha=0.5", "--n",  "100",
                        "input.txt", "--verbose",   "--k=3"};
  auto cl = CommandLine::Parse(7, argv);
  ASSERT_TRUE(cl.ok());
  EXPECT_DOUBLE_EQ(cl->GetDouble("alpha", 0), 0.5);
  EXPECT_EQ(cl->GetInt("n", 0), 100);
  EXPECT_TRUE(cl->GetBool("verbose"));
  EXPECT_EQ(cl->GetInt("k", 0), 3);
  ASSERT_EQ(cl->positional().size(), 1u);
  EXPECT_EQ(cl->positional()[0], "input.txt");
  EXPECT_EQ(cl->GetString("missing", "def"), "def");
  EXPECT_FALSE(cl->Has("missing"));
}

TEST(CliTest, TrailingBoolFlag) {
  const char* argv[] = {"prog", "--fast"};
  auto cl = CommandLine::Parse(2, argv);
  ASSERT_TRUE(cl.ok());
  EXPECT_TRUE(cl->GetBool("fast"));
}

// ---------------------------------------------------------------- Memory --

TEST(MemoryTest, RssIsPositive) {
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
}

TEST(MemoryTest, HumanBytesFormats) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KiB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.00 MiB");
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, StageTimerAccumulates) {
  StageTimer st;
  st.Start("a");
  st.Start("b");
  st.Stop();
  ASSERT_EQ(st.stages().size(), 2u);
  EXPECT_EQ(st.stages()[0].first, "a");
  EXPECT_EQ(st.stages()[1].first, "b");
  EXPECT_GE(st.TotalSeconds(), 0.0);
  EXPECT_GE(st.SecondsFor("a"), 0.0);
  EXPECT_EQ(st.SecondsFor("zzz"), 0.0);
}

// ------------------------------------------------------- Fault injection --

class FaultRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_F(FaultRegistryTest, UnarmedPointNeverFiresAndCountsNothing) {
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(LIGHTNE_FAULT_POINT("util_test/unarmed"));
  }
  // The macro short-circuits before the registry when nothing is armed, so
  // unarmed traffic is not even counted.
  EXPECT_EQ(FaultRegistry::Global().HitCount("util_test/unarmed"), 0u);
}

TEST_F(FaultRegistryTest, AlwaysFailFiresEveryHit) {
  FaultRegistry::Global().ArmAlwaysFail("util_test/always");
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(LIGHTNE_FAULT_POINT("util_test/always"));
  }
  EXPECT_EQ(FaultRegistry::Global().HitCount("util_test/always"), 5u);
  EXPECT_EQ(FaultRegistry::Global().FireCount("util_test/always"), 5u);
  // Other points are unaffected while the registry is armed (and never-armed
  // points are not tracked at all).
  EXPECT_FALSE(LIGHTNE_FAULT_POINT("util_test/other"));
  EXPECT_EQ(FaultRegistry::Global().HitCount("util_test/other"), 0u);
}

TEST_F(FaultRegistryTest, NthHitFiresExactlyOnce) {
  FaultRegistry::Global().ArmFailOnNthHit("util_test/nth", 3);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(LIGHTNE_FAULT_POINT("util_test/nth"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(FaultRegistry::Global().HitCount("util_test/nth"), 6u);
  EXPECT_EQ(FaultRegistry::Global().FireCount("util_test/nth"), 1u);
}

TEST_F(FaultRegistryTest, ProbabilityIsSeedDeterministicAndRoughlyCalibrated) {
  FaultRegistry::Global().ArmFailWithProbability("util_test/prob", 0.25, 42);
  std::vector<bool> first;
  for (int i = 0; i < 400; ++i) first.push_back(LIGHTNE_FAULT_POINT("util_test/prob"));
  const auto fires = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 50);   // ~100 expected
  EXPECT_LT(fires, 160);
  // A fresh registry armed with the same seed replays the identical fire
  // sequence: the decision depends only on (seed, hit index), not thread
  // interleaving or wall-clock state.
  FaultRegistry::Global().Reset();
  FaultRegistry::Global().ArmFailWithProbability("util_test/prob", 0.25, 42);
  std::vector<bool> second;
  for (int i = 0; i < 400; ++i) second.push_back(LIGHTNE_FAULT_POINT("util_test/prob"));
  EXPECT_EQ(first, second);
}

TEST_F(FaultRegistryTest, DisarmStopsFiringButKeepsCounting) {
  FaultRegistry::Global().ArmAlwaysFail("util_test/disarm");
  EXPECT_TRUE(LIGHTNE_FAULT_POINT("util_test/disarm"));
  FaultRegistry::Global().Disarm("util_test/disarm");
  EXPECT_FALSE(FaultRegistry::Global().ShouldFail("util_test/disarm"));
  EXPECT_EQ(FaultRegistry::Global().HitCount("util_test/disarm"), 2u);
  EXPECT_EQ(FaultRegistry::Global().FireCount("util_test/disarm"), 1u);
}

// ----------------------------------------------------------- MemoryBudget --

TEST(MemoryBudgetTest, UnlimitedBudgetAcceptsEverythingAndTracksPeak) {
  MemoryBudget b;
  EXPECT_FALSE(b.limited());
  EXPECT_TRUE(b.TryReserve(1ull << 40));
  EXPECT_EQ(b.reserved_bytes(), 1ull << 40);
  EXPECT_EQ(b.peak_reserved_bytes(), 1ull << 40);
  b.Release(1ull << 40);
  EXPECT_EQ(b.reserved_bytes(), 0u);
  EXPECT_EQ(b.peak_reserved_bytes(), 1ull << 40);
}

TEST(MemoryBudgetTest, LimitedBudgetRefusesOverCommit) {
  MemoryBudget b(1000);
  EXPECT_TRUE(b.limited());
  EXPECT_EQ(b.available_bytes(), 1000u);
  EXPECT_TRUE(b.TryReserve(600));
  EXPECT_FALSE(b.TryReserve(500));  // 600 + 500 > 1000
  EXPECT_TRUE(b.TryReserve(400));
  EXPECT_EQ(b.available_bytes(), 0u);
  b.Release(600);
  EXPECT_EQ(b.available_bytes(), 600u);
  EXPECT_EQ(b.peak_reserved_bytes(), 1000u);
}

TEST(MemoryBudgetTest, ReservationRaiiReleasesOnScopeExit) {
  MemoryBudget b(100);
  {
    BudgetReservation r(&b, 80);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(b.reserved_bytes(), 80u);
    BudgetReservation refused(&b, 30);
    EXPECT_FALSE(refused.ok());
  }
  EXPECT_EQ(b.reserved_bytes(), 0u);
  // Null budget: reservation trivially succeeds and releases nothing.
  BudgetReservation null_budget(nullptr, 1ull << 50);
  EXPECT_TRUE(null_budget.ok());
  // Early release makes room immediately.
  BudgetReservation r(&b, 100);
  ASSERT_TRUE(r.ok());
  r.ReleaseEarly();
  EXPECT_TRUE(b.TryReserve(100));
  b.Release(100);
}

// ------------------------------------------------------------------ Retry --

TEST(RetryTest, SucceedsFirstTryWithoutSleeping) {
  std::vector<uint64_t> schedule;
  RetryOptions opt;
  opt.sleep = [&](uint64_t ms) { schedule.push_back(ms); };
  int calls = 0;
  Status s = RetryWithBackoff(
      [&] {
        ++calls;
        return Status::Ok();
      },
      opt);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(schedule.empty());
}

TEST(RetryTest, TransientFailureRetriedWithExponentialSchedule) {
  std::vector<uint64_t> schedule;
  RetryOptions opt;
  opt.max_attempts = 4;
  opt.initial_backoff_ms = 3;
  opt.backoff_multiplier = 2.0;
  opt.sleep = [&](uint64_t ms) { schedule.push_back(ms); };
  int calls = 0;
  Status s = RetryWithBackoff(
      [&] {
        ++calls;
        return calls < 3 ? Status::IOError("flaky") : Status::Ok();
      },
      opt);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(schedule, (std::vector<uint64_t>{3, 6}));
}

TEST(RetryTest, ExhaustionReturnsLastErrorAfterFullSchedule) {
  std::vector<uint64_t> schedule;
  RetryOptions opt;
  opt.max_attempts = 3;
  opt.initial_backoff_ms = 2;
  opt.sleep = [&](uint64_t ms) { schedule.push_back(ms); };
  Status s = RetryWithBackoff([&] { return Status::IOError("down"); }, opt);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(schedule, (std::vector<uint64_t>{2, 4}));
}

TEST(RetryTest, NonTransientErrorsAreNotRetried) {
  int calls = 0;
  RetryOptions opt;
  opt.sleep = [](uint64_t) { FAIL() << "should not sleep"; };
  Status s = RetryWithBackoff(
      [&] {
        ++calls;
        return Status::InvalidArgument("bad input");
      },
      opt);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(IsRetryableStatus(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::ResourceExhausted("x")));
  EXPECT_TRUE(IsRetryableStatus(Status::IOError("x")));
}

TEST(RetryTest, ResultFlavorRetriesAndReturnsValue) {
  std::vector<uint64_t> schedule;
  RetryOptions opt;
  opt.sleep = [&](uint64_t ms) { schedule.push_back(ms); };
  int calls = 0;
  Result<int> r = RetryResultWithBackoff<int>(
      [&]() -> Result<int> {
        ++calls;
        if (calls < 2) return Status::IOError("flaky");
        return 17;
      },
      opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 17);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(schedule.size(), 1u);
}

// ----------------------------------------------------------- artifact IO --

TEST(Crc32cTest, MatchesKnownVector) {
  // The RFC 3720 check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, SeedChainsIncrementalComputation) {
  const char data[] = "incremental checksum";
  const uint32_t whole = Crc32c(data, sizeof(data));
  const uint32_t part = Crc32c(data, 7);
  EXPECT_EQ(Crc32c(data + 7, sizeof(data) - 7, part), whole);
}

TEST(Crc32cTest, HardwareAndTableArmsAgree) {
  // Every length 0-300 at every start offset 0-7 (the hardware arm's 8-byte
  // loop, its byte tail and unaligned starts), whole and seed-chained.
  const crc32c_internal::Fn hardware = crc32c_internal::Hardware();
  EXPECT_EQ(crc32c_internal::Software("123456789", 9, 0), 0xe3069283u);
  if (hardware == nullptr) GTEST_SKIP() << "CPU has no SSE4.2";
  EXPECT_EQ(hardware("123456789", 9, 0), 0xe3069283u);
  Rng rng(2024);
  std::vector<uint8_t> buffer(8 + 300);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.UniformInt(256));
  for (uint64_t offset = 0; offset < 8; ++offset) {
    const uint8_t* data = buffer.data() + offset;
    for (uint64_t len = 0; len <= 300; ++len) {
      const uint32_t want = crc32c_internal::Software(data, len, 0);
      ASSERT_EQ(hardware(data, len, 0), want) << offset << "+" << len;
      ASSERT_EQ(Crc32c(data, len), want) << offset << "+" << len;
      const uint64_t cut = len / 3;
      ASSERT_EQ(hardware(data + cut, len - cut, hardware(data, cut, 0)), want)
          << offset << "+" << len;
      ASSERT_EQ(crc32c_internal::Software(
                    data + cut, len - cut,
                    crc32c_internal::Software(data, cut, 0)),
                want)
          << offset << "+" << len;
    }
  }
}

TEST(AtomicFileWriterTest, AbortLeavesNoFileAndPreservesPrevious) {
  const std::string path = ::testing::TempDir() + "/atomic_abort.txt";
  {
    AtomicFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    std::fprintf(w.stream(), "first\n");
    ASSERT_TRUE(w.Commit().ok());
  }
  {
    // Destruction without Commit: the tmp file vanishes and the previous
    // contents survive untouched.
    AtomicFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    std::fprintf(w.stream(), "half-written garbage");
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  std::fclose(f);
  EXPECT_STREQ(buf, "first\n");
  std::remove(path.c_str());
}

TEST(ArtifactIoTest, FramesRoundTrip) {
  const std::string path = ::testing::TempDir() + "/roundtrip.art";
  const std::vector<uint8_t> a = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> b(1000, 0xab);
  ArtifactWriter w;
  ASSERT_TRUE(w.Open(path, /*schema_id=*/7, /*schema_version=*/2).ok());
  ASSERT_TRUE(w.AppendFrame(a.data(), a.size()).ok());
  ASSERT_TRUE(w.AppendFrame(b.data(), b.size()).ok());
  ASSERT_TRUE(w.AppendFrame(nullptr, 0).ok());  // empty frame is legal
  ASSERT_TRUE(w.Commit().ok());
  EXPECT_GT(w.bytes_written(), a.size() + b.size());

  auto r = MappedArtifact::Open(path, 7);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->schema_version(), 2u);
  EXPECT_EQ(r->file_bytes(), w.bytes_written());
  ASSERT_EQ(r->num_frames(), 3u);
  const auto frame_bytes = [&](size_t i) {
    const auto* p = static_cast<const uint8_t*>(r->frame(i).data);
    return std::vector<uint8_t>(p, p + r->frame(i).bytes);
  };
  EXPECT_EQ(frame_bytes(0), a);
  EXPECT_EQ(frame_bytes(1), b);
  EXPECT_EQ(r->frame(2).bytes, 0u);
  std::remove(path.c_str());
}

TEST(ArtifactIoTest, MissingFileIsNotFoundWrongSchemaIsInvalidArgument) {
  EXPECT_EQ(MappedArtifact::Open(::testing::TempDir() + "/no_such.art", 1)
                .status()
                .code(),
            StatusCode::kNotFound);

  const std::string path = ::testing::TempDir() + "/schema.art";
  ArtifactWriter w;
  ASSERT_TRUE(w.Open(path, 3, 1).ok());
  ASSERT_TRUE(w.Commit().ok());
  EXPECT_EQ(MappedArtifact::Open(path, 4).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

class ArtifactCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/corrupt.art";
    const std::vector<uint8_t> payload(256, 0x5c);
    ArtifactWriter w;
    ASSERT_TRUE(w.Open(path_, 1, 1).ok());
    ASSERT_TRUE(w.AppendFrame(payload.data(), payload.size()).ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void Truncate(uint64_t keep_bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> bytes(keep_bytes);
    ASSERT_EQ(std::fread(bytes.data(), 1, keep_bytes, f), keep_bytes);
    std::fclose(f);
    f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, keep_bytes, f), keep_bytes);
    std::fclose(f);
  }

  void FlipByte(uint64_t offset) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }

  StatusCode ReadBackCode() {
    return MappedArtifact::Open(path_, 1).status().code();
  }

  std::string path_;
};

TEST_F(ArtifactCorruptionTest, TruncatedHeaderIsDataLoss) {
  Truncate(6);  // mid file-header
  EXPECT_EQ(ReadBackCode(), StatusCode::kDataLoss);
}

TEST_F(ArtifactCorruptionTest, TruncatedPayloadIsDataLoss) {
  auto size = FileSizeBytes(path_);
  ASSERT_TRUE(size.ok());
  Truncate(*size - 10);  // torn write: frame header intact, payload short
  EXPECT_EQ(ReadBackCode(), StatusCode::kDataLoss);
}

TEST_F(ArtifactCorruptionTest, BitFlipInPayloadIsDataLoss) {
  FlipByte(16 + 16 + 100);  // file header + frame header + 100 into payload
  EXPECT_EQ(ReadBackCode(), StatusCode::kDataLoss);
}

TEST_F(ArtifactCorruptionTest, BitFlipInMagicIsDataLoss) {
  FlipByte(2);
  EXPECT_EQ(ReadBackCode(), StatusCode::kDataLoss);
}

TEST_F(ArtifactCorruptionTest, NonzeroFrameReservedWordIsDataLoss) {
  ASSERT_EQ(ReadBackCode(), StatusCode::kOk);
  // The reserved word is the frame header's last 4 bytes: a flip there
  // leaves the length and checksum intact, so only its own check sees it.
  FlipByte(16 + 12);
  EXPECT_EQ(ReadBackCode(), StatusCode::kDataLoss);
}

TEST_F(ArtifactCorruptionTest, GiantDeclaredFrameLengthIsDataLossNotAlloc) {
  // Overwrite the frame's payload-length field with ~2^56: the reader must
  // reject the declared size against the actual file size instead of
  // attempting the allocation.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 16, SEEK_SET), 0);
  const uint64_t absurd = 1ull << 56;
  ASSERT_EQ(std::fwrite(&absurd, sizeof(absurd), 1, f), 1u);
  std::fclose(f);
  EXPECT_EQ(ReadBackCode(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace lightne
