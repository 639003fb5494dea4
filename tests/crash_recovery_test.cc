// Crash/recovery harness for the checkpoint subsystem (DESIGN.md §12).
//
// The centerpiece re-executes this binary as a pipeline child
// (CrashChildMode.RunPipeline below) with a kCrash policy armed at a
// registered fault point, so the process hard-dies (_exit(137), no
// destructors — the moral equivalent of SIGKILL) mid-pipeline. A second
// child then resumes in a fresh process and must produce an embedding
// bit-identical to the uninterrupted reference — the determinism contract
// makes resume correctness exactly checkable.
//
// The in-process suites cover the rest of the recovery ladder: torn/
// bit-flipped/truncated artifacts and artifacts written for another run
// degrade to recomputation (counted, never a hard failure), a sweep corrupts
// every header byte, every payload frame and every frame boundary of each
// artifact kind, and the kCrash fault mode itself is self-tested (arming
// across fork, exact-Nth-hit firing, exit code, zero-cost disarmed path).
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/lightne.h"
#include "data/generators.h"
#include "graph/csr.h"
#include "la/embedding_io.h"
#include "util/artifact_io.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace lightne {
namespace {

CsrGraph TestGraph() {
  return CsrGraph::FromEdges(GenerateErdosRenyi(300, 2500, 3));
}

LightNeOptions TestOptions(const std::string& checkpoint_dir, bool resume) {
  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 3;
  opt.num_samples = 20000;
  opt.seed = 5;
  opt.checkpoint_dir = checkpoint_dir;
  opt.resume = resume;
  return opt;
}

/// The uninterrupted run's embedding, computed once without checkpointing.
const Matrix& ReferenceEmbedding() {
  static const Matrix* ref = [] {
    auto r = RunLightNe(TestGraph(), TestOptions("", false));
    LIGHTNE_CHECK_MSG(r.ok(), "reference pipeline failed");
    return new Matrix(std::move(r->embedding));
  }();
  return *ref;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.SizeBytes()) == 0;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Checkpoint directories hold a closed set of files; remove them plus any
/// .tmp the crash left behind, then the directory itself.
void CleanCheckpointDir(const std::string& dir) {
  for (const char* f :
       {"sparsifier.art", "rsvd.art", "final.art", "final.emb", "stats.txt"}) {
    std::remove((dir + "/" + f).c_str());
    std::remove((dir + "/" + f + ".tmp").c_str());
  }
  ::rmdir(dir.c_str());
}

void TruncateFile(const std::string& path, uint64_t remove_bytes) {
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  ASSERT_GT(*size, remove_bytes);
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(*size - remove_bytes)),
            0);
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

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!b.empty()) {
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
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

// ------------------------------------------------------------ child mode --

/// The pipeline child the harness re-executes. Skipped in a normal test run;
/// when LIGHTNE_CRASH_CHILD_DIR is set it runs the checkpointed pipeline —
/// optionally with a crash armed at LIGHTNE_CRASH_POINT hit
/// LIGHTNE_CRASH_HIT — and writes final.emb + stats.txt for the parent.
TEST(CrashChildMode, RunPipeline) {
  const char* dir = std::getenv("LIGHTNE_CRASH_CHILD_DIR");
  if (dir == nullptr) GTEST_SKIP() << "harness child entry point";
  const char* point = std::getenv("LIGHTNE_CRASH_POINT");
  const char* hit = std::getenv("LIGHTNE_CRASH_HIT");
  if (point != nullptr && hit != nullptr) {
    FaultRegistry::Global().ArmCrashOnNthHit(
        point, std::strtoull(hit, nullptr, 10));
  }
  const CsrGraph g = TestGraph();
  auto r = RunLightNe(g, TestOptions(dir, /*resume=*/true));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(
      SaveEmbeddingBinary(r->embedding, std::string(dir) + "/final.emb").ok());
  AtomicFileWriter stats;
  ASSERT_TRUE(stats.Open(std::string(dir) + "/stats.txt").ok());
  std::fprintf(stats.stream(), "stages_skipped %llu\n",
               static_cast<unsigned long long>(r->resume_stages_skipped));
  ASSERT_TRUE(stats.Commit().ok());
}

std::string SelfExePath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  LIGHTNE_CHECK_MSG(n > 0, "cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

/// Runs the pipeline child. Returns its exit code, or -signal if killed.
int RunChild(const std::string& dir, const char* crash_point,
             uint64_t crash_hit) {
  std::string cmd = "LIGHTNE_CRASH_CHILD_DIR='" + dir + "' ";
  if (crash_point != nullptr) {
    cmd += "LIGHTNE_CRASH_POINT='" + std::string(crash_point) +
           "' LIGHTNE_CRASH_HIT=" + std::to_string(crash_hit) + " ";
  }
  cmd += "'" + SelfExePath() +
         "' --gtest_filter=CrashChildMode.RunPipeline >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -WTERMSIG(rc);
}

uint64_t ReadStagesSkipped(const std::string& dir) {
  std::FILE* f = std::fopen((dir + "/stats.txt").c_str(), "r");
  if (f == nullptr) return UINT64_MAX;
  unsigned long long v = UINT64_MAX;
  const int got = std::fscanf(f, "stages_skipped %llu", &v);
  std::fclose(f);
  return got == 1 ? v : UINT64_MAX;
}

// -------------------------------------------------------- kill-at-point --

struct KillPoint {
  const char* point;
  uint64_t hit;
  // Stages the resumed run must at least skip (0 when the crash lands
  // before any stage artifact was committed).
  uint64_t min_stages_skipped;
};

TEST(CrashRecovery, KilledPipelineResumesBitIdentical) {
  // Crash sites spanning the pipeline: mid-sampling (before any artifact),
  // the first artifact's first frame, the artifact commit itself, inside the
  // SVD solver (sparsifier already durable), and just after rsvd.art commits
  // (two stages durable). "io/write" hits count every frame append and
  // commit: sparsifier.art is hits 1-5 (header, dims, offsets, columns,
  // values) plus commit 6, rsvd.art hits 7-9 (header, dims, embedding) plus
  // commit 10, and hit 11 is final.art's header frame.
  std::vector<KillPoint> matrix = {
      {"sparsifier/table_insert", 3, 0},
      {"io/write", 1, 0},
      {"io/write", 6, 0},
      {"svd/converge", 1, 1},
      {"io/write", 11, 2},
  };
  if (const char* mode = std::getenv("LIGHTNE_CRASH_MATRIX");
      mode != nullptr && std::string(mode) == "reduced") {
    // tsan: each child is a full instrumented pipeline; two sites cover the
    // before-any-artifact and after-first-artifact halves of the ladder.
    matrix = {{"io/write", 1, 0}, {"svd/converge", 1, 1}};
  }
  const Matrix& ref = ReferenceEmbedding();
  for (const KillPoint& kp : matrix) {
    std::string slug = kp.point;
    for (char& c : slug) {
      if (c == '/') c = '_';
    }
    const std::string dir = ::testing::TempDir() + "/crash_" + slug + "_" +
                            std::to_string(kp.hit) + "_" +
                            std::to_string(::getpid());
    CleanCheckpointDir(dir);
    SCOPED_TRACE(std::string(kp.point) + " hit " + std::to_string(kp.hit));

    // 1. The armed child must hard-die with the kCrash exit code.
    ASSERT_EQ(RunChild(dir, kp.point, kp.hit), FaultRegistry::kCrashExitCode);
    // 2. Whatever the crash left behind, no *committed* artifact is torn: a
    //    fresh process resumes cleanly...
    ASSERT_EQ(RunChild(dir, nullptr, 0), 0);
    // 3. ...and lands on the exact bytes of the uninterrupted run.
    auto resumed = LoadEmbeddingBinary(dir + "/final.emb");
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(BitIdentical(*resumed, ref));
    EXPECT_GE(ReadStagesSkipped(dir), kp.min_stages_skipped);
    EXPECT_LE(ReadStagesSkipped(dir), 3u);
    CleanCheckpointDir(dir);
  }
}

// -------------------------------------------- checkpoint/resume ladder --

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/ckpt_" + info->name() + "_" +
           std::to_string(::getpid());
    CleanCheckpointDir(dir_);
    FaultRegistry::Global().Reset();
  }
  void TearDown() override {
    CleanCheckpointDir(dir_);
    FaultRegistry::Global().Reset();
  }

  std::string dir_;
};

TEST_F(CheckpointResumeTest, ResumeSkipsAllStagesBitIdentical) {
  const CsrGraph g = TestGraph();
  const uint64_t saves_before = CounterValue("checkpoint/saves");
  const uint64_t bytes_before = CounterValue("checkpoint/bytes");
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->resume_stages_skipped, 0u);
  EXPECT_EQ(CounterValue("checkpoint/saves") - saves_before, 3u);
  EXPECT_GT(CounterValue("checkpoint/bytes") - bytes_before, 0u);
  // The three artifacts are the whole checkpoint: nothing else is written.
  std::vector<std::string> files;
  DIR* listing = ::opendir(dir_.c_str());
  ASSERT_NE(listing, nullptr);
  while (const dirent* entry = ::readdir(listing)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") files.push_back(name);
  }
  ::closedir(listing);
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"final.art", "rsvd.art",
                                              "sparsifier.art"}));

  const uint64_t skipped_before = CounterValue("resume/stages_skipped");
  auto second = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->resume_stages_skipped, 3u);
  EXPECT_EQ(CounterValue("resume/stages_skipped") - skipped_before, 3u);
  EXPECT_TRUE(BitIdentical(first->embedding, second->embedding));
  // The stats frame restores the uninterrupted run's scalar facts.
  EXPECT_EQ(second->sparsifier_stats.samples_drawn,
            first->sparsifier_stats.samples_drawn);
  EXPECT_EQ(second->sparsifier_stats.mass_fp20,
            first->sparsifier_stats.mass_fp20);
  EXPECT_EQ(second->sparsifier_nnz_raw, first->sparsifier_nnz_raw);
  EXPECT_EQ(second->sparsifier_nnz, first->sparsifier_nnz);
}

TEST_F(CheckpointResumeTest, TruncatedFinalArtifactFallsBackToRsvd) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  TruncateFile(dir_ + "/final.art", 64);

  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  auto resumed = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before, 1u);
  EXPECT_EQ(resumed->resume_stages_skipped, 2u);  // rsvd rung of the ladder
  EXPECT_TRUE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, MissingArtifactsAreRecomputedUncounted) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(std::remove((dir_ + "/final.art").c_str()), 0);
  ASSERT_EQ(std::remove((dir_ + "/rsvd.art").c_str()), 0);

  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  const uint64_t stale_before = CounterValue("resume/stale_artifacts");
  auto resumed = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before, 0u);
  EXPECT_EQ(CounterValue("resume/stale_artifacts") - stale_before, 0u);
  EXPECT_EQ(resumed->resume_stages_skipped, 1u);  // sparsifier rung
  EXPECT_TRUE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, BitFlippedArtifactsFallToSparsifier) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  // Flip one payload byte (in the dims frame) of each of the two newest
  // artifacts: both frame checksums fail, leaving the sparsifier rung.
  FlipByteAt(dir_ + "/final.art", 200);
  FlipByteAt(dir_ + "/rsvd.art", 200);

  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  auto resumed = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before, 2u);
  EXPECT_EQ(resumed->resume_stages_skipped, 1u);
  EXPECT_TRUE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, CorruptHeaderFrameRecomputesEverything) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  // Byte 40 is inside each artifact's header frame (file header 16 B, frame
  // header 16 B, then the options fingerprint): its checksum fails before
  // the fingerprints are read, so this is corruption, not staleness.
  for (const char* file : {"sparsifier.art", "rsvd.art", "final.art"}) {
    FlipByteAt(dir_ + "/" + file, 40);
  }

  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  const uint64_t stale_before = CounterValue("resume/stale_artifacts");
  auto resumed = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before, 3u);
  EXPECT_EQ(CounterValue("resume/stale_artifacts") - stale_before, 0u);
  EXPECT_EQ(resumed->resume_stages_skipped, 0u);
  // Recomputed, and determinism makes even the recomputed bytes identical.
  EXPECT_TRUE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, StaleFingerprintRefusesResume) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());

  LightNeOptions changed = TestOptions(dir_, true);
  changed.seed = 6;  // any option change stales every artifact
  const uint64_t stale_before = CounterValue("resume/stale_artifacts");
  auto resumed = RunLightNe(g, changed);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/stale_artifacts") - stale_before, 3u);
  EXPECT_EQ(resumed->resume_stages_skipped, 0u);
  // Different seed, honestly recomputed: must NOT be the seed-5 bytes.
  EXPECT_FALSE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, MixedRunDirectoryResumesOnlyMatchingArtifacts) {
  const CsrGraph g = TestGraph();
  LightNeOptions seed6 = TestOptions(dir_, false);
  seed6.seed = 6;
  auto six = RunLightNe(g, seed6);
  ASSERT_TRUE(six.ok()) << six.status().ToString();
  // A seed-5 final.art lands among seed-6 artifacts: each artifact answers
  // for itself, so only that one is refused.
  const std::string other = dir_ + "_seed5";
  CleanCheckpointDir(other);
  auto five = RunLightNe(g, TestOptions(other, false));
  ASSERT_TRUE(five.ok()) << five.status().ToString();
  const std::vector<uint8_t> final5 = ReadFileBytes(other + "/final.art");
  CleanCheckpointDir(other);
  ASSERT_FALSE(final5.empty());
  WriteFileBytes(dir_ + "/final.art", final5);

  seed6.resume = true;
  const uint64_t stale_before = CounterValue("resume/stale_artifacts");
  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  auto resumed = RunLightNe(g, seed6);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/stale_artifacts") - stale_before, 1u);
  EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before, 0u);
  EXPECT_EQ(resumed->resume_stages_skipped, 2u);  // rsvd rung of the ladder
  EXPECT_TRUE(BitIdentical(six->embedding, resumed->embedding));
  EXPECT_FALSE(BitIdentical(five->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, ResumeFalseIgnoresExistingArtifacts) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  auto again = RunLightNe(g, TestOptions(dir_, /*resume=*/false));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->resume_stages_skipped, 0u);
  EXPECT_TRUE(BitIdentical(first->embedding, again->embedding));
}

TEST_F(CheckpointResumeTest, SaveFailureIsCountedNotFatal) {
  const CsrGraph g = TestGraph();
  const uint64_t failures_before = CounterValue("checkpoint/save_failures");
  FaultRegistry::Global().ArmAlwaysFail("io/write");
  auto r = RunLightNe(g, TestOptions(dir_, false));
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(CounterValue("checkpoint/save_failures") - failures_before, 3u);
  EXPECT_TRUE(BitIdentical(r->embedding, ReferenceEmbedding()));
  // Nothing committed: a later resume has nothing to pick up.
  for (const char* file : {"sparsifier.art", "rsvd.art", "final.art"}) {
    EXPECT_FALSE(FileExists(dir_ + "/" + file)) << file;
  }
}

// -------------------------------------------------- corruption sweep --

// Offsets of the frame headers of a well-formed artifact (util/artifact_io.h
// layout: 16-byte file header, then per frame a 16-byte header whose first
// word is the payload length, then the payload).
std::vector<uint64_t> FrameOffsets(const std::vector<uint8_t>& bytes) {
  std::vector<uint64_t> offsets;
  for (uint64_t at = 16; at < bytes.size();) {
    offsets.push_back(at);
    uint64_t payload = 0;
    std::memcpy(&payload, bytes.data() + at, sizeof(payload));
    at += 16 + payload;
  }
  return offsets;
}

// Loads `stage` through a fresh resuming manager bound to `options_fp`.
bool LoadStage(const std::string& dir, const std::string& stage,
               uint64_t options_fp) {
  CheckpointManager manager(dir, /*resume=*/true, options_fp,
                            /*graph_fp=*/7, /*total_stages=*/3);
  CheckpointedPipelineStats stats{};
  if (stage == "sparsifier") {
    SparseMatrix matrix;
    return manager.LoadSparsifier(&matrix, &stats);
  }
  Matrix embedding;
  return manager.LoadEmbedding(
      stage == "final" ? CheckpointManager::EmbeddingStage::kFinal
                       : CheckpointManager::EmbeddingStage::kRsvd,
      &embedding, &stats);
}

TEST_F(CheckpointResumeTest, SweepEveryHeaderByteFrameAndBoundaryIsCorrupt) {
  constexpr uint64_t kOptionsFp = 0x5eed;
  // Each artifact kind written once, from small synthetic inputs.
  {
    CheckpointManager writer(dir_, /*resume=*/false, kOptionsFp,
                             /*graph_fp=*/7, /*total_stages=*/3);
    CheckpointedPipelineStats stats{};
    for (size_t i = 0; i < stats.size(); ++i) stats[i] = i + 1;
    writer.SaveSparsifier(SparseMatrix::FromCsr(3, 3, {0, 1, 2, 3}, {1, 0, 2},
                                                {0.5f, 0.5f, 1.5f}),
                          stats);
    writer.SaveEmbedding(CheckpointManager::EmbeddingStage::kRsvd,
                         Matrix::Gaussian(5, 2, 1), stats);
    writer.SaveEmbedding(CheckpointManager::EmbeddingStage::kFinal,
                         Matrix::Gaussian(5, 2, 3), stats);
  }
  const LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // one warning per corrupted load
  for (const char* stage : {"sparsifier", "rsvd", "final"}) {
    SCOPED_TRACE(stage);
    const std::string path = dir_ + "/" + stage + ".art";
    const std::vector<uint8_t> pristine = ReadFileBytes(path);
    ASSERT_TRUE(LoadStage(dir_, stage, kOptionsFp)) << "pristine artifact";
    const std::vector<uint64_t> frames = FrameOffsets(pristine);
    ASSERT_GE(frames.size(), 3u);

    std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
    const auto flip = [&](uint64_t offset) {
      std::vector<uint8_t> bytes = pristine;
      bytes[offset] ^= 0xff;
      cases.push_back({"flip byte " + std::to_string(offset), bytes});
    };
    const auto truncate = [&](uint64_t size) {
      cases.push_back({"truncate at " + std::to_string(size),
                       std::vector<uint8_t>(pristine.begin(),
                                            pristine.begin() + size)});
    };
    for (uint64_t b = 0; b < 16; ++b) flip(b);  // file header
    truncate(0);
    for (size_t f = 0; f < frames.size(); ++f) {
      const uint64_t payload_at = frames[f] + 16;
      const uint64_t payload_end =
          f + 1 < frames.size() ? frames[f + 1] : pristine.size();
      ASSERT_LT(payload_at, payload_end) << "frame " << f << " is empty";
      for (uint64_t b = frames[f]; b < payload_at; ++b) flip(b);
      if (f == 0) {
        for (uint64_t b = payload_at; b < payload_end; ++b) flip(b);
      } else {
        flip((payload_at + payload_end) / 2);
      }
      truncate(frames[f]);
    }

    const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
    const uint64_t stale_before = CounterValue("resume/stale_artifacts");
    for (const auto& [what, bytes] : cases) {
      WriteFileBytes(path, bytes);
      EXPECT_FALSE(LoadStage(dir_, stage, kOptionsFp)) << what;
    }
    EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before,
              cases.size());
    EXPECT_EQ(CounterValue("resume/stale_artifacts") - stale_before, 0u);

    // Intact again but bound to other options: stale, not corrupt.
    WriteFileBytes(path, pristine);
    EXPECT_FALSE(LoadStage(dir_, stage, kOptionsFp + 1));
    EXPECT_EQ(CounterValue("resume/stale_artifacts") - stale_before, 1u);
  }
  SetLogLevel(log_level);
}

// A row offset above nnz between a valid first and last offset. Checking
// only the ends and that no row's offsets decrease lets the loader index
// past the column and value frames; it must refuse the artifact first.
TEST_F(CheckpointResumeTest, RowOffsetPastNnzIsCorrupt) {
  constexpr uint64_t kOptionsFp = 0x5eed;
  constexpr uint32_t kSparsifierSchemaId = 1;  // core/checkpoint.cc
  const std::string path = dir_ + "/sparsifier.art";
  {
    CheckpointManager writer(dir_, /*resume=*/false, kOptionsFp,
                             /*graph_fp=*/7, /*total_stages=*/3);
    // 2 x 64, offsets {0, 2, 3}: row 0 holds columns 1 and 2, row 1 column 3.
    writer.SaveSparsifier(
        SparseMatrix::FromEntries(
            2, 64, {{1, 0.5}, {2, 0.5}, {(uint64_t{1} << 32) | 3, 1.5}}),
        CheckpointedPipelineStats{});
  }
  ASSERT_TRUE(LoadStage(dir_, "sparsifier", kOptionsFp));
  // Re-frame it with offsets {0, 11, 3} and fresh checksums.
  std::vector<std::vector<uint8_t>> frames;
  uint32_t version = 0;
  {
    auto artifact = MappedArtifact::Open(path, kSparsifierSchemaId);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    ASSERT_EQ(artifact->num_frames(), 5u);
    version = artifact->schema_version();
    for (size_t f = 0; f < artifact->num_frames(); ++f) {
      const auto* data =
          static_cast<const uint8_t*>(artifact->frame(f).data);
      frames.emplace_back(data, data + artifact->frame(f).bytes);
    }
  }
  const uint64_t offsets[3] = {0, 11, 3};
  ASSERT_EQ(frames[2].size(), sizeof(offsets));
  std::memcpy(frames[2].data(), offsets, sizeof(offsets));
  ArtifactWriter writer;
  ASSERT_TRUE(writer.Open(path, kSparsifierSchemaId, version).ok());
  for (const std::vector<uint8_t>& frame : frames) {
    ASSERT_TRUE(writer.AppendFrame(frame.data(), frame.size()).ok());
  }
  ASSERT_TRUE(writer.Commit().ok());

  const LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  EXPECT_FALSE(LoadStage(dir_, "sparsifier", kOptionsFp));
  EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before, 1u);
  SetLogLevel(log_level);
}

// ------------------------------------------------------ kCrash self-test --

class FaultCrashMode : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_F(FaultCrashMode, DisarmedFastPathCountsNothing) {
  EXPECT_EQ(FaultRegistry::ArmedCount(), 0);
  // With nothing armed anywhere, the macro is one relaxed load: the registry
  // is never consulted, so not even the hit counter moves.
  EXPECT_FALSE(LIGHTNE_FAULT_POINT("crash/self_test"));
  EXPECT_EQ(FaultRegistry::Global().HitCount("crash/self_test"), 0u);

  FaultRegistry::Global().ArmCrashOnNthHit("crash/self_test", 1000000);
  EXPECT_EQ(FaultRegistry::ArmedCount(), 1);
  EXPECT_FALSE(LIGHTNE_FAULT_POINT("crash/self_test"));  // far from the nth
  EXPECT_EQ(FaultRegistry::Global().HitCount("crash/self_test"), 1u);
  FaultRegistry::Global().Disarm("crash/self_test");
  EXPECT_EQ(FaultRegistry::ArmedCount(), 0);
}

TEST_F(FaultCrashMode, CrashExitsWithCode137) {
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    FaultRegistry::Global().ArmCrashOnNthHit("crash/child_only", 1);
    (void)LIGHTNE_FAULT_POINT("crash/child_only");  // _exit(137)s here
    ::_exit(99);                                    // must not be reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), FaultRegistry::kCrashExitCode);
  // The child armed after the fork: the parent registry never saw it.
  EXPECT_EQ(FaultRegistry::ArmedCount(), 0);
  EXPECT_EQ(FaultRegistry::Global().HitCount("crash/child_only"), 0u);
}

TEST_F(FaultCrashMode, ArmingSurvivesForkAndFiresOnExactHit) {
  FaultRegistry::Global().ArmCrashOnNthHit("crash/forked", 3);
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Hits 1 and 2 must pass; hit 3 must kill.
    if (LIGHTNE_FAULT_POINT("crash/forked")) ::_exit(98);
    if (LIGHTNE_FAULT_POINT("crash/forked")) ::_exit(98);
    (void)LIGHTNE_FAULT_POINT("crash/forked");
    ::_exit(97);  // must not be reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), FaultRegistry::kCrashExitCode);
  // Fork isolation: the parent's hit counter is untouched by child hits.
  EXPECT_EQ(FaultRegistry::Global().HitCount("crash/forked"), 0u);
}

TEST_F(FaultCrashMode, NoCrashBeforeNthHit) {
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    FaultRegistry::Global().ArmCrashOnNthHit("crash/late", 5);
    bool fired = false;
    for (int i = 0; i < 4; ++i) {
      fired = fired || LIGHTNE_FAULT_POINT("crash/late");
    }
    ::_exit(fired ? 96 : 42);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 42);
}

}  // namespace
}  // namespace lightne
