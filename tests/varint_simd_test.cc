// Dispatched-vs-scalar varint decode bit-equality (graph/varint_simd.h).
//
// The dispatch contract says the dispatched fused difference-decoder
// (ActiveDeltaPrefixDecoder: the best SIMD arm the CPU supports) decodes
// every well-formed stream exactly like the scalar reference
// DecodeDeltaPrefixScalar. These tests compare the two directly across every
// delta width of 1..5 bytes, random width mixes (including deltas wider than
// 32 bits, which truncate into the uint32 accumulator), and mid-stream
// resumes, and drive CompressedGraph::DecodeBlock across the row shapes that
// matter to the format — zigzag (negative) first deltas, exact block
// boundaries, short tail blocks, empty and degree-1 rows, and wide deltas at
// the very end of the byte stream. On a machine without SSSE3 the dispatched
// arm is the scalar one and the comparisons are trivially true.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/varint_simd.h"
#include "util/random.h"

namespace lightne {
namespace {

// LEB128 encoder mirroring CompressedGraph's EncodeVarint, followed by the
// decode slack the SIMD arms are entitled to read. `*encoded` receives the
// payload length.
std::vector<uint8_t> Encode(const std::vector<uint64_t>& values,
                            size_t* encoded) {
  std::vector<uint8_t> bytes;
  for (uint64_t v : values) {
    while (v >= 0x80) {
      bytes.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes.push_back(static_cast<uint8_t>(v));
  }
  *encoded = bytes.size();
  bytes.resize(bytes.size() + kVarintDecodeSlack, 0);
  return bytes;
}

// Decodes `values` as one stream with both the dispatched and the scalar
// decoder and checks that they agree with each other and with the uint32
// running sum of the values: every output entry, the consumed byte count,
// the final base, and no write past `count`.
void ExpectDispatchedMatchesScalar(const std::vector<uint64_t>& values,
                                   uint32_t base0) {
  size_t encoded = 0;
  const std::vector<uint8_t> bytes = Encode(values, &encoded);
  const uint64_t count = values.size();
  std::vector<uint32_t> expect(count);
  uint32_t run = base0;
  for (uint64_t i = 0; i < count; ++i) {
    run += static_cast<uint32_t>(values[i]);
    expect[i] = run;
  }
  std::vector<uint32_t> scalar(count + 1, ~uint32_t{0});
  std::vector<uint32_t> active(count + 1, ~uint32_t{0});
  uint32_t scalar_base = base0;
  uint32_t active_base = base0;
  const uint8_t* scalar_end = DecodeDeltaPrefixScalar(
      bytes.data(), count, &scalar_base, scalar.data());
  const uint8_t* active_end = ActiveDeltaPrefixDecoder()(
      bytes.data(), count, &active_base, active.data());
  ASSERT_EQ(static_cast<size_t>(scalar_end - bytes.data()), encoded);
  ASSERT_EQ(active_end, scalar_end) << "arm " << VarintBackendName();
  ASSERT_EQ(scalar_base, run);
  ASSERT_EQ(active_base, run) << "arm " << VarintBackendName();
  for (uint64_t i = 0; i < count; ++i) {
    ASSERT_EQ(scalar[i], expect[i]) << "entry " << i;
    ASSERT_EQ(active[i], expect[i])
        << "entry " << i << " arm " << VarintBackendName();
  }
  EXPECT_EQ(scalar[count], ~uint32_t{0});  // no overwrite past count
  EXPECT_EQ(active[count], ~uint32_t{0});
}

TEST(VarintSimdTest, DispatchedArmIsNamed) {
  const std::string name = VarintBackendName();
  EXPECT_TRUE(name == "scalar" || name == "ssse3" || name == "avx2") << name;
  ASSERT_NE(ActiveDeltaPrefixDecoder(), nullptr);
  EXPECT_EQ(name == "scalar",
            ActiveDeltaPrefixDecoder() == &DecodeDeltaPrefixScalar);
}

TEST(VarintSimdTest, AllDeltaWidthsOneToFive) {
  // Smallest and largest value of every encoded width 1..5 bytes, plus the
  // neighbors of each boundary. Each width runs on its own (the SIMD fast
  // paths for widths 1-2, the scalar fallback for 3+) and in one mixed
  // stream (the shuffle table's invalid-pattern fallback), behind 0..3
  // one-byte lead-ins so every width starts at every table alignment.
  std::vector<uint64_t> mixed;
  for (int width = 1; width <= 5; ++width) {
    const uint64_t lo = width == 1 ? 0 : uint64_t{1} << (7 * (width - 1));
    const uint64_t hi = (uint64_t{1} << (7 * width)) - 1;
    const std::vector<uint64_t> boundary = {lo, lo + 1, hi - 1, hi};
    for (int lead = 0; lead < 4; ++lead) {
      std::vector<uint64_t> values(static_cast<size_t>(lead), 1);
      for (int rep = 0; rep < 3; ++rep) {
        values.insert(values.end(), boundary.begin(), boundary.end());
      }
      ExpectDispatchedMatchesScalar(values, /*base0=*/0);
      ExpectDispatchedMatchesScalar(values, /*base0=*/0xfffffff0u);
    }
    mixed.insert(mixed.end(), boundary.begin(), boundary.end());
  }
  ExpectDispatchedMatchesScalar(mixed, /*base0=*/7);
}

TEST(VarintSimdTest, FuzzRandomWidthMixes) {
  // Random bit lengths 1..64 so short runs (the SIMD fast paths) and long
  // varints (the scalar fallback) interleave unpredictably, with random
  // starting bases so sums wrap mod 2^32.
  Rng rng(20260810);
  for (int round = 0; round < 80; ++round) {
    const uint64_t count = 1 + rng.UniformInt(300);
    std::vector<uint64_t> values;
    values.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t bits = 1 + rng.UniformInt(64);
      const uint64_t mask =
          bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
      values.push_back(rng.Next() & mask);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectDispatchedMatchesScalar(values, static_cast<uint32_t>(rng.Next()));
  }
}

TEST(VarintSimdTest, DeltaPrefixResumesMidStream) {
  // Split points must be invisible: decoding [0, k) then [k, n) with the
  // carried base and stream position equals one whole-stream scalar decode.
  // CompressedGraph::Neighbor leans on this to decode long prefixes in
  // chunks.
  Rng rng(20260811);
  std::vector<uint64_t> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.Next() & 0x3ffff);
  size_t encoded = 0;
  const std::vector<uint8_t> bytes = Encode(values, &encoded);
  std::vector<uint32_t> whole(values.size());
  uint32_t base_whole = 7;
  DecodeDeltaPrefixScalar(bytes.data(), values.size(), &base_whole,
                          whole.data());
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<uint32_t> split(values.size());
    uint32_t base = 7;
    const uint8_t* p = bytes.data();
    uint64_t done = 0;
    while (done < values.size()) {
      const uint64_t step = 1 + rng.UniformInt(values.size() - done);
      p = ActiveDeltaPrefixDecoder()(p, step, &base, split.data() + done);
      done += step;
    }
    ASSERT_EQ(split, whole) << "arm " << VarintBackendName();
    ASSERT_EQ(base, base_whole);
    ASSERT_EQ(static_cast<size_t>(p - bytes.data()), encoded);
  }
}

// Star graph: vertex `center` adjacent to `degree` consecutive ids starting
// at `first` (plus the reverse edges FromEdges adds).
CsrGraph Star(NodeId num_vertices, NodeId center, NodeId first,
              uint32_t degree) {
  EdgeList list;
  list.num_vertices = num_vertices;
  for (uint32_t k = 0; k < degree; ++k) {
    list.Add(center, static_cast<NodeId>(first + k));
  }
  return CsrGraph::FromEdges(list);
}

// Decodes every block of every vertex through DecodeBlock (the dispatched
// decoder) and compares against MapNeighbors (the scalar in-header
// reference sweep).
void ExpectBlocksMatchScalarSweep(const CompressedGraph& g) {
  std::vector<NodeId> block(g.block_size());
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t d = g.Degree(v);
    std::vector<NodeId> expect;
    expect.reserve(d);
    g.MapNeighbors(v, [&](NodeId u) { expect.push_back(u); });
    ASSERT_EQ(expect.size(), d);
    const uint64_t nblocks = (d + g.block_size() - 1) / g.block_size();
    uint64_t seen = 0;
    for (uint64_t b = 0; b < nblocks; ++b) {
      const uint64_t len = g.DecodeBlock(v, b, block.data());
      for (uint64_t k = 0; k < len; ++k) {
        ASSERT_EQ(block[k], expect[seen + k])
            << "v=" << v << " b=" << b << " k=" << k << " arm "
            << VarintBackendName();
      }
      seen += len;
    }
    ASSERT_EQ(seen, d) << "v=" << v;
  }
}

TEST(VarintSimdTest, BlockShapesEmptyToTail) {
  // Degrees straddling every interesting block shape at block size 64:
  // empty rows, degree 1, one short of a block boundary, exactly one
  // block, one past it (tail block of length 1), and multi-block rows with
  // short tails. Every reverse-edge row (vertices 101+) starts below its
  // source id, so their first deltas are negative (zigzag arm).
  for (const uint32_t degree : {1u, 8u, 63u, 64u, 65u, 128u, 129u, 200u}) {
    const CsrGraph csr = Star(/*num_vertices=*/400, /*center=*/90,
                              /*first=*/101, degree);
    const CompressedGraph g = CompressedGraph::FromCsr(csr);
    ASSERT_EQ(g.Degree(90), degree);
    ASSERT_EQ(g.Degree(399), 0u);  // isolated tail vertex: empty row
    ExpectBlocksMatchScalarSweep(g);
  }
}

TEST(VarintSimdTest, WideDeltasAtStreamEnd) {
  // Multi-byte deltas (spread-out neighbor ids) on the numerically last
  // vertex, so the final block's decode starts near the end of the byte
  // stream — the case the kVarintDecodeSlack over-read contract exists for.
  EdgeList list;
  const NodeId n = 1u << 20;
  list.num_vertices = n;
  for (uint32_t k = 0; k < 130; ++k) {
    // Neighbors of the last vertex, descending from it in strides that need
    // 1..3-byte deltas after the zigzag first entry.
    list.Add(n - 1, static_cast<NodeId>(k * (k + 13) * 57));
  }
  const CsrGraph csr = CsrGraph::FromEdges(list);
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  ExpectBlocksMatchScalarSweep(g);
}

}  // namespace
}  // namespace lightne
