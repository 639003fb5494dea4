// Fused varint difference-decoding for compressed-graph walk draws.
//
// The parallel-byte format (graph/compressed.h) difference-encodes neighbor
// lists as LEB128 varints. Scalar decode is a loop-carried dependence — each
// varint's width gates the next load — so this module decodes a run of
// varints and their running sum in one sweep with SSSE3/AVX2 shuffle tables
// (masked-VByte style): one 16-byte load yields the continuation-bit mask of
// 16 bytes at once, and a 256-entry table keyed on the low 8 mask bits turns
// four varints of width <= 2 into a single pshufb + mask/shift, followed by
// an in-register prefix sum.
//
// Dispatch contract (DESIGN.md §13):
//  - DecodeDeltaPrefixScalar is the reference semantics; the SIMD arms
//    produce bit-identical output for every well-formed stream, so the
//    dispatched arm can never change a walk stream;
//  - the arm is resolved once at runtime via __builtin_cpu_supports (unlike
//    util/artifact_io's crc32c, which may gate on compile-time __SSE4_2__
//    because CI builds run where they compile, the graph library ships
//    generic binaries), priority avx2 > ssse3 > scalar; non-x86 builds get
//    the scalar arm;
//  - SIMD decode loads 16 bytes at a time, so the encoded stream must be
//    readable kVarintDecodeSlack bytes past its end. CompressedGraph
//    allocates that slack in FromCsr; callers decoding foreign buffers must
//    provide it themselves.
#ifndef LIGHTNE_GRAPH_VARINT_SIMD_H_
#define LIGHTNE_GRAPH_VARINT_SIMD_H_

#include <cstdint>

namespace lightne {

/// Readable bytes required past the end of any stream handed to the
/// decoder (one full SIMD load starting at the stream's last byte).
inline constexpr uint64_t kVarintDecodeSlack = 16;

/// Fused difference-decode: reads `count` LEB128 varints from `p`,
/// accumulates each into `*base_io` (mod 2^32 — every arm accumulates in
/// uint32), and writes every running sum to out[0..count). Returns the byte
/// after the last consumed varint; `*base_io` holds the final sum for
/// resumed decodes. This is the inner loop of CompressedGraph::Neighbor
/// (every unpinned walk draw past a block's first 8 deltas) and
/// DecodeBlock: decode and prefix sum in one pass, no staging buffer — the
/// SIMD arms keep the running sum in a register (4-lane shift-add prefix +
/// lane-3 carry broadcast). `p` must have kVarintDecodeSlack readable slack
/// bytes after the encoded data.
using VarintDeltaPrefixFn = const uint8_t* (*)(const uint8_t* p,
                                               uint64_t count,
                                               uint32_t* base_io,
                                               uint32_t* out);

/// Scalar reference for the fused difference-decode. Byte-exact with
/// CompressedGraph's inline DecodeVarint; never reads past the consumed
/// bytes (slack unused).
const uint8_t* DecodeDeltaPrefixScalar(const uint8_t* p, uint64_t count,
                                       uint32_t* base_io, uint32_t* out);

/// The dispatched fused difference-decoder: the best arm the CPU supports,
/// resolved once on first use (a function-local static; hot-path safe).
VarintDeltaPrefixFn ActiveDeltaPrefixDecoder();

/// Name of the dispatched arm: "scalar", "ssse3", or "avx2".
const char* VarintBackendName();

}  // namespace lightne

#endif  // LIGHTNE_GRAPH_VARINT_SIMD_H_
