#include "graph/varint_simd.h"

#if defined(__x86_64__) || defined(__i386__)
#define LIGHTNE_VARINT_SIMD_ARMS 1
#include <immintrin.h>
#else
#define LIGHTNE_VARINT_SIMD_ARMS 0
#endif

namespace lightne {

namespace {

// Decodes one LEB128 varint; shared tail/fallback for every arm, so all
// arms agree byte-for-byte with CompressedGraph's inline DecodeVarint.
inline uint64_t DecodeOne(const uint8_t** p) {
  uint64_t out = 0;
  int shift = 0;
  for (;;) {
    const uint8_t byte = *(*p)++;
    out |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return out;
}

}  // namespace

const uint8_t* DecodeDeltaPrefixScalar(const uint8_t* p, uint64_t count,
                                       uint32_t* base_io, uint32_t* out) {
  // uint32 accumulation (mod 2^32) is the reference semantics: the SIMD
  // arms sum with paddd, so wraparound must match lane arithmetic exactly.
  uint32_t base = *base_io;
  for (uint64_t k = 0; k < count; ++k) {
    base += static_cast<uint32_t>(DecodeOne(&p));
    out[k] = base;
  }
  *base_io = base;
  return p;
}

#if LIGHTNE_VARINT_SIMD_ARMS

namespace {

// Shuffle table keyed on the low 8 continuation bits of a 16-byte load.
// A valid entry decodes the next FOUR varints, each 1 or 2 bytes wide, in
// one pshufb: lane j gathers [first byte, second byte or zero] of varint j
// into a u32. consumed == 0 marks patterns with a >=3-byte varint (or one
// straddling byte 7, whose width bit lies outside the table key); the
// caller scalar-decodes one varint and retries.
struct ShufEntry {
  alignas(16) uint8_t shuffle[16];
  uint8_t consumed;  // total input bytes for 4 varints; 0 = invalid
};

struct ShufTable {
  ShufEntry entries[256];
};

constexpr ShufTable BuildShufTable() {
  ShufTable t{};
  for (int m = 0; m < 256; ++m) {
    ShufEntry& e = t.entries[m];
    for (int i = 0; i < 16; ++i) e.shuffle[i] = 0x80;  // pshufb: zero lane
    int pos = 0;
    int nv = 0;
    bool ok = true;
    while (nv < 4) {
      if (pos >= 8) {
        ok = false;
        break;
      }
      if (((m >> pos) & 1) == 0) {  // 1-byte varint
        e.shuffle[nv * 4] = static_cast<uint8_t>(pos);
        pos += 1;
      } else if (pos + 1 < 8 && ((m >> (pos + 1)) & 1) == 0) {  // 2-byte
        e.shuffle[nv * 4] = static_cast<uint8_t>(pos);
        e.shuffle[nv * 4 + 1] = static_cast<uint8_t>(pos + 1);
        pos += 2;
      } else {  // >=3 bytes, or width undecidable from the low 8 bits
        ok = false;
        break;
      }
      ++nv;
    }
    e.consumed = ok ? static_cast<uint8_t>(pos) : 0;
  }
  return t;
}

constexpr ShufTable kShufTable = BuildShufTable();

// Fused difference-decode core, shared by both SIMD arms: the 4-varint
// shuffle-table step, plus an in-register inclusive prefix sum (two lane
// shifts + adds) and a lane-3 carry broadcast (_mm_shuffle_epi32, SSE2 — no
// SSE4.1 extract needed), so the running sum never leaves the register file
// between iterations. No 8-wide special case: the mask==0 table entry
// already decodes four 1-byte varints, and a second branch in the loop
// costs more in mispredicts than the wider unpack saves (measured on
// hub-shaped delta mixes). Carries the ssse3 target itself (the intrinsics
// need it) and is always_inline, so it inlines into any caller whose target
// is a superset: the avx2 arm reuses the body under VEX codegen.
__attribute__((target("ssse3"), always_inline)) inline const uint8_t*
DecodeDeltaPrefixSse(const uint8_t* p, uint64_t count, uint32_t* base_io,
                     uint32_t* out) {
  const __m128i lo7 = _mm_set1_epi32(0x7f);
  const __m128i hi7 = _mm_set1_epi32(0x7f00);
  __m128i carry = _mm_set1_epi32(static_cast<int>(*base_io));
  uint64_t k = 0;
  while (k + 4 <= count) {
    const __m128i chunk = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const uint32_t mask =
        static_cast<uint32_t>(_mm_movemask_epi8(chunk)) & 0xffu;
    const ShufEntry& e = kShufTable.entries[mask];
    if (e.consumed != 0) {
      const __m128i shuf =
          _mm_load_si128(reinterpret_cast<const __m128i*>(e.shuffle));
      const __m128i lanes = _mm_shuffle_epi8(chunk, shuf);
      __m128i val = _mm_or_si128(_mm_and_si128(lanes, lo7),
                                 _mm_srli_epi32(_mm_and_si128(lanes, hi7), 1));
      // Inclusive prefix sum across the 4 lanes, then add the carried base.
      val = _mm_add_epi32(val, _mm_slli_si128(val, 4));
      val = _mm_add_epi32(val, _mm_slli_si128(val, 8));
      val = _mm_add_epi32(val, carry);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k), val);
      carry = _mm_shuffle_epi32(val, 0xff);  // broadcast lane 3
      p += e.consumed;
      k += 4;
      continue;
    }
    // Long varint at the front: scalar-decode it and re-broadcast the base.
    const uint32_t base =
        static_cast<uint32_t>(_mm_cvtsi128_si32(carry)) +
        static_cast<uint32_t>(DecodeOne(&p));
    out[k++] = base;
    carry = _mm_set1_epi32(static_cast<int>(base));
  }
  uint32_t base = static_cast<uint32_t>(_mm_cvtsi128_si32(carry));
  while (k < count) {
    base += static_cast<uint32_t>(DecodeOne(&p));
    out[k++] = base;
  }
  *base_io = base;
  return p;
}

__attribute__((target("ssse3"))) const uint8_t* DecodeDeltaPrefixSsse3(
    const uint8_t* p, uint64_t count, uint32_t* base_io, uint32_t* out) {
  return DecodeDeltaPrefixSse(p, count, base_io, out);
}

__attribute__((target("avx2"))) const uint8_t* DecodeDeltaPrefixAvx2(
    const uint8_t* p, uint64_t count, uint32_t* base_io, uint32_t* out) {
  // The carry chain serializes iterations anyway; the win over the ssse3
  // arm is VEX codegen of the same body.
  return DecodeDeltaPrefixSse(p, count, base_io, out);
}

}  // namespace

#endif  // LIGHTNE_VARINT_SIMD_ARMS

namespace {

struct Backend {
  VarintDeltaPrefixFn fn;
  const char* name;
};

Backend Resolve() {
#if LIGHTNE_VARINT_SIMD_ARMS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return {&DecodeDeltaPrefixAvx2, "avx2"};
  if (__builtin_cpu_supports("ssse3")) {
    return {&DecodeDeltaPrefixSsse3, "ssse3"};
  }
#endif
  return {&DecodeDeltaPrefixScalar, "scalar"};
}

// Resolved once, on first use (thread-safe static initialization).
const Backend& Active() {
  static const Backend backend = Resolve();
  return backend;
}

}  // namespace

VarintDeltaPrefixFn ActiveDeltaPrefixDecoder() { return Active().fn; }

const char* VarintBackendName() { return Active().name; }

}  // namespace lightne
