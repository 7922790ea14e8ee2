// SSE4.2 kernels shared by the AVX2 tier: the group-varint and u8 delta
// decoders, hardware crc32 and the 8x8 byte transpose — 128-bit
// sweet-spot operations that do not widen usefully to 256 bits. There is
// no SSE4.2 dispatch tier of its own. Compiled with -msse4.2 (CMake sets
// the flag on this file only); when the compiler cannot target SSE4.2
// every entry point forwards to its scalar reference kernel, so the build
// stays portable.
//
// The group-varint decoder is the classic pshufb shuffle-table expansion:
// one 256-entry table maps each control byte to a 16-byte shuffle that
// scatters the 4..16 data bytes into four zero-padded u32 lanes, then an
// in-register prefix sum turns deltas into doc ids.
#include "common/simd_internal.h"

#if AT_SIMD_X86 && defined(__SSE4_2__)

#include <nmmintrin.h>

#include <cstring>

namespace at::simd::detail {
namespace {

struct GroupTables {
  alignas(16) std::uint8_t shuf[256][16];
  std::uint8_t len[256];
};

constexpr GroupTables make_group_tables() {
  GroupTables t{};
  for (int c = 0; c < 256; ++c) {
    int off = 0;
    for (int v = 0; v < 4; ++v) {
      const int len = ((c >> (2 * v)) & 0x3) + 1;
      for (int b = 0; b < 4; ++b) {
        // 0x80 in a pshufb control lane writes a zero byte.
        t.shuf[c][4 * v + b] =
            b < len ? static_cast<std::uint8_t>(off + b) : 0x80;
      }
      off += len;
    }
    t.len[c] = static_cast<std::uint8_t>(off);
  }
  return t;
}

constexpr GroupTables kGroupTables = make_group_tables();

}  // namespace

const std::uint8_t* sse42_decode_group_deltas(const std::uint8_t* p,
                                              std::uint32_t* ids,
                                              std::uint32_t* prev,
                                              std::size_t n) {
  __m128i pv = _mm_set1_epi32(static_cast<int>(*prev));
  for (std::size_t i = 0; i < n; i += 4) {
    const std::uint8_t control = *p++;
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i d = _mm_shuffle_epi8(
        raw, _mm_load_si128(
                 reinterpret_cast<const __m128i*>(kGroupTables.shuf[control])));
    // In-register inclusive prefix sum of the four u32 deltas.
    d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
    const __m128i vals = _mm_add_epi32(d, pv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids + i), vals);
    pv = _mm_shuffle_epi32(vals, _MM_SHUFFLE(3, 3, 3, 3));
    p += kGroupTables.len[control];
  }
  *prev = static_cast<std::uint32_t>(_mm_cvtsi128_si32(pv));
  return p;
}

const std::uint8_t* sse42_decode_u8_deltas(const std::uint8_t* p,
                                           std::uint32_t* ids,
                                           std::uint32_t* prev,
                                           std::size_t n) {
  __m128i pv = _mm_set1_epi32(static_cast<int>(*prev));
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    std::uint32_t packed;
    std::memcpy(&packed, p + i, sizeof packed);
    __m128i d =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed)));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
    const __m128i vals = _mm_add_epi32(d, pv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids + i), vals);
    pv = _mm_shuffle_epi32(vals, _MM_SHUFFLE(3, 3, 3, 3));
  }
  if (i < n) {
    // Tail quad: bytes past the block's deltas belong to the next block
    // (or the pool pad), so mask them out of the prefix sum before the
    // full-quad store (the ids buffer always has room for a rounded-up
    // quad — see the Kernels contract).
    static constexpr std::uint32_t kTailMask[4] = {0, 0xFFu, 0xFFFFu,
                                                   0xFFFFFFu};
    std::uint32_t packed;
    std::memcpy(&packed, p + i, sizeof packed);  // pool pad keeps this safe
    packed &= kTailMask[n - i];
    __m128i d =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed)));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
    const __m128i vals = _mm_add_epi32(d, pv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids + i), vals);
    pv = _mm_shuffle_epi32(vals, _MM_SHUFFLE(3, 3, 3, 3));
  }
  *prev = static_cast<std::uint32_t>(_mm_cvtsi128_si32(pv));
  return p + n;
}

std::uint32_t sse42_crc32c_update(std::uint32_t crc, const std::uint8_t* p,
                                  std::size_t n) {
  // The crc32 instruction implements the Castagnoli polynomial directly;
  // widening to u64 steps just feeds it 8 input bytes per issue.
  std::uint64_t c = crc;
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p + i, sizeof chunk);
    c = _mm_crc32_u64(c, chunk);
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  for (std::size_t i = n8; i < n; ++i) {
    c32 = _mm_crc32_u8(c32, p[i]);
  }
  return c32;
}

// 8x8 byte transpose of one element group: doubles d0..d7 in four 16-byte
// registers ([d0,d1], [d2,d3], [d4,d5], [d6,d7]) to four registers of two
// 8-byte planes each ([p0,p1], [p2,p3], [p4,p5], [p6,p7]). Three unpack
// stages; the network is an involution on the 8x8 byte matrix, so
// unshuffle runs the identical network with planes as input rows.
inline void transpose8x8(__m128i r0, __m128i r1, __m128i r2, __m128i r3,
                         __m128i& w0, __m128i& w1, __m128i& w2, __m128i& w3) {
  const __m128i t0 = _mm_unpacklo_epi8(r0, r1);  // rows 0,2 interleaved
  const __m128i t1 = _mm_unpackhi_epi8(r0, r1);  // rows 1,3 interleaved
  const __m128i t2 = _mm_unpacklo_epi8(r2, r3);  // rows 4,6
  const __m128i t3 = _mm_unpackhi_epi8(r2, r3);  // rows 5,7
  const __m128i u0 = _mm_unpacklo_epi8(t0, t1);  // cols 0..3 of rows 0..3
  const __m128i u1 = _mm_unpackhi_epi8(t0, t1);  // cols 4..7 of rows 0..3
  const __m128i u2 = _mm_unpacklo_epi8(t2, t3);  // cols 0..3 of rows 4..7
  const __m128i u3 = _mm_unpackhi_epi8(t2, t3);  // cols 4..7 of rows 4..7
  w0 = _mm_unpacklo_epi32(u0, u2);
  w1 = _mm_unpackhi_epi32(u0, u2);
  w2 = _mm_unpacklo_epi32(u1, u3);
  w3 = _mm_unpackhi_epi32(u1, u3);
}

void sse42_shuffle_u64(std::uint8_t* out, const std::uint64_t* in,
                       std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    const __m128i* src = reinterpret_cast<const __m128i*>(in + i);
    __m128i w0, w1, w2, w3;
    transpose8x8(_mm_loadu_si128(src), _mm_loadu_si128(src + 1),
                 _mm_loadu_si128(src + 2), _mm_loadu_si128(src + 3), w0, w1,
                 w2, w3);
    const __m128i w[4] = {w0, w1, w2, w3};
    for (int k = 0; k < 4; ++k) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (2 * k) * n + i),
                       w[k]);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (2 * k + 1) * n + i),
                       _mm_srli_si128(w[k], 8));
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    const std::uint64_t x = in[i];
    for (std::size_t plane = 0; plane < 8; ++plane) {
      out[plane * n + i] = static_cast<std::uint8_t>(x >> (8 * plane));
    }
  }
}

void sse42_unshuffle_u64(std::uint64_t* out, const std::uint8_t* in,
                         std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    __m128i r[4];
    for (int k = 0; k < 4; ++k) {
      const __m128i lo = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(in + (2 * k) * n + i));
      const __m128i hi = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(in + (2 * k + 1) * n + i));
      r[k] = _mm_unpacklo_epi64(lo, hi);
    }
    __m128i w0, w1, w2, w3;
    transpose8x8(r[0], r[1], r[2], r[3], w0, w1, w2, w3);
    __m128i* dst = reinterpret_cast<__m128i*>(out + i);
    _mm_storeu_si128(dst, w0);
    _mm_storeu_si128(dst + 1, w1);
    _mm_storeu_si128(dst + 2, w2);
    _mm_storeu_si128(dst + 3, w3);
  }
  for (std::size_t i = n8; i < n; ++i) {
    std::uint64_t x = 0;
    for (std::size_t plane = 0; plane < 8; ++plane) {
      x |= static_cast<std::uint64_t>(in[plane * n + i]) << (8 * plane);
    }
    out[i] = x;
  }
}

}  // namespace at::simd::detail

#else  // !(AT_SIMD_X86 && __SSE4_2__)

namespace at::simd::detail {

const std::uint8_t* sse42_decode_group_deltas(const std::uint8_t* p,
                                              std::uint32_t* ids,
                                              std::uint32_t* prev,
                                              std::size_t n) {
  return scalar_decode_group_deltas(p, ids, prev, n);
}
const std::uint8_t* sse42_decode_u8_deltas(const std::uint8_t* p,
                                           std::uint32_t* ids,
                                           std::uint32_t* prev,
                                           std::size_t n) {
  return scalar_decode_u8_deltas(p, ids, prev, n);
}
std::uint32_t sse42_crc32c_update(std::uint32_t crc, const std::uint8_t* p,
                                  std::size_t n) {
  return scalar_crc32c_update(crc, p, n);
}
void sse42_shuffle_u64(std::uint8_t* out, const std::uint64_t* in,
                       std::size_t n) {
  scalar_shuffle_u64(out, in, n);
}
void sse42_unshuffle_u64(std::uint64_t* out, const std::uint8_t* in,
                         std::size_t n) {
  scalar_unshuffle_u64(out, in, n);
}

}  // namespace at::simd::detail

#endif
