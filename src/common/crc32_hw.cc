// Carry-less-multiply CRC-32 (IEEE 802.3, reflected) — the hardware kernels
// behind ftx::Crc32's runtime dispatch.
//
// Folding follows Intel's "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ". Two kernels share one tail:
//
//   * 128-bit (PCLMULQDQ): four 128-bit accumulators fold 64 input bytes per
//     iteration;
//   * 512-bit (AVX-512F + VPCLMULQDQ): four 512-bit accumulators, each four
//     128-bit lanes wide, fold 256 bytes per iteration, then collapse into
//     one 512-bit accumulator whose four lanes are exactly the 128-bit
//     kernel's four accumulators at that point of the message.
//
// From there both run the same code: the 64-byte loop over what is left,
// the collapse to one 128-bit accumulator, the 16-byte loop and the table
// finish. HardwareExtend takes the 512-bit kernel for buffers of
// kWideMinBytes (256, one iteration of its loop) or more when the cached
// CPUID probe finds both instructions, and the 128-bit kernel otherwise, so
// a shorter buffer never pays for a wide prologue it cannot use.
//
// Fold constants are x^N mod P for P = 0x104C11DB7, bit-reflected as 32-bit
// values and shifted left one bit for the reflected domain (the same ones
// the Linux kernel's crc32-pclmul uses). A fold over D bits multiplies an
// accumulator's low qword by x^(D+32) and its high qword by x^(D-32), where
// the +-32 offsets come from where each qword's bytes sit relative to the
// 16-byte block being absorbed. D is 2048 for the 512-bit loop, 512 for the
// 64-byte loop and the 512-bit collapse, and 128 for the 16-byte loop and
// the 128-bit collapse. To derive one: reduce x^N modulo P bit by bit,
// reverse the 32 result bits, shift left one. The dispatch fuzz tests pin
// every kernel against the slice-by-8 path.
//
// The final 128-bit -> 32-bit reduction deliberately reuses the slice-by-8
// table path instead of the Barrett step: the fold loop's invariant is that
// the raw CRC of (accumulator bytes || unconsumed bytes) equals the raw CRC
// of the whole message, so running the table CRC over the 16 accumulator
// bytes plus the (< 16-byte) tail finishes the digest exactly. That keeps
// the only hand-derived algebra in this file inside the fold step, at the
// cost of ~16 table iterations per call, noise at the buffer sizes the
// commit path hashes.
//
// Why not SSE4.2 _mm_crc32_u64: that instruction's polynomial is hardwired
// to CRC-32C (Castagnoli). It is faster still, but produces different
// digests, and every persisted log record and golden file is committed to
// IEEE CRCs — so it is not an option for this codebase.

#include "src/common/crc32.h"
#include "src/common/crc32_internal.h"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define FTX_CRC32_HW_X86 1
#include <immintrin.h>
#endif

namespace ftx {
namespace crc32_internal {

#ifdef FTX_CRC32_HW_X86

namespace {

constexpr int64_t kFold2048Lo = 0x000000011542778a;  // x^2080 mod P
constexpr int64_t kFold2048Hi = 0x00000001322d1430;  // x^2016 mod P
constexpr int64_t kFold512Lo = 0x0000000154442bd4;   // x^544 mod P
constexpr int64_t kFold512Hi = 0x00000001c6e41596;   // x^480 mod P
constexpr int64_t kFold128Lo = 0x00000001751997d0;   // x^160 mod P
constexpr int64_t kFold128Hi = 0x00000000ccaa009e;   // x^96  mod P

// One fold step: advances accumulator `x` past 8*distance bits and absorbs
// the next 16-byte block `d`. k holds the distance's two constants (low
// qword applied to x's low half, high to high).
__attribute__((target("pclmul,sse2"))) inline __m128i Fold(__m128i x, __m128i d, __m128i k) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), d);
}

// Fold on each of the four 128-bit lanes at once.
__attribute__((target("avx512f,vpclmulqdq"))) inline __m512i Fold4(__m512i x, __m512i d,
                                                                   __m512i k) {
  const __m512i lo = _mm512_clmulepi64_epi128(x, k, 0x00);
  const __m512i hi = _mm512_clmulepi64_epi128(x, k, 0x11);
  return _mm512_ternarylogic_epi64(lo, hi, d, 0x96);  // lo ^ hi ^ d
}

__attribute__((target("pclmul,sse2"))) inline __m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// The tail both kernels share. x0..x3 hold the folded state of everything
// before p (x0 the oldest 16 bytes); folds the remaining `size` bytes
// 64 and then 16 at a time and finishes on the table path. Inlined, so the
// 512-bit kernel runs it VEX-encoded.
__attribute__((target("pclmul,sse2"), always_inline)) inline uint32_t FoldTail(
    __m128i x0, __m128i x1, __m128i x2, __m128i x3, const uint8_t* p, size_t size) {
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  while (size >= 64) {
    x0 = Fold(x0, Load16(p), k512);
    x1 = Fold(x1, Load16(p + 16), k512);
    x2 = Fold(x2, Load16(p + 32), k512);
    x3 = Fold(x3, Load16(p + 48), k512);
    p += 64;
    size -= 64;
  }

  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  __m128i x = Fold(x0, x1, k128);
  x = Fold(x, x2, k128);
  x = Fold(x, x3, k128);
  while (size >= 16) {
    x = Fold(x, Load16(p), k128);
    p += 16;
    size -= 16;
  }

  // Table-path finish over the folded accumulator and the sub-16-byte tail.
  // Seeding the portable extend with 0xffffffff cancels its conditioning,
  // yielding the raw CRC the fold invariant is stated in.
  alignas(16) uint8_t acc[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(acc), x);
  uint32_t c = Crc32PortableExtend(0xffffffffu, acc, sizeof(acc));
  // Compose incrementally: extending from a finished digest re-enters the
  // raw domain, so the concatenation identity holds.
  return Crc32PortableExtend(c, p, size);
}

}  // namespace

bool HardwareProbe() {
  static const bool available = __builtin_cpu_supports("pclmul") != 0;
  return available;
}

bool WideProbe() {
  static const bool available =
      __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("vpclmulqdq") != 0;
  return available;
}

__attribute__((target("pclmul,sse2"))) uint32_t ExtendPclmul128(uint32_t seed, const void* data,
                                                                size_t size) {
  if (size < 64) {
    // The four-accumulator prologue needs a full cache line; short buffers
    // (framing runs, slot sectors are the floor at 512) go straight to the
    // table path.
    return Crc32PortableExtend(seed, data, size);
  }
  const auto* p = static_cast<const uint8_t*>(data);
  // Seed conditioning: XOR the conditioned CRC into the first four message
  // bytes (the standard initial-value identity for reflected CRCs).
  const __m128i x0 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(seed ^ 0xffffffffu)));
  return FoldTail(x0, Load16(p + 16), Load16(p + 32), Load16(p + 48), p + 64, size - 64);
}

__attribute__((target("avx512f,vpclmulqdq,pclmul"))) uint32_t ExtendVpclmul512(uint32_t seed,
                                                                                const void* data,
                                                                                size_t size) {
  if (size < kWideMinBytes) {
    return ExtendPclmul128(seed, data, size);
  }
  const auto* p = static_cast<const uint8_t*>(data);
  // Lane j of z_i covers message bytes [64i + 16j, 64i + 16j + 16) of each
  // 256-byte block; the seed goes into the first four bytes, as above.
  __m512i z0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                _mm512_maskz_set1_epi32(1, static_cast<int>(seed ^ 0xffffffffu)));
  __m512i z1 = _mm512_loadu_si512(p + 64);
  __m512i z2 = _mm512_loadu_si512(p + 128);
  __m512i z3 = _mm512_loadu_si512(p + 192);
  p += 256;
  size -= 256;

  const __m512i k2048 = _mm512_set_epi64(kFold2048Hi, kFold2048Lo, kFold2048Hi, kFold2048Lo,
                                         kFold2048Hi, kFold2048Lo, kFold2048Hi, kFold2048Lo);
  while (size >= 256) {
    z0 = Fold4(z0, _mm512_loadu_si512(p), k2048);
    z1 = Fold4(z1, _mm512_loadu_si512(p + 64), k2048);
    z2 = Fold4(z2, _mm512_loadu_si512(p + 128), k2048);
    z3 = Fold4(z3, _mm512_loadu_si512(p + 192), k2048);
    p += 256;
    size -= 256;
  }

  // Each z_i sits 64 bytes after z_(i-1), lane for lane.
  const __m512i k512 = _mm512_set_epi64(kFold512Hi, kFold512Lo, kFold512Hi, kFold512Lo,
                                        kFold512Hi, kFold512Lo, kFold512Hi, kFold512Lo);
  __m512i z = Fold4(z0, z1, k512);
  z = Fold4(z, z2, k512);
  z = Fold4(z, z3, k512);
  // Hand the four lanes over through memory: GCC 12's lane-extract and
  // broadcast intrinsics raise -Wmaybe-uninitialized from their headers.
  alignas(64) uint8_t lanes[64];
  _mm512_store_si512(lanes, z);
  return FoldTail(Load16(lanes), Load16(lanes + 16), Load16(lanes + 32), Load16(lanes + 48), p,
                  size);
}

uint32_t HardwareExtend(uint32_t seed, const void* data, size_t size) {
  if (size >= kWideMinBytes && WideProbe()) {
    return ExtendVpclmul512(seed, data, size);
  }
  return ExtendPclmul128(seed, data, size);
}

#else  // !FTX_CRC32_HW_X86

bool HardwareProbe() { return false; }

bool WideProbe() { return false; }

uint32_t HardwareExtend(uint32_t seed, const void* data, size_t size) {
  return Crc32PortableExtend(seed, data, size);
}

uint32_t ExtendPclmul128(uint32_t seed, const void* data, size_t size) {
  return Crc32PortableExtend(seed, data, size);
}

uint32_t ExtendVpclmul512(uint32_t seed, const void* data, size_t size) {
  return Crc32PortableExtend(seed, data, size);
}

#endif

}  // namespace crc32_internal
}  // namespace ftx
