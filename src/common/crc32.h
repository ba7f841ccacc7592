// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8 + PCLMUL/VPCLMUL.
//
// Used for application-level consistency checks (the paper's §2.6
// recommendation that processes checksum their data to crash sooner after a
// fault) and for validating log records and checkpoint images. Three
// kernels produce bit-identical digests:
//
//   * portable: slice-by-8 table folding, eight bytes per iteration — ~5x
//     the byte-at-a-time form on page-sized buffers;
//   * hardware, 128-bit: PCLMULQDQ carry-less-multiply folding (the Intel
//     "Fast CRC Computation Using PCLMULQDQ" technique), 64 bytes per
//     iteration across four 128-bit accumulators;
//   * hardware, 512-bit: the same folding with AVX-512 VPCLMULQDQ, 256
//     bytes per iteration across four 512-bit accumulators, then through
//     the 128-bit kernel's tail (~3x the 128-bit kernel on 4 KB buffers).
//
// The hardware path (crc32_hw.cc) takes the 512-bit kernel for buffers of
// 256 bytes or more on hosts with AVX-512F and VPCLMULQDQ, and the 128-bit
// kernel for everything else of 64 bytes or more. Note the SSE4.2
// _mm_crc32_u64 instruction is NOT usable here: its polynomial is hardwired
// to CRC-32C (Castagnoli, 0x1EDC6F41), which can never reproduce the IEEE
// digests this log format is committed to.
//
// Dispatch is by cached runtime CPUID probes (no special compile flags
// needed; each kernel carries its own target attributes), so every build
// flavor — FTX_NATIVE or not — gets the fastest path the host supports, and
// digests never depend on which path ran.

#ifndef FTX_SRC_COMMON_CRC32_H_
#define FTX_SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace ftx {

// One-shot CRC of a buffer.
uint32_t Crc32(const void* data, size_t size);

// Incremental form: pass the previous return value as `seed` to extend a
// running checksum across multiple buffers. Start with seed = 0.
uint32_t Crc32Extend(uint32_t seed, const void* data, size_t size);

// Always the slice-by-8 software path, regardless of SetCrc32Impl: the
// dispatcher's fallback, and the reference the hardware path is fuzzed
// against. Same incremental contract as Crc32Extend.
uint32_t Crc32PortableExtend(uint32_t seed, const void* data, size_t size);

// Implementation selector. kAuto probes CPUID once and uses the hardware
// kernels when the host supports PCLMULQDQ; kHardware forces them (falls
// back to portable, with ActiveCrc32Impl reporting kPortable, when
// unsupported); kPortable forces the table path (the CPUID-fallback tests
// use this). The hardware path picks between its two kernels by itself.
enum class Crc32Impl {
  kAuto,
  kPortable,
  kHardware,
};

// Selects the implementation for subsequent Crc32/Crc32Extend calls and
// returns the implementation actually in effect (kPortable or kHardware).
// Not intended for concurrent use with in-flight checksums; tests and
// benches call it during setup.
Crc32Impl SetCrc32Impl(Crc32Impl impl);

// The implementation currently in effect (resolves kAuto).
Crc32Impl ActiveCrc32Impl();

// True when the CPUID probe found PCLMULQDQ support (the 128-bit kernel;
// the 512-bit one also needs AVX-512F and VPCLMULQDQ).
bool Crc32HardwareAvailable();

}  // namespace ftx

#endif  // FTX_SRC_COMMON_CRC32_H_
