// The hardware CRC-32 kernels behind ftx::Crc32's dispatch (crc32_hw.cc),
// declared for crc32.cc and for the tests that fuzz each kernel directly
// against Crc32PortableExtend. Not part of the library's interface.
//
// Every function here has Crc32Extend's incremental contract and returns the
// same digest as Crc32PortableExtend for any input. On non-x86 targets both
// probes return false and the kernels forward to the portable path.

#ifndef FTX_SRC_COMMON_CRC32_INTERNAL_H_
#define FTX_SRC_COMMON_CRC32_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace ftx {
namespace crc32_internal {

// Shortest buffer the 512-bit kernel folds; HardwareExtend hands it every
// buffer of at least this many bytes when WideProbe() holds.
inline constexpr size_t kWideMinBytes = 256;

// Cached CPUID probes. HardwareProbe: PCLMULQDQ, which the 128-bit kernel
// needs. WideProbe: AVX-512F and VPCLMULQDQ, which the 512-bit kernel needs.
bool HardwareProbe();
bool WideProbe();

// The dispatcher's hardware path (requires HardwareProbe()): the 512-bit
// kernel for buffers of kWideMinBytes or more when WideProbe() holds, the
// 128-bit kernel otherwise.
uint32_t HardwareExtend(uint32_t seed, const void* data, size_t size);

// The 128-bit PCLMULQDQ kernel (requires HardwareProbe()); buffers under
// 64 bytes take the table path.
uint32_t ExtendPclmul128(uint32_t seed, const void* data, size_t size);

// The 512-bit VPCLMULQDQ kernel (requires WideProbe()); buffers under
// kWideMinBytes take ExtendPclmul128.
uint32_t ExtendVpclmul512(uint32_t seed, const void* data, size_t size);

}  // namespace crc32_internal
}  // namespace ftx

#endif  // FTX_SRC_COMMON_CRC32_INTERNAL_H_
