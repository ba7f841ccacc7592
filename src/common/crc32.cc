#include "src/common/crc32.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstring>

#include "src/common/crc32_internal.h"

// The slice-by-8 loop folds two 32-bit loads into the CRC assuming
// little-endian byte order; a big-endian port would need byteswaps, not a
// silently different checksum.
static_assert(std::endian::native == std::endian::little,
              "Crc32Extend's slice-by-8 loop requires a little-endian host");

namespace ftx {
namespace {

constexpr uint32_t kPolynomial = 0xedb88320u;  // reflected IEEE 802.3

// Slice-by-8 lookup tables. Table()[0] is the classic byte-at-a-time table;
// Table()[k][i] advances the CRC of byte i by k additional zero bytes, which
// lets the hot loop fold eight input bytes per iteration with eight
// independent table loads (Intel's slicing-by-8 technique). The CRC values
// produced are bit-identical to the byte-at-a-time form.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xff];
    }
  }
  return tables;
}

const SliceTables& Tables() {
  static const SliceTables tables = BuildTables();
  return tables;
}

using CrcFn = uint32_t (*)(uint32_t, const void*, size_t);

// Resolved lazily on first use (relaxed atomics: the resolution is
// idempotent, so a racing first-call pair just probes CPUID twice).
std::atomic<CrcFn> g_active_fn{nullptr};
std::atomic<Crc32Impl> g_active_impl{Crc32Impl::kAuto};

CrcFn Resolve(Crc32Impl impl) {
  const bool hw = (impl == Crc32Impl::kAuto || impl == Crc32Impl::kHardware) &&
                  crc32_internal::HardwareProbe();
  g_active_impl.store(hw ? Crc32Impl::kHardware : Crc32Impl::kPortable,
                      std::memory_order_relaxed);
  CrcFn fn = hw ? &crc32_internal::HardwareExtend : &Crc32PortableExtend;
  g_active_fn.store(fn, std::memory_order_relaxed);
  return fn;
}

}  // namespace

uint32_t Crc32PortableExtend(uint32_t seed, const void* data, size_t size) {
  const SliceTables& t = Tables();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  // Fold eight bytes per iteration. The two 32-bit loads are unaligned-safe
  // via memcpy (compiles to plain loads on x86/arm) and assume little-endian
  // hosts, which everything this library targets is.
  while (size >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
        t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    c = t[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

Crc32Impl SetCrc32Impl(Crc32Impl impl) {
  Resolve(impl);
  return g_active_impl.load(std::memory_order_relaxed);
}

Crc32Impl ActiveCrc32Impl() {
  if (g_active_fn.load(std::memory_order_relaxed) == nullptr) {
    Resolve(Crc32Impl::kAuto);
  }
  return g_active_impl.load(std::memory_order_relaxed);
}

bool Crc32HardwareAvailable() { return crc32_internal::HardwareProbe(); }

uint32_t Crc32Extend(uint32_t seed, const void* data, size_t size) {
  CrcFn fn = g_active_fn.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    fn = Resolve(Crc32Impl::kAuto);
  }
  return fn(seed, data, size);
}

uint32_t Crc32(const void* data, size_t size) { return Crc32Extend(0, data, size); }

}  // namespace ftx
