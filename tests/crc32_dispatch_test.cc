// Hardware-vs-portable CRC32 dispatch equality.
//
// Both hardware kernels (128-bit PCLMULQDQ, 512-bit VPCLMULQDQ) must be
// byte-identical to the slice-by-8 reference on every input — the log
// format, goldens, and torture checksums are all committed to the IEEE
// digests, so a single divergent bit anywhere in the fold algebra would
// corrupt durability checks silently. These tests fuzz each kernel and the
// dispatched path against the portable one across lengths, alignments, and
// seeds, exercise the incremental-extend contract, check both CPUID probes
// against the CPU's own feature bits, pin the Segment::Checksum range
// overload under both implementations, and verify the forced-portable
// (CPUID-fallback) selector.

#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/crc32.h"
#include "src/common/crc32_internal.h"
#include "src/common/rng.h"
#include "src/vista/segment.h"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define FTX_CRC32_TEST_X86 1
#include <cpuid.h>
#endif

namespace ftx {
namespace {

// Restores the auto-probed dispatch no matter how a test exits, so a failed
// forced-portable test can't leak a slow path into the rest of the suite.
class ScopedCrc32Impl {
 public:
  explicit ScopedCrc32Impl(Crc32Impl impl) { SetCrc32Impl(impl); }
  ~ScopedCrc32Impl() { SetCrc32Impl(Crc32Impl::kAuto); }
};

std::vector<uint8_t> RandomBuffer(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> buf(size);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return buf;
}

TEST(Crc32DispatchTest, HardwareMatchesPortableAcrossLengthsAndAlignments) {
  if (!Crc32HardwareAvailable()) {
    GTEST_SKIP() << "no PCLMUL on this host";
  }
  ScopedCrc32Impl forced(Crc32Impl::kHardware);
  ASSERT_EQ(ActiveCrc32Impl(), Crc32Impl::kHardware);

  // +64 slack so every offset still leaves `len` addressable bytes.
  const std::vector<uint8_t> buf = RandomBuffer(1 << 18, 0x5eed);
  const size_t lengths[] = {0,   1,   7,    8,    15,   16,    63,    64,    65,     80,  96,
                            127, 128, 255,  256,  257,  1000,  4096,  4097,  65536, 99999, 262080};
  const size_t offsets[] = {0, 1, 3, 7, 8, 15, 63};
  for (size_t len : lengths) {
    for (size_t off : offsets) {
      if (off + len > buf.size()) {
        continue;
      }
      const uint8_t* p = buf.data() + off;
      EXPECT_EQ(Crc32Extend(0, p, len), Crc32PortableExtend(0, p, len))
          << "len=" << len << " off=" << off;
      EXPECT_EQ(Crc32Extend(0xdeadbeefu, p, len), Crc32PortableExtend(0xdeadbeefu, p, len))
          << "seeded len=" << len << " off=" << off;
    }
  }
}

TEST(Crc32DispatchTest, RandomizedSplitsPreserveIncrementalContract) {
  if (!Crc32HardwareAvailable()) {
    GTEST_SKIP() << "no PCLMUL on this host";
  }
  ScopedCrc32Impl forced(Crc32Impl::kHardware);

  Rng rng(0xc4c32);
  const std::vector<uint8_t> buf = RandomBuffer(1 << 16, 0xfeed);
  for (int round = 0; round < 200; ++round) {
    const size_t len = static_cast<size_t>(rng.NextU64() % buf.size());
    const size_t off = static_cast<size_t>(rng.NextU64() % (buf.size() - len + 1));
    const size_t split = len == 0 ? 0 : static_cast<size_t>(rng.NextU64() % (len + 1));
    const uint8_t* p = buf.data() + off;
    const uint32_t whole = Crc32PortableExtend(0, p, len);
    // Hardware one-shot and hardware two-part extend both match the
    // portable one-shot.
    EXPECT_EQ(Crc32Extend(0, p, len), whole) << "round " << round;
    const uint32_t part = Crc32Extend(0, p, split);
    EXPECT_EQ(Crc32Extend(part, p + split, len - split), whole)
        << "round " << round << " split=" << split;
  }
}

// --- each hardware kernel called directly ---

using Kernel = uint32_t (*)(uint32_t, const void*, size_t);

// Fuzzes `kernel` against the portable path: every length below at every
// offset 0-63 and two seeds, then random two-part splits whose second part
// extends the kernel's digest of the first. The lengths sit on each side of
// the 512-bit kernel's 256-byte threshold and of the 64- and 16-byte steps
// of the shared tail, at page size and at the longest buffer of the
// dispatch test above.
void ExpectKernelMatchesPortable(Kernel kernel) {
  const size_t lengths[] = {64,  65,   79,   80,   127,  128,   255,   256,    257,
                            319, 320,  511,  512,  513,  1000,  4095,  4096,   4111,
                            4112, 4160, 8191, 65536, 99999, 131072, 262080};
  const std::vector<uint8_t> buf = RandomBuffer(262080 + 64, 0xc0ffee);
  for (size_t len : lengths) {
    for (size_t off = 0; off < 64; ++off) {
      const uint8_t* p = buf.data() + off;
      for (uint32_t seed : {0u, 0xdeadbeefu}) {
        ASSERT_EQ(kernel(seed, p, len), Crc32PortableExtend(seed, p, len))
            << "len=" << len << " off=" << off << " seed=" << seed;
      }
    }
  }

  Rng rng(0x5e117);
  for (int round = 0; round < 300; ++round) {
    const size_t len = 64 + static_cast<size_t>(rng.NextU64() % (buf.size() - 64 - 63));
    const size_t off = static_cast<size_t>(rng.NextU64() % 64);
    const size_t split = static_cast<size_t>(rng.NextU64() % (len + 1));
    const uint32_t seed = round % 2 == 0 ? 0u : 0xdeadbeefu;
    const uint8_t* p = buf.data() + off;
    const uint32_t whole = Crc32PortableExtend(seed, p, len);
    ASSERT_EQ(kernel(seed, p, len), whole) << "round " << round << " len=" << len;
    ASSERT_EQ(kernel(kernel(seed, p, split), p + split, len - split), whole)
        << "round " << round << " len=" << len << " split=" << split;
  }
}

TEST(Crc32KernelTest, Pclmul128MatchesPortable) {
  // Runs on hosts with the 512-bit kernel too, where the dispatcher hands
  // this kernel only buffers under 256 bytes.
  if (!crc32_internal::HardwareProbe()) {
    GTEST_SKIP() << "no PCLMULQDQ on this host";
  }
  ExpectKernelMatchesPortable(&crc32_internal::ExtendPclmul128);
}

TEST(Crc32KernelTest, Vpclmul512MatchesPortable) {
  if (!crc32_internal::WideProbe()) {
    GTEST_SKIP() << "no AVX-512F + VPCLMULQDQ on this host";
  }
  ExpectKernelMatchesPortable(&crc32_internal::ExtendVpclmul512);
}

TEST(Crc32KernelTest, ProbesMatchCpuidFeatureBits) {
#ifdef FTX_CRC32_TEST_X86
  // Read the feature bits here rather than through __builtin_cpu_supports,
  // so a probe that reports the wrong answer fails on any host.
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  ASSERT_TRUE(__get_cpuid(1, &eax, &ebx, &ecx, &edx));
  const bool pclmul = (ecx & bit_PCLMUL) != 0;
  bool zmm_state = false;
  if ((ecx & bit_OSXSAVE) != 0) {
    // XCR0 bits 1, 2 and 5-7: the OS saves SSE, AVX, opmask and all 512-bit
    // register state, without which AVX-512 instructions fault.
    unsigned xcr0_lo = 0;
    unsigned xcr0_hi = 0;
    __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    zmm_state = (xcr0_lo & 0xe6) == 0xe6;
  }
  bool wide = false;
  if (zmm_state && __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    wide = (ebx & bit_AVX512F) != 0 && (ecx & bit_VPCLMULQDQ) != 0;
  }
  EXPECT_EQ(crc32_internal::HardwareProbe(), pclmul);
  EXPECT_EQ(crc32_internal::WideProbe(), wide);
#else
  EXPECT_FALSE(crc32_internal::HardwareProbe());
  EXPECT_FALSE(crc32_internal::WideProbe());
#endif
}

TEST(Crc32DispatchTest, SegmentChecksumRangeOverloadIsImplementationInvariant) {
  ftx_vista::Segment segment(64 * 1024);
  Rng rng(0x5e9);
  for (int i = 0; i < 512; ++i) {
    const int64_t offset = static_cast<int64_t>(rng.NextU64() % (segment.size() - 8));
    segment.WriteValue<uint64_t>(offset, rng.NextU64());
  }
  segment.Commit();

  struct Range {
    int64_t offset;
    size_t size;
  };
  const Range ranges[] = {{0, 64 * 1024}, {0, 1}, {4095, 2}, {100, 9000}, {60000, 4000}, {512, 0}};
  for (const Range& r : ranges) {
    SetCrc32Impl(Crc32Impl::kPortable);
    const uint32_t portable = segment.Checksum(r.offset, r.size);
    SetCrc32Impl(Crc32Impl::kAuto);
    const uint32_t active = segment.Checksum(r.offset, r.size);
    EXPECT_EQ(portable, active) << "offset=" << r.offset << " size=" << r.size;
  }
  SetCrc32Impl(Crc32Impl::kAuto);
}

TEST(Crc32DispatchTest, ForcedPortableSelectorTakesEffect) {
  // The CPUID-fallback path: regardless of host support, kPortable must win
  // and still produce the canonical digests.
  ScopedCrc32Impl forced(Crc32Impl::kPortable);
  ASSERT_EQ(ActiveCrc32Impl(), Crc32Impl::kPortable);
  const char msg[] = "123456789";
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(Crc32(msg, 9), 0xcbf43926u);
  const std::vector<uint8_t> buf = RandomBuffer(4096, 1);
  EXPECT_EQ(Crc32(buf.data(), buf.size()), Crc32PortableExtend(0, buf.data(), buf.size()));
}

TEST(Crc32DispatchTest, HardwareForcingFallsBackWhenUnsupported) {
  ScopedCrc32Impl forced(Crc32Impl::kHardware);
  if (Crc32HardwareAvailable()) {
    EXPECT_EQ(ActiveCrc32Impl(), Crc32Impl::kHardware);
  } else {
    // Forcing hardware on a host without PCLMUL must degrade, not crash.
    EXPECT_EQ(ActiveCrc32Impl(), Crc32Impl::kPortable);
    const char msg[] = "123456789";
    EXPECT_EQ(Crc32(msg, 9), 0xcbf43926u);
  }
}

}  // namespace
}  // namespace ftx
