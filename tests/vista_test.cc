// Tests for the Vista transaction library: persistent segment with
// page-granularity undo, and the guarded heap allocator.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/vista/heap.h"
#include "src/vista/segment.h"

namespace {

using ftx_vista::Segment;
using ftx_vista::SegmentHeap;

// --- Segment ---

TEST(Segment, RoundsUpToWholePages) {
  Segment segment(5000, 4096);
  EXPECT_EQ(segment.size(), 8192u);
}

TEST(Segment, WriteReadRoundTrip) {
  Segment segment(16 * 1024);
  segment.WriteValue<int64_t>(100, -12345);
  EXPECT_EQ(segment.Read<int64_t>(100), -12345);
}

TEST(Segment, AbortRestoresLastCommit) {
  Segment segment(16 * 1024);
  segment.WriteValue<int32_t>(0, 1);
  segment.Commit();
  segment.WriteValue<int32_t>(0, 2);
  segment.WriteValue<int32_t>(8000, 3);
  segment.Abort();
  EXPECT_EQ(segment.Read<int32_t>(0), 1);
  EXPECT_EQ(segment.Read<int32_t>(8000), 0);
}

TEST(Segment, CommitMakesChangesDurable) {
  Segment segment(16 * 1024);
  segment.WriteValue<int32_t>(0, 7);
  segment.Commit();
  segment.Abort();  // nothing uncommitted: no-op
  EXPECT_EQ(segment.Read<int32_t>(0), 7);
}

TEST(Segment, DirtyPageTrackingIsPageGranular) {
  Segment segment(64 * 1024, 4096);
  EXPECT_EQ(segment.dirty_page_count(), 0u);
  segment.WriteValue<uint8_t>(0, 1);
  segment.WriteValue<uint8_t>(100, 2);  // same page
  EXPECT_EQ(segment.dirty_page_count(), 1u);
  segment.WriteValue<uint8_t>(5000, 3);  // second page
  EXPECT_EQ(segment.dirty_page_count(), 2u);
  // A write spanning a page boundary dirties both pages.
  uint8_t data[16] = {0};
  segment.Write(4096 * 3 - 8, data, 16);
  EXPECT_EQ(segment.dirty_page_count(), 4u);
}

TEST(Segment, UndoBytesMatchDirtyPages) {
  Segment segment(64 * 1024, 4096);
  segment.WriteValue<uint8_t>(0, 1);
  segment.WriteValue<uint8_t>(9000, 1);
  EXPECT_EQ(segment.undo_bytes(), 2 * 4096);
}

TEST(Segment, OpenForWriteAllowsInPlaceMutation) {
  Segment segment(16 * 1024);
  auto* p = reinterpret_cast<int32_t*>(segment.OpenForWrite(128, 8));
  p[0] = 11;
  p[1] = 22;
  segment.Abort();
  EXPECT_EQ(segment.Read<int32_t>(128), 0);  // barrier logged the page first
}

TEST(Segment, DirtyPagesSnapshotForRedo) {
  Segment segment(32 * 1024, 4096);
  segment.WriteValue<int32_t>(4096, 42);
  std::vector<std::pair<int64_t, ftx::Bytes>> pages;
  segment.ForEachPersistedDirtyPage([&](int64_t offset, const uint8_t* image, size_t size) {
    pages.emplace_back(offset, ftx::Bytes(image, image + size));
  });
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0].first, 4096);
  EXPECT_EQ(pages[0].second.size(), 4096u);
  int32_t value = 0;
  std::memcpy(&value, pages[0].second.data(), 4);
  EXPECT_EQ(value, 42);
}

TEST(Segment, InstallPageBypassesUndo) {
  Segment segment(16 * 1024, 4096);
  ftx::Bytes image(4096, 0x5a);
  segment.InstallPage(4096, image);
  EXPECT_EQ(segment.Read<uint8_t>(4096), 0x5a);
  EXPECT_EQ(segment.dirty_page_count(), 0u);
}

TEST(SegmentDeathTest, OutOfBoundsWriteAborts) {
  Segment segment(16 * 1024, 4096);
  int64_t v = 7;
  // Starts past the end.
  EXPECT_DEATH(segment.Write(16 * 1024, &v, sizeof(v)), "CHECK failed");
  // Starts in bounds, runs past the end.
  EXPECT_DEATH(segment.Write(16 * 1024 - 4, &v, sizeof(v)), "CHECK failed");
  // Negative offset.
  EXPECT_DEATH(segment.Write(-8, &v, sizeof(v)), "CHECK failed");
}

TEST(SegmentDeathTest, OutOfBoundsOpenForWriteAborts) {
  Segment segment(16 * 1024, 4096);
  EXPECT_DEATH(segment.OpenForWrite(16 * 1024, 1), "CHECK failed");
  EXPECT_DEATH(segment.OpenForWrite(16 * 1024 - 4, 8), "CHECK failed");
  EXPECT_DEATH(segment.OpenForWrite(-1, 1), "CHECK failed");
}

TEST(SegmentDeathTest, OutOfBoundsWriteAbortsEvenWithFastRangeCached) {
  Segment segment(16 * 1024, 4096);
  // Populate the cached fast range with the last page, then verify a write
  // running past the segment end still takes the checking slow path.
  segment.WriteValue<int64_t>(16 * 1024 - 4096, 1);
  int64_t v = 7;
  EXPECT_DEATH(segment.Write(16 * 1024 - 4, &v, sizeof(v)), "CHECK failed");
}

TEST(SegmentDeathTest, InstallPageWithUncommittedChangesAborts) {
  Segment segment(16 * 1024, 4096);
  segment.WriteValue<int64_t>(4096, 1);
  ftx::Bytes image(4096, 0x5a);
  EXPECT_DEATH(segment.InstallPage(4096, image), "CHECK failed");
}

TEST(SegmentDeathTest, AbortWithoutBeforeImagesAborts) {
  Segment segment(16 * 1024, 4096, /*keep_before_images=*/false);
  segment.WriteValue<int32_t>(0, 1);
  segment.Commit();
  segment.WriteValue<int32_t>(0, 2);
  EXPECT_DEATH(segment.Abort(), "keeps no before-images");
}

TEST(Segment, ResetToZeroWipesEverything) {
  Segment segment(16 * 1024);
  segment.WriteValue<int64_t>(0, 999);
  segment.Commit();
  segment.WriteValue<int64_t>(8, 111);
  segment.ResetToZero();
  EXPECT_EQ(segment.Read<int64_t>(0), 0);
  EXPECT_EQ(segment.Read<int64_t>(8), 0);
  EXPECT_EQ(segment.dirty_page_count(), 0u);
}

TEST(Segment, CorruptBitIsRolledBackByAbort) {
  // Vista's COW traps wild stores like any other: rollback cleans them.
  Segment segment(16 * 1024);
  segment.WriteValue<uint8_t>(50, 0xf0);
  segment.Commit();
  uint32_t committed = segment.Checksum();
  segment.CorruptBit(50, 3);
  EXPECT_NE(segment.Checksum(), committed);
  segment.Abort();
  EXPECT_EQ(segment.Checksum(), committed);
}

TEST(Segment, ChecksumDetectsAnyChange) {
  Segment segment(16 * 1024);
  uint32_t empty = segment.Checksum();
  segment.WriteValue<uint8_t>(12345, 1);
  EXPECT_NE(segment.Checksum(), empty);
}

// The extent-based undo path: a small store captures only its chunk, a
// later store escaping the chunk widens the image to the whole page, and
// abort restores every byte either way.
TEST(Segment, WriteEscapingCapturedExtentStillAbortsCleanly) {
  Segment segment(8 * 1024, 4096);
  for (int64_t i = 0; i < 4096; i += 8) {
    segment.WriteValue<uint64_t>(i, static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull);
  }
  segment.Commit();
  uint32_t committed = segment.Checksum();

  // First touch: extent around offset 0. Second store lands far outside the
  // extent (same page), forcing the widen. Third store goes through the
  // now-page-wide fast range.
  segment.WriteValue<uint64_t>(0, 0xdeadbeefull);
  segment.WriteValue<uint64_t>(2048, 0xfeedfaceull);
  segment.WriteValue<uint64_t>(2056, 0xabad1deaull);
  EXPECT_EQ(segment.dirty_page_count(), 1u);
  segment.Abort();
  EXPECT_EQ(segment.Checksum(), committed);
}

TEST(Segment, NeighboringStoresShareOneExtent) {
  Segment segment(8 * 1024, 4096);
  segment.WriteValue<uint64_t>(512, 1u);
  segment.Commit();
  uint32_t committed = segment.Checksum();

  // All inside one 256-byte chunk: a single captured extent covers them.
  for (int64_t i = 512; i < 768; i += 8) {
    segment.WriteValue<uint64_t>(i, static_cast<uint64_t>(i));
  }
  segment.Abort();
  EXPECT_EQ(segment.Checksum(), committed);
}

TEST(Segment, SilentStoreThenRealStoreOutsideFirstTouchRange) {
  Segment segment(8 * 1024, 4096);
  segment.WriteValue<uint64_t>(0, 7u);
  segment.WriteValue<uint64_t>(3000, 9u);
  segment.Commit();
  uint32_t committed = segment.Checksum();

  // Silent store: page goes dirty-pending, nothing materialized. The later
  // content-changing store at a different offset must capture its own
  // extent, and abort must restore both regions.
  segment.WriteValue<uint64_t>(0, 7u);     // same value — silent
  segment.WriteValue<uint64_t>(3000, 1u);  // real change
  segment.Abort();
  EXPECT_EQ(segment.Checksum(), committed);
  EXPECT_EQ(segment.Read<uint64_t>(0), 7u);
  EXPECT_EQ(segment.Read<uint64_t>(3000), 9u);
}

class SegmentProperty : public ::testing::TestWithParam<uint64_t> {};

// Property: any interleaving of writes/commits/aborts leaves the segment
// exactly at its last committed image.
TEST_P(SegmentProperty, AbortAlwaysRestoresLastCommittedImage) {
  ftx::Rng rng(GetParam());
  Segment segment(64 * 1024, 4096);
  uint32_t committed_checksum = segment.Checksum();

  for (int step = 0; step < 300; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.75) {
      int64_t offset = static_cast<int64_t>(rng.NextBounded(segment.size() - 8));
      segment.WriteValue<uint64_t>(offset, rng.NextU64());
    } else if (roll < 0.88) {
      segment.Commit();
      committed_checksum = segment.Checksum();
    } else {
      segment.Abort();
      EXPECT_EQ(segment.Checksum(), committed_checksum);
    }
  }
  segment.Abort();
  EXPECT_EQ(segment.Checksum(), committed_checksum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentProperty, ::testing::Range<uint64_t>(1, 13));

// Property: against a trivially-correct reference model (a pair of byte
// vectors plus page sets), random interleavings of every mutating operation
// keep the bitmap/lazy-materialization segment byte-identical in content,
// checksum, and dirty accounting. This is the harness that pins down the
// fast-path/silent-store/pooled-arena machinery: any divergence between the
// engineered barrier and the obvious semantics fails here. A segment without
// before-images cannot abort, so where the other aborts it commits or resets.
void CheckAgainstReferenceModel(uint64_t seed, bool keep_before_images) {
  constexpr size_t kPage = 4096;
  constexpr size_t kSize = 64 * 1024;
  constexpr size_t kPages = kSize / kPage;
  SCOPED_TRACE(keep_before_images ? "with before-images" : "without before-images");
  ftx::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  Segment segment(kSize, kPage, keep_before_images);
  std::vector<uint8_t> shadow(kSize, 0);     // current content
  std::vector<uint8_t> committed(kSize, 0);  // last committed content
  std::set<size_t> dirty;                    // pages touched since commit
  std::set<size_t> volatile_pages;

  auto touch = [&](size_t offset, size_t size) {
    for (size_t page = offset / kPage; page <= (offset + size - 1) / kPage; ++page) {
      dirty.insert(page);
    }
  };
  auto persisted = [&] {
    size_t n = 0;
    for (size_t page : dirty) {
      n += volatile_pages.count(page) == 0 ? 1 : 0;
    }
    return n;
  };

  for (int step = 0; step < 400; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.45) {
      // Plain write; half the time rewrite bytes already present (a silent
      // store — must still count the pages dirty).
      size_t size = 1 + rng.NextBounded(64);
      size_t offset = rng.NextBounded(kSize - size + 1);
      std::vector<uint8_t> src(size);
      if (rng.NextBernoulli(0.5)) {
        std::memcpy(src.data(), shadow.data() + offset, size);
      } else {
        for (auto& b : src) {
          b = static_cast<uint8_t>(rng.NextU64());
        }
      }
      segment.Write(static_cast<int64_t>(offset), src.data(), size);
      std::memcpy(shadow.data() + offset, src.data(), size);
      touch(offset, size);
    } else if (roll < 0.60) {
      // In-place mutation through the raw pointer.
      size_t size = 1 + rng.NextBounded(32);
      size_t offset = rng.NextBounded(kSize - size + 1);
      uint8_t* p = segment.OpenForWrite(static_cast<int64_t>(offset), size);
      for (size_t i = 0; i < size; ++i) {
        p[i] = shadow[offset + i] = static_cast<uint8_t>(rng.NextU64() >> 32);
      }
      touch(offset, size);
    } else if (roll < 0.65) {
      size_t page = rng.NextBounded(kPages);
      segment.MarkVolatile(static_cast<int64_t>(page * kPage), kPage);
      volatile_pages.insert(page);
    } else if (roll < 0.80) {
      segment.Commit();
      committed = shadow;
      dirty.clear();
    } else if (roll < 0.95) {
      if (keep_before_images) {
        segment.Abort();
        shadow = committed;
      } else if (rng.NextBernoulli(0.5)) {
        segment.Commit();
        committed = shadow;
      } else {
        segment.ResetToZero();
        std::fill(shadow.begin(), shadow.end(), 0);
        committed = shadow;
      }
      dirty.clear();
    } else {
      segment.ResetToZero();
      std::fill(shadow.begin(), shadow.end(), 0);
      committed = shadow;
      dirty.clear();
    }

    ASSERT_EQ(segment.dirty_page_count(), dirty.size()) << "step " << step;
    ASSERT_EQ(segment.persisted_dirty_page_count(), persisted()) << "step " << step;
    ASSERT_EQ(segment.undo_bytes(), static_cast<int64_t>(dirty.size() * kPage));
    ASSERT_EQ(segment.HasUncommittedChanges(), !dirty.empty());
    if (step % 20 == 0) {
      ASSERT_EQ(std::memcmp(segment.data(), shadow.data(), kSize), 0) << "step " << step;
      ASSERT_EQ(segment.Checksum(), ftx::Crc32(shadow.data(), kSize));
      // Range checksum agrees with a straight CRC of the model bytes.
      size_t size = 1 + rng.NextBounded(3 * kPage);
      size_t offset = rng.NextBounded(kSize - size + 1);
      ASSERT_EQ(segment.Checksum(static_cast<int64_t>(offset), size),
                ftx::Crc32(shadow.data() + offset, size));
    }
  }
  ASSERT_EQ(std::memcmp(segment.data(), shadow.data(), kSize), 0);
}

TEST_P(SegmentProperty, MatchesReferenceModelUnderRandomInterleavings) {
  ASSERT_NO_FATAL_FAILURE(CheckAgainstReferenceModel(GetParam(), /*keep_before_images=*/true));
  ASSERT_NO_FATAL_FAILURE(CheckAgainstReferenceModel(GetParam(), /*keep_before_images=*/false));
}

// --- SegmentHeap ---

class HeapTest : public ::testing::Test {
 protected:
  HeapTest() : segment_(256 * 1024), heap_(&segment_, 4096, 128 * 1024) { heap_.Format(); }
  Segment segment_;
  SegmentHeap heap_;
};

TEST_F(HeapTest, AllocReturnsUsableOffsets) {
  auto a = heap_.Alloc(100);
  auto b = heap_.Alloc(200);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  segment_.WriteValue<int64_t>(*a, 1);
  segment_.WriteValue<int64_t>(*b, 2);
  EXPECT_EQ(segment_.Read<int64_t>(*a), 1);
  EXPECT_TRUE(heap_.CheckGuards().ok());
}

TEST_F(HeapTest, FreeAndReuse) {
  auto a = heap_.Alloc(1000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap_.Free(*a).ok());
  auto b = heap_.Alloc(1000);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);  // first-fit reuses the freed block
}

TEST_F(HeapTest, DoubleFreeRejected) {
  auto a = heap_.Alloc(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap_.Free(*a).ok());
  EXPECT_FALSE(heap_.Free(*a).ok());
}

TEST_F(HeapTest, FreeOfWildPointerRejected) {
  EXPECT_FALSE(heap_.Free(1).ok());
  EXPECT_FALSE(heap_.Free(4096 + 123457).ok());
}

TEST_F(HeapTest, ExhaustionReportsResourceExhausted) {
  auto big = heap_.Alloc(200 * 1024);  // larger than the arena
  EXPECT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), ftx::StatusCode::kResourceExhausted);
}

TEST_F(HeapTest, CoalescingRecoversFragmentedSpace) {
  std::vector<int64_t> blocks;
  for (int i = 0; i < 8; ++i) {
    auto block = heap_.Alloc(8 * 1024);
    ASSERT_TRUE(block.ok());
    blocks.push_back(*block);
  }
  for (int64_t block : blocks) {
    ASSERT_TRUE(heap_.Free(block).ok());
  }
  // After freeing everything, one large allocation must fit again.
  auto big = heap_.Alloc(100 * 1024);
  EXPECT_TRUE(big.ok());
}

TEST_F(HeapTest, GuardsDetectOverrun) {
  auto a = heap_.Alloc(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap_.CheckGuards().ok());
  // Write one byte past the payload: into the tail guard.
  segment_.WriteValue<uint8_t>(*a + 64, 0x00);
  ftx::Status status = heap_.CheckGuards();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ftx::StatusCode::kDataLoss);
}

TEST_F(HeapTest, GuardsDetectHeaderCorruption) {
  auto a = heap_.Alloc(64);
  ASSERT_TRUE(a.ok());
  segment_.WriteValue<uint64_t>(*a - 16, 0xdeadbeef);  // smash the magic
  EXPECT_FALSE(heap_.CheckGuards().ok());
}

TEST_F(HeapTest, LiveBlocksEnumeratesAllocations) {
  auto a = heap_.Alloc(100);
  auto b = heap_.Alloc(200);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto blocks = heap_.LiveBlocks();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].first, *a);
  EXPECT_GE(blocks[0].second, 100);
  EXPECT_EQ(blocks[1].first, *b);
  ASSERT_TRUE(heap_.Free(*a).ok());
  EXPECT_EQ(heap_.LiveBlocks().size(), 1u);
}

class HeapProperty : public ::testing::TestWithParam<uint64_t> {};

// Property: random alloc/free churn never corrupts heap metadata, payload
// writes never smash guards, and all live payloads retain their contents.
TEST_P(HeapProperty, RandomChurnKeepsInvariants) {
  ftx::Rng rng(GetParam());
  Segment segment(512 * 1024);
  SegmentHeap heap(&segment, 0, 256 * 1024);
  heap.Format();

  std::map<int64_t, std::pair<int64_t, uint8_t>> live;  // offset -> (size, fill)
  for (int step = 0; step < 400; ++step) {
    if (live.size() < 20 && rng.NextBernoulli(0.6)) {
      int64_t size = static_cast<int64_t>(8 + rng.NextBounded(2000));
      auto block = heap.Alloc(size);
      if (block.ok()) {
        auto fill = static_cast<uint8_t>(1 + rng.NextBounded(255));
        uint8_t* p = segment.OpenForWrite(*block, static_cast<size_t>(size));
        std::fill(p, p + size, fill);
        live[*block] = {size, fill};
      }
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<int64_t>(rng.NextBounded(live.size())));
      ASSERT_TRUE(heap.Free(it->first).ok());
      live.erase(it);
    }
    ASSERT_TRUE(heap.CheckGuards().ok()) << "step " << step;
  }
  // All surviving payloads intact.
  for (const auto& [offset, info] : live) {
    for (int64_t i = 0; i < info.first; i += 97) {
      EXPECT_EQ(segment.Read<uint8_t>(offset + i), info.second);
    }
  }
  EXPECT_EQ(heap.LiveBlocks().size(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapProperty, ::testing::Range<uint64_t>(1, 13));

}  // namespace
