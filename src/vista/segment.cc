#include "src/vista/segment.h"

#include <cstring>

#include "src/common/crc32.h"
#include "src/obs/prof/prof.h"

namespace ftx_vista {

Segment::Segment(size_t size, size_t page_size, bool keep_before_images)
    : page_size_(page_size), keep_before_images_(keep_before_images), undo_(page_size) {
  FTX_CHECK_GT(size, 0u);
  FTX_CHECK_GT(page_size, 0u);
  // Round the segment up to whole pages.
  num_pages_ = (size + page_size - 1) / page_size;
  data_.assign(num_pages_ * page_size, 0);
  size_t words = (num_pages_ + 63) / 64;
  dirty_bits_.assign(words, 0);
  pending_bits_.assign(words, 0);
  volatile_bits_.assign(words, 0);
  undo_index_.assign(num_pages_, -1);
}

void Segment::ReadRaw(int64_t offset, void* dst, size_t size) const {
  FTX_CHECK_GE(offset, 0);
  FTX_CHECK_LE(static_cast<size_t>(offset) + size, data_.size());
  std::memcpy(dst, data_.data() + offset, size);
}

void Segment::MarkDirtyPending(int64_t page) {
  uint64_t& word = dirty_bits_[page >> 6];
  uint64_t bit = 1ull << (page & 63);
  if ((word & bit) != 0) {
    return;
  }
  // First touch since the last commit — what Vista's copy-on-write trap
  // catches. The before-image stays pending (the page still holds committed
  // content) until a write actually changes its bytes.
  word |= bit;
  pending_bits_[page >> 6] |= bit;
  dirty_order_.push_back(page);
  if (!TestBit(volatile_bits_, page)) {
    ++persisted_dirty_;
  }
}

void Segment::MaterializeBeforeImage(int64_t page, int64_t begin, int64_t end) {
  uint64_t& word = pending_bits_[page >> 6];
  uint64_t bit = 1ull << (page & 63);
  const int64_t page_begin = page * static_cast<int64_t>(page_size_);
  const int64_t page_end = page_begin + static_cast<int64_t>(page_size_);
  if ((word & bit) == 0) {
    // Already materialized this epoch. A whole-page image covers any write;
    // a partial extent covers writes inside it. A write escaping the extent
    // widens the image to the whole page — everything outside the extent
    // still holds committed bytes (only barrier-covered stores mutate, and
    // they all landed inside it), so the live page completes the image.
    const int32_t index = undo_index_[page];
    if (index < 0) {
      return;
    }
    const ftx_store::UndoRecord& record = undo_.records()[index];
    if (record.size == static_cast<int64_t>(page_size_) ||
        (begin >= record.offset && end <= record.offset + record.size)) {
      return;
    }
    undo_.WidenToWindow(index, data_.data() + page_begin);
    return;
  }
  word &= ~bit;
  // Capture the touched bytes of this page, rounded out to chunk boundaries.
  int64_t lo = begin > page_begin ? begin : page_begin;
  int64_t hi = end < page_end ? end : page_end;
  lo = page_begin + (lo - page_begin) / kExtentChunk * kExtentChunk;
  hi = page_begin + (hi - page_begin + kExtentChunk - 1) / kExtentChunk * kExtentChunk;
  if (hi > page_end) {
    hi = page_end;
  }
  undo_index_[page] =
      undo_.RecordBeforeImage(lo, data_.data() + lo, static_cast<size_t>(hi - lo));
}

void Segment::UpdateFastRange(int64_t page) {
  if (!keep_before_images_) {
    fast_begin_ = page * static_cast<int64_t>(page_size_);
    fast_end_ = fast_begin_ + static_cast<int64_t>(page_size_);
    return;
  }
  if (TestBit(pending_bits_, page)) {
    // A pending page cannot be written through the fast path (the barrier
    // must see the first content-changing store), so leave it empty.
    fast_begin_ = 0;
    fast_end_ = 0;
    return;
  }
  const int32_t index = undo_index_[page];
  if (index < 0) {
    fast_begin_ = 0;
    fast_end_ = 0;
    return;
  }
  // The fast range is exactly the materialized extent: stores inside it are
  // covered by undo, stores outside must come back through the barrier so
  // the image can widen.
  const ftx_store::UndoRecord& record = undo_.records()[index];
  fast_begin_ = record.offset;
  fast_end_ = record.offset + record.size;
}

void Segment::WriteSlow(int64_t offset, const void* src, size_t size) {
  FTX_PROF_SCOPE("barrier.first_touch");
  FTX_CHECK_GE(offset, 0);
  FTX_CHECK_LE(static_cast<size_t>(offset) + size, data_.size());
  if (size == 0) {
    return;
  }
  int64_t first = offset / static_cast<int64_t>(page_size_);
  int64_t last = (offset + static_cast<int64_t>(size) - 1) / static_cast<int64_t>(page_size_);
  for (int64_t page = first; page <= last; ++page) {
    MarkDirtyPending(page);
  }
  if (keep_before_images_) {
    if (std::memcmp(data_.data() + offset, src, size) == 0) {
      // Silent store: the bytes are already there. The pages count as dirty
      // (the COW trap fired) but no before-image copy and no store happen.
      UpdateFastRange(last);
      return;
    }
    for (int64_t page = first; page <= last; ++page) {
      MaterializeBeforeImage(page, offset, offset + static_cast<int64_t>(size));
    }
  }
  std::memcpy(data_.data() + offset, src, size);
  UpdateFastRange(last);
}

uint8_t* Segment::OpenForWriteSlow(int64_t offset, size_t size) {
  FTX_PROF_SCOPE("barrier.first_touch");
  FTX_CHECK_GE(offset, 0);
  FTX_CHECK_LE(static_cast<size_t>(offset) + size, data_.size());
  if (size > 0) {
    int64_t first = offset / static_cast<int64_t>(page_size_);
    int64_t last = (offset + static_cast<int64_t>(size) - 1) / static_cast<int64_t>(page_size_);
    for (int64_t page = first; page <= last; ++page) {
      // The caller mutates through a raw pointer the barrier cannot watch:
      // materialize eagerly.
      MarkDirtyPending(page);
      if (keep_before_images_) {
        MaterializeBeforeImage(page, offset, offset + static_cast<int64_t>(size));
      }
    }
    UpdateFastRange(last);
  }
  return data_.data() + offset;
}

void Segment::ClearDirtyTracking() {
  for (int64_t page : dirty_order_) {
    dirty_bits_[page >> 6] &= ~(1ull << (page & 63));
    pending_bits_[page >> 6] &= ~(1ull << (page & 63));
    undo_index_[page] = -1;
  }
  dirty_order_.clear();
  persisted_dirty_ = 0;
  fast_begin_ = 0;
  fast_end_ = 0;
}

void Segment::Commit() {
  undo_.Discard();
  ClearDirtyTracking();
}

void Segment::Abort() {
  FTX_CHECK_MSG(keep_before_images_, "Segment::Abort: this segment keeps no before-images");
  // Pages still pending were never modified; the undo log holds exactly the
  // pages that changed.
  undo_.ApplyReverseInto(data_.data(), data_.size());
  ClearDirtyTracking();
}

void Segment::ResetToZero() {
  std::memset(data_.data(), 0, data_.size());
  undo_.Discard();
  ClearDirtyTracking();
}

void Segment::MarkVolatile(int64_t offset, int64_t size) {
  FTX_CHECK_GE(offset, 0);
  FTX_CHECK_GT(size, 0);
  FTX_CHECK_LE(static_cast<size_t>(offset + size), data_.size());
  int64_t first = offset / static_cast<int64_t>(page_size_);
  int64_t last = (offset + size - 1) / static_cast<int64_t>(page_size_);
  for (int64_t page = first; page <= last; ++page) {
    uint64_t& word = volatile_bits_[page >> 6];
    uint64_t bit = 1ull << (page & 63);
    if ((word & bit) != 0) {
      continue;
    }
    word |= bit;
    // An already-dirty page leaving the persisted set keeps the count exact.
    if ((dirty_bits_[page >> 6] & bit) != 0) {
      --persisted_dirty_;
    }
  }
}

void Segment::ZeroVolatileRanges() {
  for (size_t word = 0; word < volatile_bits_.size(); ++word) {
    uint64_t bits = volatile_bits_[word];
    while (bits != 0) {
      int64_t page = static_cast<int64_t>(word * 64) + std::countr_zero(bits);
      bits &= bits - 1;
      std::memset(data_.data() + page * static_cast<int64_t>(page_size_), 0, page_size_);
    }
  }
}

void Segment::InstallPage(int64_t offset, const uint8_t* image, size_t size) {
  // Installing a page behind the barrier while a transaction holds dirty
  // tracking would leave stale undo images and a stale fast range; recovery
  // always runs with tracking clear.
  FTX_CHECK(!HasUncommittedChanges());
  FTX_CHECK_EQ(size, page_size_);
  FTX_CHECK_EQ(offset % static_cast<int64_t>(page_size_), 0);
  FTX_CHECK_LE(static_cast<size_t>(offset) + size, data_.size());
  std::memcpy(data_.data() + offset, image, size);
}

uint32_t Segment::Checksum(int64_t offset, size_t size) const {
  FTX_CHECK_GE(offset, 0);
  FTX_CHECK_LE(static_cast<size_t>(offset) + size, data_.size());
  uint32_t crc = 0;
  size_t cursor = static_cast<size_t>(offset);
  size_t end = cursor + size;
  while (cursor < end) {
    size_t chunk = end - cursor < page_size_ ? end - cursor : page_size_;
    crc = ftx::Crc32Extend(crc, data_.data() + cursor, chunk);
    cursor += chunk;
  }
  return crc;
}

void Segment::CorruptBit(int64_t offset, int bit) {
  FTX_CHECK_GE(offset, 0);
  FTX_CHECK_LT(static_cast<size_t>(offset), data_.size());
  FTX_CHECK(bit >= 0 && bit < 8);
  uint8_t* p = OpenForWrite(offset, 1);
  *p ^= static_cast<uint8_t>(1u << bit);
}

}  // namespace ftx_vista
