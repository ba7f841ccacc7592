// Vista-style persistent segment.
//
// Vista maps a process's state into a persistent memory segment and traps
// updates with copy-on-write, logging before-images of updated regions to an
// undo log; commit atomically discards the log and resets page protections
// (§3). This class reproduces that design with explicit write barriers
// standing in for hardware page protection: every store goes through
// Write/WriteValue/OpenForWrite, which logs the before-image of each page on
// its first touch since the last commit.
//
// The barrier is the hottest real-CPU path in the reproduction, so it is
// engineered in the spirit of Vista's own allocation-free 5 µs transactions:
//
//   * dirty and volatile page sets are bitmaps (one bit per page), with an
//     append-order dirty-index vector so commit clears exactly the bits it
//     set — no tree operations anywhere on the path;
//   * a cached writable range (the last touched, materialized page) makes
//     the common same-page store a bounds check, two compares, and the
//     store itself;
//   * before-images are *lazy*: first touch only marks the page
//     dirty-pending. The physical copy into a pooled undo slot happens the
//     first time a write actually changes the page's bytes — a store of a
//     value already present (a silent store) never pays the copy.
//     OpenForWrite hands out a raw pointer, so it materializes eagerly;
//   * before-images are *extents*, not whole pages: the first
//     content-changing touch captures only the touched range, rounded out
//     to 256-byte chunks, and the fast range narrows to that extent. A
//     later write escaping the extent widens the image to the whole page in
//     place (at most one widen per page per epoch). A transaction that
//     pokes a few bytes per page logs and aborts kilobytes, not
//     page-size × pages.
//
// Dirty-page counts, persisted counts, and undo_bytes() are identical to an
// eager implementation — the simulated cost models charge logical pages
// touched, never host work — so laziness changes host CPU time only.
//
// Abort (or crash recovery with the segment in reliable memory) replays the
// undo log in reverse, restoring the last committed state exactly; pages
// whose before-image was never materialized were never modified, so they
// already hold committed content.
//
// Only recovery without a redo log (Rio, or a process failure over the
// volatile store) rolls a segment back; DC-disk recovery rebuilds it from
// the redo log, so a DC-disk runtime builds its segment with
// keep_before_images = false. Such a segment still marks every first-touched
// page dirty (counts, undo_bytes() and every simulated cost are unchanged),
// but its barrier copies nothing: no silent-store compare, no undo record,
// and the fast range is the whole touched page. Calling Abort() on it fails
// a check.

#ifndef FTX_SRC_VISTA_SEGMENT_H_
#define FTX_SRC_VISTA_SEGMENT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/storage/undo_log.h"

namespace ftx_vista {

class Segment {
 public:
  static constexpr size_t kDefaultPageSize = 4096;

  // `keep_before_images` = false drops the undo log (see above): for
  // segments whose recovery never calls Abort().
  explicit Segment(size_t size, size_t page_size = kDefaultPageSize,
                   bool keep_before_images = true);

  size_t size() const { return data_.size(); }
  size_t page_size() const { return page_size_; }

  // --- reads (no barrier needed) ---
  const uint8_t* data() const { return data_.data(); }

  template <typename T>
  T Read(int64_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    ReadRaw(offset, &value, sizeof(T));
    return value;
  }
  void ReadRaw(int64_t offset, void* dst, size_t size) const;

  // --- writes (barriered) ---

  // Copies `size` bytes from src into the segment, logging before-images of
  // any pages touched for the first time since the last commit.
  void Write(int64_t offset, const void* src, size_t size) {
    // Wrap-free containment test: rel bounds the start (offset < fast_begin_
    // wraps huge and fails — naively adding size instead would wrap back
    // into range for starts just below it), then range - rel can't
    // underflow. Passing implies the write sits wholly inside the fast
    // range, which is always a valid, already-materialized page — so the
    // fast path needs no separate bounds check. Everything else, including
    // out-of-bounds arguments, takes the slow path, which checks.
    const uint64_t rel = static_cast<uint64_t>(offset - fast_begin_);
    const uint64_t range = static_cast<uint64_t>(fast_end_ - fast_begin_);
    if (rel <= range && size <= range - rel) {
      std::memcpy(data_.data() + offset, src, size);
      return;
    }
    WriteSlow(offset, src, size);
  }

  template <typename T>
  void WriteValue(int64_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(offset, &value, sizeof(T));
  }

  // Marks [offset, offset+size) writable (logging before-images) and returns
  // a raw pointer for in-place mutation. The pointer is valid until the next
  // call that resizes nothing — the segment never reallocates.
  uint8_t* OpenForWrite(int64_t offset, size_t size) {
    const uint64_t rel = static_cast<uint64_t>(offset - fast_begin_);
    const uint64_t range = static_cast<uint64_t>(fast_end_ - fast_begin_);
    if (rel <= range && size <= range - rel) {
      return data_.data() + offset;
    }
    return OpenForWriteSlow(offset, size);
  }

  // --- transaction boundary ---

  // Atomically discards the undo log; the current contents become the
  // committed state.
  void Commit();

  // Restores the last committed state from the undo log. Aborts the
  // program on a segment without before-images.
  void Abort();

  // Wipes the segment to zeros and clears the undo log / dirty set. Used by
  // DC-disk recovery before replaying the redo chain (the volatile segment
  // did not survive the failure).
  void ResetToZero();

  // --- partial-state commit (the paper's §6 future-work direction) ---

  // Declares [offset, offset+size) *recomputable*: its pages are excluded
  // from what commits persist ("reducing the comprehensiveness of the state
  // saved"). After recovery the range reads as zeros and the application
  // rebuilds it (App::OnRecovered). Corruption confined to a volatile range
  // is therefore never captured by a commit — §2.6's observation that
  // recomputing unsaved state can avoid retriggering the bug.
  void MarkVolatile(int64_t offset, int64_t size);

  // Pages currently dirty that a commit must persist (volatile excluded).
  size_t persisted_dirty_page_count() const { return persisted_dirty_; }

  // Zero-fills every volatile range (recovery's post-rollback step).
  void ZeroVolatileRanges();

  bool IsPageVolatile(int64_t page) const {
    return page >= 0 && static_cast<size_t>(page) < num_pages_ &&
           ((volatile_bits_[page >> 6] >> (page & 63)) & 1) != 0;
  }

  // --- instrumentation for commit cost models & fault injection ---

  size_t dirty_page_count() const { return dirty_order_.size(); }
  // Undo bytes a commit retires: one whole-page before-image per dirty page
  // (the model quantity — independent of whether the lazy copy happened).
  int64_t undo_bytes() const {
    return static_cast<int64_t>(dirty_order_.size()) * static_cast<int64_t>(page_size_);
  }
  bool HasUncommittedChanges() const { return !dirty_order_.empty(); }

  // Zero-copy commit path: invokes visitor(offset, page_data, page_size)
  // for every dirty non-volatile page, in ascending segment order, reading
  // straight from the live segment. This is what redo-record serialization
  // consumes; nothing is copied until the record itself is built.
  template <typename Visitor>
  void ForEachPersistedDirtyPage(Visitor&& visitor) const {
    for (size_t word = 0; word < dirty_bits_.size(); ++word) {
      uint64_t bits = dirty_bits_[word] & ~volatile_bits_[word];
      while (bits != 0) {
        int64_t page = static_cast<int64_t>(word * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        visitor(page * static_cast<int64_t>(page_size_),
                data_.data() + page * static_cast<int64_t>(page_size_), page_size_);
      }
    }
  }

  // Overwrites a page image directly (used when applying a redo record
  // during DC-disk recovery). Does not log undo.
  void InstallPage(int64_t offset, const uint8_t* image, size_t size);
  void InstallPage(int64_t offset, const ftx::Bytes& image) {
    InstallPage(offset, image.data(), image.size());
  }

  // CRC of the full segment (consistency checks / test equality), computed
  // page-chunk-at-a-time with the incremental CRC.
  uint32_t Checksum() const { return Checksum(0, data_.size()); }

  // CRC of [offset, offset+size): lets guard/consistency checks hash just
  // the structure they care about instead of the whole segment.
  uint32_t Checksum(int64_t offset, size_t size) const;

  // Fault injection: flips a bit. The flip goes through the write barrier,
  // because real Vista's copy-on-write traps wild stores exactly like
  // intended ones — which is why rollback alone cleans corruption, and why
  // recovery only fails when a commit lands after the corruption (Lose-work)
  // or reexecution deterministically regenerates it.
  void CorruptBit(int64_t offset, int bit);

 private:
  // Before-image extents round out to this granularity: big enough that a
  // run of small neighboring stores coalesces into one capture, small
  // enough that a single poked word doesn't log a whole page.
  static constexpr int64_t kExtentChunk = 256;

  void WriteSlow(int64_t offset, const void* src, size_t size);
  uint8_t* OpenForWriteSlow(int64_t offset, size_t size);
  void MarkDirtyPending(int64_t page);
  // Ensures the undo log covers the about-to-change bytes [begin, end) of
  // `page` (clipped to the page): captures a chunk-rounded extent on the
  // first content-changing touch, widens to the whole page when a later
  // write escapes the captured extent.
  void MaterializeBeforeImage(int64_t page, int64_t begin, int64_t end);
  // Caches `page`'s writable range: its materialized extent, or the whole
  // page without before-images.
  void UpdateFastRange(int64_t page);
  void ClearDirtyTracking();

  bool TestBit(const std::vector<uint64_t>& bits, int64_t page) const {
    return ((bits[page >> 6] >> (page & 63)) & 1) != 0;
  }

  size_t page_size_;
  bool keep_before_images_;
  size_t num_pages_ = 0;
  ftx::Bytes data_;
  // One bit per page. dirty: touched since last commit. pending: dirty but
  // the before-image copy has not been materialized (content still equals
  // the committed image). volatile: excluded from commits (recomputable).
  std::vector<uint64_t> dirty_bits_;
  std::vector<uint64_t> pending_bits_;
  std::vector<uint64_t> volatile_bits_;
  std::vector<int64_t> dirty_order_;  // dirty pages in first-touch order
  // Per page: index of its undo record this epoch (-1 none). Lets the
  // barrier find and widen a page's partial before-image in O(1).
  std::vector<int32_t> undo_index_;
  size_t persisted_dirty_ = 0;
  // [fast_begin_, fast_end_): the last touched page's materialized extent
  // (the whole page without before-images) — writes inside it are already
  // covered by undo, so they need no bookkeeping at all. Empty (0,0) when
  // invalid.
  int64_t fast_begin_ = 0;
  int64_t fast_end_ = 0;
  ftx_store::UndoLog undo_;
};

}  // namespace ftx_vista

#endif  // FTX_SRC_VISTA_SEGMENT_H_
