// Before-image (undo) log, the heart of the Vista transaction library.
//
// When a transaction first dirties a region, Vista logs the region's
// before-image. Commit discards the log atomically; abort (or crash
// recovery) applies the before-images in reverse order, restoring the
// segment to its last committed state.
//
// Vista's 5 µs transactions come from never allocating on the logging path,
// and this log is engineered to the same standard:
//
//   * before-images land in a pooled arena of slot-sized buffers recycled
//     across commit epochs — Discard / ApplyReverseInto return every slot
//     to the free list instead of freeing it;
//   * records are trivially destructible POD (asserted below), so clearing
//     the record vector is a pointer reset, not a destructor walk;
//   * a record may cover just an *extent* of its slot-aligned window rather
//     than the whole slot. Extent images live at their window-relative
//     offset inside the slot (mirror layout), which lets WidenToWindow
//     grow a partial image to the full window in place — no second slot,
//     no moving bytes already captured;
//   * every region lies within one window: the page barrier clips each
//     before-image to its page, and RecordBeforeImage aborts on a region
//     that is empty or straddles a window boundary.
//
// Abort cost is therefore proportional to the bytes actually captured, not
// to slot_size × pages touched: a transaction that pokes 8 bytes into each
// of N pages logs N small extents and aborts by copying those extents back.

#ifndef FTX_SRC_STORAGE_UNDO_LOG_H_
#define FTX_SRC_STORAGE_UNDO_LOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace ftx_store {

struct UndoRecord {
  int64_t offset = 0;
  int64_t size = 0;
  // Index into the log's slot arena (image bytes at the record's
  // window-relative offset).
  int32_t slot = -1;
};
// The abort path clears thousands of these per epoch; keeping them POD makes
// records_.clear() free and the vector growth a memmove.
static_assert(std::is_trivially_destructible_v<UndoRecord>);
static_assert(std::is_trivially_copyable_v<UndoRecord>);

class UndoLog {
 public:
  // `slot_size` is the arena's buffer size and the alignment of slot
  // windows — the owning segment's page size.
  explicit UndoLog(size_t slot_size = 4096);

  // Logs the previous contents of [offset, offset+size) (copied from
  // `data`), a non-empty region within one slot-aligned window. Returns the
  // record's index, stable until the next Discard / ApplyReverseInto, for
  // use with WidenToWindow.
  int32_t RecordBeforeImage(int64_t offset, const uint8_t* data, size_t size);

  // Grows record `index` (a pooled, partial record) to cover its whole
  // slot-aligned window. `window` must point at the window's *current*
  // bytes; everything outside the already-recorded extent is by contract
  // still the committed image (the write barrier logs before mutating), so
  // copying it in completes the before-image. No-op when already whole.
  void WidenToWindow(int32_t index, const uint8_t* window);

  // Applies all before-images in reverse order into the buffer at `base`
  // (which must span at least the logged offsets), then clears the log.
  void ApplyReverseInto(uint8_t* base, size_t base_size);

  // Commit: atomically forget all undo records (slots return to the pool).
  void Discard();

  bool empty() const { return records_.empty(); }
  size_t record_count() const { return records_.size(); }
  int64_t byte_size() const { return byte_size_; }

  const std::vector<UndoRecord>& records() const { return records_; }

  // Before-image bytes of a record.
  const uint8_t* RecordData(const UndoRecord& record) const {
    return slots_[record.slot].get() + record.offset % static_cast<int64_t>(slot_size_);
  }

  // Pool instrumentation: total slots ever allocated. Steady state (same
  // pages re-dirtied epoch after epoch) allocates nothing, so this plateaus
  // at the high-water page count of a single epoch.
  size_t allocated_slots() const { return slots_.size(); }
  size_t free_slots() const { return free_slots_.size(); }

 private:
  size_t slot_size_;
  std::vector<UndoRecord> records_;
  int64_t byte_size_ = 0;
  // Arena of slot_size_-byte buffers; free_slots_ indexes the reusable ones.
  std::vector<std::unique_ptr<uint8_t[]>> slots_;
  std::vector<int32_t> free_slots_;
};

}  // namespace ftx_store

#endif  // FTX_SRC_STORAGE_UNDO_LOG_H_
