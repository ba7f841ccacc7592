// Redo log for DC-disk.
//
// DC-disk writes a redo record at each checkpoint: the dirty pages, plus an
// opaque metadata blob (register file and kernel-capture point). This class
// stores the record chain; recovery rebuilds a process's segment by
// replaying every record in order. I/O *latency* is charged separately by
// the DiskStore policy (see stable_store.h), which models the synchronous
// writes these appends imply.
//
// Page images are serialized directly into one flat per-record buffer
// ([offset][size][bytes]... runs) as the segment's dirty-page visitor hands
// them over — the single copy is the one the persist itself requires; there
// is no intermediate vector of per-page heap buffers. Each record carries a
// CRC (slice-by-8) over its page payload that recovery validates before
// installing pages.

#ifndef FTX_SRC_STORAGE_REDO_LOG_H_
#define FTX_SRC_STORAGE_REDO_LOG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/obs/metrics.h"

namespace ftx_store {

struct RedoRecord {
  int64_t sequence = 0;
  // Serialized dirty pages: page_count runs of
  // [int64 offset][int64 size][size bytes], in segment order.
  ftx::Bytes pages_payload;
  int64_t page_count = 0;
  int64_t page_bytes = 0;  // sum of image sizes (excludes framing)
  uint32_t pages_crc = 0;  // running CRC over pages_payload
  // Opaque metadata blob (register file + kernel capture point).
  ftx::Bytes metadata;

  // Pre-sizes the payload buffer for `pages` images of `image_size` bytes.
  void ReservePages(int64_t pages, size_t image_size);

  // Serializes one page image straight from the source buffer (typically
  // the live segment) and extends the payload CRC.
  void AppendPage(int64_t offset, const uint8_t* data, size_t size);

  // Decodes the payload, invoking visitor(offset, data, size) per page.
  // Returns false (possibly mid-iteration) on a malformed payload.
  template <typename Visitor>
  bool ForEachPage(Visitor&& visitor) const {
    size_t cursor = 0;
    for (int64_t i = 0; i < page_count; ++i) {
      int64_t offset = 0;
      int64_t size = 0;
      // Framing before use: compare the claimed size against the bytes that
      // actually remain (cursor <= payload size here, so the subtraction is
      // safe). The additive form `cursor + size > payload size` wraps for a
      // huge claimed size and would over-read a truncated tail.
      if (!ftx::ReadValue(pages_payload, &cursor, &offset) ||
          !ftx::ReadValue(pages_payload, &cursor, &size) || size < 0 ||
          static_cast<uint64_t>(size) > pages_payload.size() - cursor) {
        return false;
      }
      visitor(offset, pages_payload.data() + cursor, static_cast<size_t>(size));
      cursor += static_cast<size_t>(size);
    }
    return cursor == pages_payload.size();
  }

  // Recomputes the payload CRC and compares against pages_crc.
  bool ValidatePages() const {
    return ftx::Crc32(pages_payload.data(), pages_payload.size()) == pages_crc;
  }

  // Billable payload: page images + one int64 offset of framing per page +
  // metadata. (The cost model charges logical content, not host encoding.)
  int64_t PayloadBytes() const;
};

class WriteJournal;

class RedoLog {
 public:
  // Appends a record; returns its payload size in bytes (for I/O charging).
  // Equivalent to AppendBatch of a single record: one sync window.
  int64_t Append(RedoRecord record);

  // Group commit: appends a whole window of records under ONE pair of sync
  // barriers — all record bodies land contiguously, one barrier, then one
  // commit slot vouching for the entire window (it carries the last
  // record's sequence; SelectCommitSlot's [log_start, log_end) spans every
  // record in the window), one barrier. Slot parity alternates per
  // *window*, not per record, so the slot never overwrites the sector that
  // vouches for the previous window. With singleton windows this emits
  // exactly the same journal ops as Append — window count equals sequence
  // — which is what keeps unbatched runs byte-identical to the goldens.
  // Returns the summed payload bytes (for I/O charging).
  int64_t AppendBatch(std::vector<RedoRecord> batch);

  // Full record history (recovery replays every record in order).
  const std::vector<RedoRecord>& records() const { return records_; }
  const RedoRecord* Latest() const { return records_.empty() ? nullptr : &records_.back(); }

  // Truncation: drops records at or before `sequence`. The paper's DC-disk
  // skipped truncation; the library supports it so long runs stay bounded
  // once a full-state checkpoint record supersedes the prefix.
  void TruncateThrough(int64_t sequence);

  // Attaches a sector-granular write journal (owned by the machine's
  // DiskModel): every Append then emits the commit's two synchronous I/Os as
  // journal ops — record sectors + barrier, commit-slot sector + barrier —
  // and TruncateThrough emits the slot rewrite that retires the prefix. The
  // crash-state exploration engine replays these ops to build survivor
  // images (see src/storage/log_image.h). nullptr detaches.
  void AttachJournal(WriteJournal* journal);

  // Replaces the in-memory record chain with what survived on disk — the
  // records a SurvivorLog decoded from a crash-state image — so a fresh
  // computation's Recover() sees exactly the survivor state. Sequences must
  // be contiguous; next_sequence resumes after the last survivor.
  void RestoreForRecovery(std::vector<RedoRecord> records);

  int64_t bytes_written() const { return bytes_written_; }
  int64_t next_sequence() const { return next_sequence_; }

  // Exposes log counters through a metrics registry under
  // "<prefix>redo.records" and "<prefix>redo.bytes_written" (prefix is
  // typically "p<pid>." since each process owns one log).
  void BindMetrics(ftx_obs::Registry* registry, const std::string& prefix) {
    registry->RegisterCounterProbe(prefix + "redo.records",
                                   [this]() { return next_sequence_; });
    registry->RegisterCounterProbe(prefix + "redo.bytes_written",
                                   [this]() { return bytes_written_; });
  }

 private:
  std::vector<RedoRecord> records_;
  int64_t bytes_written_ = 0;
  int64_t next_sequence_ = 0;
  // Journaling state: where the next record lands in the on-disk image, the
  // oldest sequence the record area still vouches for, and the byte offset
  // of every live record (so truncation can narrow log_start exactly).
  WriteJournal* journal_ = nullptr;
  int64_t journal_tail_ = 0;
  int64_t journal_log_start_ = 0;
  int64_t journal_start_sequence_ = 0;
  // Windows appended so far; its parity picks the commit-slot sector. Kept
  // equal to next_sequence_ while every window is a singleton.
  int64_t window_count_ = 0;
  std::vector<std::pair<int64_t, int64_t>> journal_offsets_;  // (sequence, offset)
};

}  // namespace ftx_store

#endif  // FTX_SRC_STORAGE_REDO_LOG_H_
