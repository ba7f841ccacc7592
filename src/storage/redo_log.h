// Redo log for DC-disk.
//
// DC-disk writes a redo record at each checkpoint: the dirty pages, plus an
// opaque metadata blob (register file and kernel-capture point). This class
// stores the record chain; recovery rebuilds a process's segment from it,
// installing each page's newest committed image. I/O *latency* is charged
// separately by the DiskStore policy (see stable_store.h), which models the
// synchronous writes these appends imply.
//
// Page images are serialized directly into one flat per-record buffer
// ([offset][size][bytes]... runs) as the segment's dirty-page visitor hands
// them over — the single copy is the one the persist itself requires; there
// is no intermediate vector of per-page heap buffers. Each record carries a
// CRC (slice-by-8) over its page payload that recovery validates before
// installing pages.
//
// Release: recovery needs only the newest image of each page, so an
// unjournaled log frees the page payload of every record whose runs later
// records have all rewritten (and marks a record without pages released
// once a newer one lands), after validating its CRC. A released record
// keeps its header fields and metadata, so PayloadBytes() (what recovery is
// charged for reading it) does not change; the newest record is never
// released. A log's memory is then bounded by the pages recovery still
// needs instead of growing with every commit. A journaled log releases
// nothing: the crash-state engine encodes and replays its whole chain.
//
// Payload horizon: a log whose later records no recovery will install can
// keep no page payload for them (KeepPayloadsBelow). Such a record keeps
// its header fields (page_count, page_bytes), its metadata and its encoded
// length, so every simulated cost is unchanged; the committing runtime
// counts its pages instead of serializing them, and an attached journal
// records its sector writes without bytes. Recovery and RestoreForRecovery
// refuse a record without its payload, and so does EncodeRecord.

#ifndef FTX_SRC_STORAGE_REDO_LOG_H_
#define FTX_SRC_STORAGE_REDO_LOG_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
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
  // Set by the owning RedoLog once it freed pages_payload because later
  // records rewrite every page this one held (or it held none and is not
  // the newest); recovery skips the record's CRC check and installs, but
  // still charges PayloadBytes() for it.
  bool released = false;
  // Set by the owning RedoLog when the record lies past its payload horizon
  // (see above): pages_payload is empty and pages_crc is 0.
  bool payload_dropped = false;

  // Pre-sizes the payload buffer for `pages` images of `image_size` bytes.
  void ReservePages(int64_t pages, size_t image_size);

  // Serializes one page image straight from the source buffer (typically
  // the live segment) and extends the payload CRC.
  void AppendPage(int64_t offset, const uint8_t* data, size_t size);

  // Counts one page image without serializing it, for a record its log will
  // keep no payload of.
  void CountPage(size_t size) {
    ++page_count;
    page_bytes += static_cast<int64_t>(size);
  }

  // Bytes of serialized page payload: pages_payload.size(), or what it was
  // (page_count runs of offset + size framing, plus page_bytes) once
  // dropped.
  int64_t PayloadLength() const;

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

// Group-commit batching policy of a DC-disk runtime, which stages its
// commits' records and persists each window with one AppendBatch. The
// default one-record window keeps one sync pair per commit, the paper's
// DC-disk; larger windows change the sector/barrier write schedule (and
// therefore simulated commit latencies), so runs meant to reproduce the
// committed goldens keep the default.
struct BatchPolicy {
  // A window closes when it holds max_records records (<= 1: every
  // record), or when its summed payload (PayloadBytes + header) reaches
  // kMaxBytes. The record that crosses the line still joins the window, so
  // a single oversized record never wedges it.
  static constexpr int64_t kMaxBytes = 1 << 20;
  int64_t max_records = 1;

  bool WindowFull(int64_t records, int64_t bytes) const {
    return records >= max_records || bytes >= kMaxBytes;
  }
};

class WriteJournal;

class RedoLog {
 public:
  // Group commit: appends a whole window of records under ONE pair of sync
  // barriers — all record bodies land contiguously, one barrier, then one
  // commit slot vouching for the entire window (it carries the last
  // record's sequence; SelectCommitSlot's [log_start, log_end) spans every
  // record in the window), one barrier. Slot parity alternates per
  // *window*, not per record, so the slot never overwrites the sector that
  // vouches for the previous window. A singleton window is the paper's
  // two-I/O commit, and window count then equals sequence. Returns the
  // summed payload bytes (for I/O charging).
  int64_t AppendBatch(std::vector<RedoRecord> batch);

  // Full record history, in sequence order. Released records keep their
  // headers and metadata; recovery charges every record and installs the
  // pages of the unreleased ones.
  const std::vector<RedoRecord>& records() const { return records_; }
  const RedoRecord* Latest() const { return records_.empty() ? nullptr : &records_.back(); }

  // Attaches a sector-granular write journal, which the caller owns: every
  // AppendBatch then emits the window's two synchronous I/Os as journal
  // ops — record sectors + barrier, commit-slot sector + barrier —
  // encoding only the records that keep their payload (a record past the
  // payload horizon is journaled without bytes, see write_journal.h). The
  // crash-state exploration engine attaches one to machine 0's log and
  // replays its ops to build survivor images (see src/storage/log_image.h),
  // so a journaled log keeps every record it appends from then on. nullptr
  // detaches.
  void AttachJournal(WriteJournal* journal);

  // Replaces the in-memory record chain with what survived on disk — the
  // records a SurvivorLog decoded from a crash-state image — so a fresh
  // computation's Recover() sees exactly the survivor state. Sequences must
  // be contiguous and no record may be released (a prefix of a live chain
  // can have lost pages to records beyond the prefix) or have its payload
  // dropped; next_sequence resumes after the last survivor. An unjournaled
  // log then releases the survivors that later survivors supersede.
  void RestoreForRecovery(std::vector<RedoRecord> records);

  int64_t next_sequence() const { return next_sequence_; }

  // Payload horizon (see above): records appended from now on with a
  // sequence >= `sequence` keep no page payload, and an attached journal
  // records them without bytes; 0 keeps none. By default every record keeps
  // its payload.
  void KeepPayloadsBelow(int64_t sequence);
  bool KeepsPayload(int64_t sequence) const { return sequence < payload_horizon_; }

  // Exposes log counters through a metrics registry as the per-process
  // probes "p<pid>.redo.records" and "p<pid>.redo.bytes_written" of the
  // process that owns the log.
  void BindMetrics(ftx_obs::Registry* registry, int pid) {
    registry->RegisterCounterProbe(pid, "redo.records", [this]() { return next_sequence_; });
    registry->RegisterCounterProbe(pid, "redo.bytes_written",
                                   [this]() { return bytes_written_; });
  }

 private:
  // Unjournaled logs only: records_[index] takes over each of its page runs
  // from the records that held them, and every older record left holding
  // none is validated and released. Only a later record takes runs over,
  // so the newest record is never released.
  void TakeOverPages(size_t index);
  void Release(size_t index);

  std::vector<RedoRecord> records_;
  int64_t bytes_written_ = 0;
  int64_t next_sequence_ = 0;
  int64_t payload_horizon_ = std::numeric_limits<int64_t>::max();
  // Release index of an unjournaled log: the newest record holding each page
  // run, keyed by run offset (runs at one offset are whole pages of one
  // size), and the number of runs each record still holds.
  std::unordered_map<int64_t, size_t> page_owner_;
  std::vector<int64_t> runs_held_;
  // Journaling state: where the next record lands in the on-disk image and
  // the oldest sequence the record area vouches for (its first record sits
  // at kLogStartOffset).
  WriteJournal* journal_ = nullptr;
  int64_t journal_tail_ = 0;
  int64_t journal_start_sequence_ = 0;
  // Windows appended so far; its parity picks the commit-slot sector. Kept
  // equal to next_sequence_ while every window is a singleton.
  int64_t window_count_ = 0;
};

}  // namespace ftx_store

#endif  // FTX_SRC_STORAGE_REDO_LOG_H_
