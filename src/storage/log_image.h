// On-disk layout of the DC-disk redo log, and the survivor-state decoder.
//
// The paper's DC-disk commits with two synchronous I/Os: write the redo
// record, then write a commit sector that makes it atomic (§4.2). This
// header pins that design down to bytes so the crash-state exploration
// engine (src/torture/) can reconstruct the exact log a rebooted machine
// would read after dying at *any* sector boundary:
//
//   sector 0   commit slot A   (records with even sequence commit here)
//   sector 1   commit slot B   (odd sequences commit here)
//   sector 2+  record area: encoded redo records, each zero-padded to a
//              sector boundary, appended at increasing offsets
//
// A commit slot is one sector — one atomic disk write — holding a CRC'd
// {sequence, log_start, log_end, start_sequence} tuple. Alternating slots by
// sequence parity means committing record n never overwrites the slot that
// proves record n-1: if the slot write itself tears, the previous slot is
// intact and recovery lands on n-1. That is the mechanism behind the
// engine's Save-work invariant — every crash state recovers to the last
// fully-committed checkpoint or the one before it, never a blend.
//
// Record framing validates *lengths against remaining bytes first*, then
// header CRC, then payload CRC. A truncated or torn tail is therefore
// rejected by arithmetic before anything dereferences it — no over-read —
// and rejected records simply end the log at the last good record.

#ifndef FTX_SRC_STORAGE_LOG_IMAGE_H_
#define FTX_SRC_STORAGE_LOG_IMAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/storage/redo_log.h"
#include "src/storage/write_journal.h"

namespace ftx_store {

// First byte offset of the record area (after the two commit slots).
inline constexpr int64_t kLogStartOffset = 2 * kSectorBytes;

inline constexpr uint32_t kCommitSlotMagic = 0x46545843;  // "FTXC"
inline constexpr uint32_t kRecordMagic = 0x46545852;      // "FTXR"

// The committed-state pointer, one per parity. `sequence` is the newest
// record this slot vouches for; [log_start, log_end) is the byte range of
// the record area holding records [start_sequence, sequence].
struct CommitSlot {
  int64_t sequence = -1;
  int64_t log_start = kLogStartOffset;
  int64_t log_end = kLogStartOffset;
  int64_t start_sequence = 0;
};

// Serializes a slot into exactly kSectorBytes (magic + CRC + fields,
// zero-padded).
ftx::Bytes EncodeCommitSlot(const CommitSlot& slot);

// Validates magic + CRC; returns false for garbage, torn, or all-zero
// sectors (the pristine-disk state).
bool DecodeCommitSlot(const uint8_t* sector, size_t size, CommitSlot* slot);

// Serializes a redo record (header with framing lengths + header CRC,
// pages payload, metadata), zero-padded to a whole number of sectors.
// Aborts on a record whose payload was dropped.
ftx::Bytes EncodeRecord(const RedoRecord& record);

// EncodeRecord(record).size(), computed without encoding: where the record
// ends in an on-disk layout, for callers that need offsets but not bytes.
// Defined for a record whose payload was dropped too.
int64_t EncodedRecordBytes(const RedoRecord& record);

enum class DecodeStatus {
  kOk,         // record decoded and fully validated
  kTruncated,  // framing claims more bytes than remain — clean tail end
  kCorrupt,    // framing fits but magic/CRC validation failed
};

// Decodes one record at `image[offset]`. On kOk fills `record` and
// `next_offset` (the sector-aligned start of the following record).
// Length fields are checked against the remaining bytes BEFORE any CRC is
// computed, so a mid-header truncation can never over-read.
DecodeStatus DecodeRecord(const ftx::Bytes& image, int64_t offset, RedoRecord* record,
                          int64_t* next_offset);

// Same decode over a raw span — lets callers frame a sub-range of a larger
// image (e.g. the uncommitted tail) without copying it out first.
DecodeStatus DecodeRecordSpan(const uint8_t* data, int64_t size, int64_t offset,
                              RedoRecord* record, int64_t* next_offset);

// The slot-selection rule recovery uses: the valid slot (either parity)
// with the highest sequence wins. Returns false when neither sector holds
// a valid slot (the pristine-disk state, or both torn).
bool SelectCommitSlot(const ftx::Bytes& image, CommitSlot* slot);

// What a rebooted machine finds on its platters.
struct SurvivorLog {
  // Records the winning commit slot vouches for, in sequence order; empty
  // with last_sequence == -1 when no valid slot exists (crash before the
  // first commit completed).
  std::vector<RedoRecord> records;
  int64_t last_sequence = -1;
  int64_t start_sequence = 0;
  bool decode_ok = false;   // committed range parsed and validated fully
  // Tail scan past log_end: records there were written but never committed
  // — under group commit, a whole in-flight window of them. kOk means the
  // first record landed intact (its commit sector did not); they are all
  // still correctly ignored, because only the slot makes records durable.
  bool tail_record_present = false;
  DecodeStatus tail_status = DecodeStatus::kTruncated;
  RedoRecord tail_record;  // first intact tail record, when tail_status == kOk
  // Every consecutively-intact, sequence-contiguous tail record in append
  // order. Because a window's records are written in sequence order before
  // the single sync, any crash leaves all-or-a-prefix of the window intact
  // — the torture engine asserts survivors match this shape (no holes).
  std::vector<RedoRecord> tail_records;
  std::string diagnostic;
};

// Reads the image the way DC-disk recovery would: pick the valid commit
// slot with the highest sequence, decode exactly the records it vouches
// for, and scan past log_end to classify the uncommitted tail (all
// consecutive intact records of the in-flight window).
SurvivorLog DecodeSurvivorImage(const ftx::Bytes& image);

}  // namespace ftx_store

#endif  // FTX_SRC_STORAGE_LOG_IMAGE_H_
