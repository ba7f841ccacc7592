#include "src/storage/redo_log.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/storage/log_image.h"
#include "src/storage/write_journal.h"

namespace ftx_store {

void RedoRecord::ReservePages(int64_t pages, size_t image_size) {
  if (pages <= 0) {
    return;
  }
  pages_payload.reserve(pages_payload.size() +
                        static_cast<size_t>(pages) * (2 * sizeof(int64_t) + image_size));
}

void RedoRecord::AppendPage(int64_t offset, const uint8_t* data, size_t size) {
  // One geometric reservation for the whole header+image run. Without this,
  // an unreserved record could reallocate up to three times inside a single
  // page append (offset, size, image) — and the image memcpy is exactly the
  // bytes a realloc would move again.
  ftx::EnsureAppendCapacity(&pages_payload, 2 * sizeof(int64_t) + size);
  size_t run_begin = pages_payload.size();
  ftx::AppendValue(&pages_payload, offset);
  ftx::AppendValue(&pages_payload, static_cast<int64_t>(size));
  ftx::AppendRaw(&pages_payload, data, size);
  pages_crc = ftx::Crc32Extend(pages_crc, pages_payload.data() + run_begin,
                               pages_payload.size() - run_begin);
  ++page_count;
  page_bytes += static_cast<int64_t>(size);
}

int64_t RedoRecord::PayloadBytes() const {
  return static_cast<int64_t>(metadata.size()) + page_bytes +
         page_count * static_cast<int64_t>(sizeof(int64_t));
}

void RedoLog::AttachJournal(WriteJournal* journal) {
  journal_ = journal;
  journal_tail_ = kLogStartOffset;
  journal_log_start_ = kLogStartOffset;
  journal_start_sequence_ = next_sequence_;
  // A fresh journal image starts a fresh parity cycle aligned with the
  // sequence counter, preserving the singleton-window identity
  // window_count_ == next_sequence_ that unbatched goldens depend on.
  window_count_ = next_sequence_;
  journal_offsets_.clear();
}

int64_t RedoLog::AppendBatch(std::vector<RedoRecord> batch) {
  FTX_CHECK(!batch.empty());
  int64_t payload_total = 0;
  for (RedoRecord& record : batch) {
    record.sequence = next_sequence_++;
    payload_total += record.PayloadBytes() + 64;  // record header
  }
  bytes_written_ += payload_total;
  const int64_t last_sequence = batch.back().sequence;

  if (journal_ != nullptr) {
    // The paper's two synchronous I/Os, amortized over the window, in
    // order: (1) every record body of the window, contiguously, then one
    // sync barrier; (2) the one-sector commit slot vouching for the whole
    // window, then one sync barrier. Slot parity alternates with the window
    // count, so this window never touches the sector that vouches for the
    // previous one — a crash mid-window leaves the old slot intact and the
    // new records unvouched (recoverable as all-or-prefix tail records).
    for (const RedoRecord& record : batch) {
      ftx::Bytes encoded = EncodeRecord(record);
      journal_offsets_.emplace_back(record.sequence, journal_tail_);
      journal_->Write(journal_tail_, encoded.data(), encoded.size(), record.sequence);
      journal_tail_ += static_cast<int64_t>(encoded.size());
    }
    journal_->Barrier(last_sequence);

    CommitSlot slot;
    slot.sequence = last_sequence;
    slot.log_start = journal_log_start_;
    slot.log_end = journal_tail_;
    slot.start_sequence = journal_start_sequence_;
    ftx::Bytes slot_sector = EncodeCommitSlot(slot);
    journal_->Write((window_count_ & 1) * kSectorBytes, slot_sector.data(), slot_sector.size(),
                    last_sequence);
    journal_->Barrier(last_sequence);
  }

  ++window_count_;
  for (RedoRecord& record : batch) {
    records_.push_back(std::move(record));
  }
  return payload_total;
}

void RedoLog::TruncateThrough(int64_t sequence) {
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [&](const RedoRecord& r) { return r.sequence <= sequence; }),
                 records_.end());

  if (journal_ != nullptr && sequence >= journal_start_sequence_ && next_sequence_ > 0) {
    // Retire the prefix by rewriting the current slot with a narrowed
    // [log_start, log_end) — one atomic sector write, same parity as the
    // newest committed record so the update supersedes in place. The retired
    // record bytes stay on the platters but the slot no longer vouches for
    // them. A crash before this write survives with the stale (wider) slot,
    // which still decodes the full record chain — recovery just replays more.
    journal_start_sequence_ = sequence + 1;
    while (!journal_offsets_.empty() && journal_offsets_.front().first <= sequence) {
      journal_offsets_.erase(journal_offsets_.begin());
    }
    journal_log_start_ =
        journal_offsets_.empty() ? journal_tail_ : journal_offsets_.front().second;

    const int64_t newest = next_sequence_ - 1;
    CommitSlot slot;
    slot.sequence = newest;
    slot.log_start = journal_log_start_;
    slot.log_end = journal_tail_;
    slot.start_sequence = std::min(journal_start_sequence_, newest + 1);
    ftx::Bytes slot_sector = EncodeCommitSlot(slot);
    // Same parity as the newest window's live slot ((window_count_ - 1) & 1
    // — equal to `newest & 1` while windows are singletons), so the update
    // supersedes in place rather than clobbering the alternate sector a
    // crash might still need.
    journal_->Write(((window_count_ - 1) & 1) * kSectorBytes, slot_sector.data(),
                    slot_sector.size(), newest);
    journal_->Barrier(newest);
  }
}

void RedoLog::RestoreForRecovery(std::vector<RedoRecord> records) {
  for (size_t i = 1; i < records.size(); ++i) {
    FTX_CHECK_EQ(records[i].sequence, records[i - 1].sequence + 1);
  }
  next_sequence_ = records.empty() ? 0 : records.back().sequence + 1;
  // Survivor chains carry no window framing; resume as if every survivor
  // was its own window (exact for unbatched runs, and for batched runs the
  // parity cycle merely restarts — recovery attaches a fresh journal).
  window_count_ = next_sequence_;
  records_ = std::move(records);
}

}  // namespace ftx_store
