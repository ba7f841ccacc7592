#include "src/storage/redo_log.h"

#include <utility>

#include "src/common/check.h"
#include "src/obs/prof/prof.h"
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

int64_t RedoRecord::PayloadLength() const {
  if (payload_dropped) {
    return page_count * static_cast<int64_t>(2 * sizeof(int64_t)) + page_bytes;
  }
  return static_cast<int64_t>(pages_payload.size());
}

int64_t RedoRecord::PayloadBytes() const {
  return static_cast<int64_t>(metadata.size()) + page_bytes +
         page_count * static_cast<int64_t>(sizeof(int64_t));
}

void RedoLog::KeepPayloadsBelow(int64_t sequence) {
  FTX_CHECK_GE(sequence, 0);
  payload_horizon_ = sequence;
}

void RedoLog::AttachJournal(WriteJournal* journal) {
  journal_ = journal;
  journal_tail_ = kLogStartOffset;
  journal_start_sequence_ = next_sequence_;
  // A fresh journal image starts a fresh parity cycle aligned with the
  // sequence counter, preserving the singleton-window identity
  // window_count_ == next_sequence_ that unbatched goldens depend on.
  window_count_ = next_sequence_;
}

int64_t RedoLog::AppendBatch(std::vector<RedoRecord> batch) {
  FTX_CHECK(!batch.empty());
  int64_t payload_total = 0;
  for (RedoRecord& record : batch) {
    record.sequence = next_sequence_++;
    payload_total += record.PayloadBytes() + 64;  // record header
    if (!KeepsPayload(record.sequence) && !record.payload_dropped) {
      // Past the payload horizon. A runtime that checks KeepsPayload first
      // hands over a record already without one.
      const int64_t length = record.PayloadLength();
      record.pages_payload = ftx::Bytes();
      record.pages_crc = 0;
      record.payload_dropped = true;
      FTX_CHECK_EQ(record.PayloadLength(), length);  // the headers describe the dropped bytes
    }
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
    // Records past the payload horizon are not encoded: their ops carry
    // no bytes.
    FTX_PROF_SCOPE("commit.journal");
    for (const RedoRecord& record : batch) {
      const int64_t encoded_bytes = EncodedRecordBytes(record);
      if (!record.payload_dropped) {
        const ftx::Bytes encoded = EncodeRecord(record);
        journal_->Write(journal_tail_, encoded.data(), encoded.size(), record.sequence);
      } else {
        journal_->Write(journal_tail_, /*data=*/nullptr, static_cast<size_t>(encoded_bytes),
                        record.sequence);
      }
      journal_tail_ += encoded_bytes;
    }
    journal_->Barrier(last_sequence);

    CommitSlot slot;
    slot.sequence = last_sequence;
    slot.log_start = kLogStartOffset;
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
    if (journal_ == nullptr && !records_.back().payload_dropped) {
      TakeOverPages(records_.size() - 1);
    }
  }
  return payload_total;
}

void RedoLog::TakeOverPages(size_t index) {
  runs_held_.resize(records_.size(), 0);
  bool well_formed = records_[index].ForEachPage([&](int64_t offset, const uint8_t*, size_t) {
    auto [it, inserted] = page_owner_.try_emplace(offset, index);
    if (!inserted) {
      if (it->second == index) {
        return;  // the same page twice in one record
      }
      const size_t previous = std::exchange(it->second, index);
      if (--runs_held_[previous] == 0) {
        Release(previous);
      }
    }
    ++runs_held_[index];
  });
  FTX_CHECK_MSG(well_formed, "redo record page payload malformed");
  // A record without pages holds nothing from the start; it is released
  // once it is no longer the newest, whose metadata recovery restores.
  if (index > 0 && records_[index - 1].page_count == 0 && !records_[index - 1].released &&
      !records_[index - 1].payload_dropped) {
    Release(index - 1);
  }
}

void RedoLog::Release(size_t index) {
  // Every page of the record has a newer image, so recovery will never
  // install it. Validate the payload before dropping it, as recovery would
  // have.
  RedoRecord& record = records_[index];
  FTX_CHECK_MSG(record.ValidatePages(), "redo record failed CRC validation");
  record.pages_payload = ftx::Bytes();
  record.released = true;
}

void RedoLog::RestoreForRecovery(std::vector<RedoRecord> records) {
  for (size_t i = 0; i < records.size(); ++i) {
    FTX_CHECK_MSG(!records[i].released, "cannot restore released redo record %lld",
                  static_cast<long long>(records[i].sequence));
    FTX_CHECK_MSG(!records[i].payload_dropped,
                  "cannot restore redo record %lld: its payload was dropped",
                  static_cast<long long>(records[i].sequence));
    if (i > 0) {
      FTX_CHECK_EQ(records[i].sequence, records[i - 1].sequence + 1);
    }
  }
  next_sequence_ = records.empty() ? 0 : records.back().sequence + 1;
  // Survivor chains carry no window framing; resume as if every survivor
  // was its own window (exact for unbatched runs, and for batched runs the
  // parity cycle merely restarts — recovery attaches a fresh journal).
  window_count_ = next_sequence_;
  records_ = std::move(records);
  page_owner_.clear();
  runs_held_.clear();
  if (journal_ == nullptr) {
    for (size_t i = 0; i < records_.size(); ++i) {
      TakeOverPages(i);
    }
  }
}

}  // namespace ftx_store
