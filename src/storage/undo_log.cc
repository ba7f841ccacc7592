#include "src/storage/undo_log.h"

#include <cstring>

#include "src/common/check.h"

namespace ftx_store {

UndoLog::UndoLog(size_t slot_size) : slot_size_(slot_size) { FTX_CHECK_GT(slot_size, 0u); }

int32_t UndoLog::RecordBeforeImage(int64_t offset, const uint8_t* data, size_t size) {
  FTX_CHECK_GE(offset, 0);
  FTX_CHECK_LT(records_.size(), static_cast<size_t>(INT32_MAX));
  UndoRecord record;
  record.offset = offset;
  record.size = static_cast<int64_t>(size);
  const int64_t slot_size = static_cast<int64_t>(slot_size_);
  FTX_CHECK_MSG(size > 0 && offset / slot_size == (offset + record.size - 1) / slot_size,
                "undo region [%lld, %lld) is empty or straddles a %lld-byte slot window",
                static_cast<long long>(offset), static_cast<long long>(offset + record.size),
                static_cast<long long>(slot_size));
  if (free_slots_.empty()) {
    FTX_CHECK_LT(slots_.size(), static_cast<size_t>(INT32_MAX));
    free_slots_.push_back(static_cast<int32_t>(slots_.size()));
    slots_.push_back(std::make_unique<uint8_t[]>(slot_size_));
  }
  // Mirror layout: the image sits at its window-relative offset.
  record.slot = free_slots_.back();
  free_slots_.pop_back();
  std::memcpy(slots_[record.slot].get() + offset % slot_size, data, size);
  byte_size_ += record.size;
  records_.push_back(record);
  return static_cast<int32_t>(records_.size()) - 1;
}

void UndoLog::WidenToWindow(int32_t index, const uint8_t* window) {
  FTX_CHECK_GE(index, 0);
  FTX_CHECK_LT(static_cast<size_t>(index), records_.size());
  UndoRecord& record = records_[index];
  const int64_t slot_size = static_cast<int64_t>(slot_size_);
  if (record.size == slot_size) {
    return;
  }
  uint8_t* slot = slots_[record.slot].get();
  const int64_t lo = record.offset % slot_size;
  const int64_t hi = lo + record.size;
  std::memcpy(slot, window, static_cast<size_t>(lo));
  std::memcpy(slot + hi, window + hi, static_cast<size_t>(slot_size - hi));
  byte_size_ += slot_size - record.size;
  record.offset -= lo;
  record.size = slot_size;
}

void UndoLog::ApplyReverseInto(uint8_t* base, size_t base_size) {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    FTX_CHECK_LE(static_cast<size_t>(it->offset + it->size), base_size);
    std::memcpy(base + it->offset, RecordData(*it), static_cast<size_t>(it->size));
  }
  Discard();
}

void UndoLog::Discard() {
  for (const UndoRecord& record : records_) {
    free_slots_.push_back(record.slot);
  }
  records_.clear();
  byte_size_ = 0;
}

}  // namespace ftx_store
