#include "src/storage/write_journal.h"

#include <cstring>

#include "src/common/check.h"

namespace ftx_store {

void WriteJournal::Write(int64_t offset, const uint8_t* data, size_t size, int64_t sequence) {
  FTX_CHECK_MSG(offset % kSectorBytes == 0, "journaled writes must be sector-aligned");
  const ftx::TimePoint now = clock_ ? clock_() : ftx::TimePoint();
  size_t consumed = 0;
  while (consumed < size) {
    DiskOp op;
    op.kind = DiskOpKind::kSectorWrite;
    op.offset = offset + static_cast<int64_t>(consumed);
    op.sequence = sequence;
    op.time = now;
    const size_t chunk = std::min(size - consumed, static_cast<size_t>(kSectorBytes));
    if (data != nullptr) {
      op.data.assign(static_cast<size_t>(kSectorBytes), 0);
      std::memcpy(op.data.data(), data + consumed, chunk);
    }
    ops_.push_back(std::move(op));
    consumed += chunk;
  }
}

void WriteJournal::Barrier(int64_t sequence) {
  DiskOp op;
  op.kind = DiskOpKind::kBarrier;
  op.sequence = sequence;
  op.time = clock_ ? clock_() : ftx::TimePoint();
  ops_.push_back(std::move(op));
  ++barriers_;
}

void WriteJournal::Clear() {
  ops_.clear();
  barriers_ = 0;
}

ftx::Bytes WriteJournal::MaterializeImage(size_t count, int64_t image_bytes) const {
  FTX_CHECK_LE(count, ops_.size());
  ftx::Bytes image(static_cast<size_t>(image_bytes), 0);
  for (size_t i = 0; i < count; ++i) {
    const DiskOp& op = ops_[i];
    if (op.kind != DiskOpKind::kSectorWrite) {
      continue;
    }
    FTX_CHECK_LE(op.offset + kSectorBytes, image_bytes);
    std::memcpy(image.data() + op.offset, op.sector(), static_cast<size_t>(kSectorBytes));
  }
  return image;
}

}  // namespace ftx_store
