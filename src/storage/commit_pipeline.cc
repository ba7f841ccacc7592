#include "src/storage/commit_pipeline.h"

#include <utility>

#include "src/common/check.h"

namespace ftx_store {

bool CommitPipeline::Stage(RedoRecord record) {
  staged_bytes_ += record.PayloadBytes() + 64;  // record header, as AppendBatch bills it
  staged_.push_back(std::move(record));
  return static_cast<int64_t>(staged_.size()) >= policy_.max_records ||
         staged_bytes_ >= policy_.max_bytes;
}

int64_t CommitPipeline::Flush() {
  if (staged_.empty()) {
    return 0;
  }
  FTX_CHECK(log_ != nullptr);
  int64_t appended = log_->AppendBatch(std::move(staged_));
  staged_.clear();
  staged_bytes_ = 0;
  return appended;
}

void CommitPipeline::Drop() {
  staged_.clear();
  staged_bytes_ = 0;
}

}  // namespace ftx_store
