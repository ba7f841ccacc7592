// Latency model of a rotating SCSI disk.
//
// DC-disk's overheads in Fig. 8 are governed by the cost of synchronous
// small writes to the redo log. The model charges average seek plus
// rotational delay for a random access, and per-byte transfer time;
// sequential appends within the same "locality window" skip the seek.
// Default parameters approximate the paper's IBM Ultrastar DCAS-34330W
// (ultra-wide SCSI, 5400 RPM class).

#ifndef FTX_SRC_STORAGE_DISK_MODEL_H_
#define FTX_SRC_STORAGE_DISK_MODEL_H_

#include <cstdint>
#include <memory>

#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/storage/write_journal.h"

namespace ftx_store {

struct DiskParameters {
  ftx::Duration average_seek = ftx::Milliseconds(8);
  ftx::Duration half_rotation = ftx::Microseconds(5600);  // 5400 RPM → 11.1 ms/rev
  // Sustained media rate ~12 MB/s → ~83 ns/byte.
  ftx::Duration per_byte = ftx::Nanoseconds(83);
  // Appends within this many bytes of the previous end of a write are
  // treated as sequential (track buffer / log locality): no seek, just
  // rotation + transfer.
  int64_t sequential_window = 1 << 20;
};

class DiskModel {
 public:
  explicit DiskModel(DiskParameters params = {}) : params_(params) {}

  // Latency of a synchronous write of `bytes` at `offset`. Updates the head
  // position.
  ftx::Duration Write(int64_t offset, int64_t bytes);

  // Latency of a synchronous read.
  ftx::Duration Read(int64_t offset, int64_t bytes);

  // Latency of appending `bytes` at the current log end (sequential fast
  // path plus forced media flush — what a synchronous redo-log write costs).
  ftx::Duration Append(int64_t bytes);

  // Accounting hook for callers that compute latency analytically (the
  // StableStore policies) but still want I/O statistics tracked here.
  void NoteSyncWrite(int64_t bytes, int ios) {
    total_ios_ += ios;
    total_bytes_ += bytes;
  }

  int64_t head_position() const { return head_position_; }
  int64_t total_ios() const { return total_ios_; }
  int64_t total_bytes() const { return total_bytes_; }
  const DiskParameters& parameters() const { return params_; }

  // Opt-in write-op journal for this disk's platters: off by default (the
  // cost model alone needs no content), enabled by the crash-state
  // exploration engine so commits leave a sector-granular op trace. The
  // journal belongs to the disk because it describes *this* machine's
  // persistent state; producers (RedoLog) borrow it via journal().
  WriteJournal* EnableJournal() {
    if (journal_ == nullptr) {
      journal_ = std::make_unique<WriteJournal>();
    }
    return journal_.get();
  }
  WriteJournal* journal() const { return journal_.get(); }

  // Exposes I/O counters through a metrics registry as the per-process
  // probes "p<pid>.disk.sync_writes" and "p<pid>.disk.bytes_written" of the
  // process whose machine owns the disk.
  void BindMetrics(ftx_obs::Registry* registry, int pid) {
    registry->RegisterCounterProbe(pid, "disk.sync_writes", [this]() { return total_ios_; });
    registry->RegisterCounterProbe(pid, "disk.bytes_written", [this]() { return total_bytes_; });
  }

 private:
  ftx::Duration Access(int64_t offset, int64_t bytes);

  DiskParameters params_;
  int64_t head_position_ = 0;
  int64_t total_ios_ = 0;
  int64_t total_bytes_ = 0;
  std::unique_ptr<WriteJournal> journal_;
};

}  // namespace ftx_store

#endif  // FTX_SRC_STORAGE_DISK_MODEL_H_
