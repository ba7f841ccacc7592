// Sector-granular write-op journal of a modeled disk.
//
// The DC-disk cost policies charge *time* for the two synchronous I/Os a
// commit performs; this journal records *what* those I/Os write and in what
// order, so the crash-state exploration engine (src/torture/) can enumerate
// every state the platters could hold if the machine died mid-commit.
//
// The model is the ALICE-style abstract persistence model: a write is split
// into atomic 512-byte sector writes, and ordering is only guaranteed across
// a Barrier (the completion of a synchronous I/O). A crash may therefore
// expose any prefix of the op stream, plus a torn final sector, plus any
// subset of the sector writes issued since the last barrier (the in-flight
// epoch the disk was free to reorder).
//
// Producer: RedoLog::AppendBatch emits a window's record-body sectors, a
// barrier, the commit-slot sector, and a second barrier (the paper's
// two-sync-I/O checkpoint for a one-record window). The crash-state
// exploration engine owns the journal and attaches it to the redo log of
// machine 0, whose platters it describes (see RedoLog::AttachJournal).
//
// Ops without bytes: a depth-capped exploration reads the sector bytes of
// its first few commit windows only, yet a run journals megabytes of
// records. A record its log keeps no page payload of (one past the log's
// payload horizon, see redo_log.h) is journaled as ops without bytes —
// kind, offset, sequence and time, which the exploration reads across the
// whole trace — while commit-slot sectors always keep theirs. Every reader
// of sector bytes goes through DiskOp::sector(), which aborts on an op
// without them.

#ifndef FTX_SRC_STORAGE_WRITE_JOURNAL_H_
#define FTX_SRC_STORAGE_WRITE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/common/sim_time.h"

namespace ftx_store {

// The atomic unit of the persistence model. Every multi-sector write is
// split into whole-sector ops (the final sector zero-padded), because a
// sector is what the disk persists atomically — and what a torn write tears.
inline constexpr int64_t kSectorBytes = 512;

enum class DiskOpKind : uint8_t {
  kSectorWrite,  // one sector of payload landing at `offset`
  kBarrier,      // a sync point: everything before is durable, in order
};

struct DiskOp {
  DiskOpKind kind = DiskOpKind::kSectorWrite;
  int64_t offset = 0;  // sector-aligned byte offset (kSectorWrite only)
  // Exactly kSectorBytes (kSectorWrite only), or empty for a record write
  // whose log kept no payload.
  ftx::Bytes data;
  // Redo-record sequence this op serves (the commit window's last one for
  // slot writes and barriers).
  int64_t sequence = -1;
  // Simulated instant the op was issued (the owning commit's instant).
  ftx::TimePoint time;

  // The sector write's bytes; aborts when the journal kept none.
  const uint8_t* sector() const {
    FTX_CHECK_MSG(data.size() == static_cast<size_t>(kSectorBytes),
                  "journal kept no bytes for the sector at %lld (sequence %lld)",
                  static_cast<long long>(offset), static_cast<long long>(sequence));
    return data.data();
  }
};

class WriteJournal {
 public:
  // Ops are stamped with clock() when set (the exploration engine wires the
  // simulator's Now); without a clock they carry the zero TimePoint.
  void SetClock(std::function<ftx::TimePoint()> clock) { clock_ = std::move(clock); }

  // Records a write of `size` bytes at `offset` (sector-aligned), split into
  // whole-sector ops; the final partial sector is zero-padded, matching how
  // the encoders pad what they hand the disk. A null `data` records the ops
  // without bytes: the write of a record its log kept no payload of.
  void Write(int64_t offset, const uint8_t* data, size_t size, int64_t sequence);

  // Records a sync point (the completion of one synchronous I/O).
  void Barrier(int64_t sequence);

  const std::vector<DiskOp>& ops() const { return ops_; }
  int64_t barriers() const { return barriers_; }
  void Clear();

  // Applies ops [0, count) in order onto a zeroed disk image of
  // `image_bytes` bytes (writes beyond the image are a caller bug, and so
  // are ops without bytes).
  ftx::Bytes MaterializeImage(size_t count, int64_t image_bytes) const;

 private:
  std::function<ftx::TimePoint()> clock_;
  std::vector<DiskOp> ops_;
  int64_t barriers_ = 0;
};

}  // namespace ftx_store

#endif  // FTX_SRC_STORAGE_WRITE_JOURNAL_H_
