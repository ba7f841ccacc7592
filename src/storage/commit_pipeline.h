// Group-commit staging pipeline for the DC-disk redo log.
//
// The paper's DC-disk pays two synchronous I/Os (seek + rotation each) per
// commit — the dominant cost at small record sizes. Every DC-disk commit
// *stages* its redo record here, and a whole window of staged records is
// persisted by RedoLog::AppendBatch under a single pair of sync barriers,
// which amortizes that mechanical overhead over the window. The Save-work
// invariant is untouched because staging is invisible to the outside
// world — a commit is only *reported* committed (trace event, message
// release, externalization) after its window's sync completes, and the
// runtime forces a flush before any nondeterminism-visible event escapes.
//
// The default policy's one-record window is exactly the paper's commit:
// one sync pair per record. A window closes when it reaches max_records,
// when its payload crosses max_bytes, or when the caller forces a flush
// (ND-visible event, coordinated commit, clean shutdown).
//
// The pipeline owns only the storage-side state (the staged records and
// their payload accounting); per-record runtime bookkeeping — costs to
// charge, trace/audit entries to emit at flush — stays with the runtime,
// which keeps a parallel vector of staged metadata.

#ifndef FTX_SRC_STORAGE_COMMIT_PIPELINE_H_
#define FTX_SRC_STORAGE_COMMIT_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "src/storage/redo_log.h"

namespace ftx_store {

// Group-commit batching policy. The default one-record window keeps one
// sync pair per commit; larger windows change the sector/barrier write
// schedule (and therefore simulated commit latencies), so runs meant to
// reproduce the committed goldens keep the default.
struct BatchPolicy {
  // Window closes when it holds this many records (<= 1: every record)...
  int64_t max_records = 1;
  // ...or when its summed payload (PayloadBytes + header) crosses this.
  // The record that crosses the line still joins the window (flush happens
  // right after staging it), so a single oversized record never wedges.
  int64_t max_bytes = 1 << 20;
};

class CommitPipeline {
 public:
  CommitPipeline(RedoLog* log, BatchPolicy policy) : log_(log), policy_(policy) {}

  // Stages a record into the open window. Returns true when the policy
  // requires the window to flush now (max_records reached, or max_bytes
  // crossed — the overflow record is inside the window).
  bool Stage(RedoRecord record);

  // Persists the open window via RedoLog::AppendBatch — one sync window for
  // everything staged. Returns the summed payload bytes appended (what the
  // window's I/O is billed for), or 0 when nothing staged.
  int64_t Flush();

  // Crash/kill path: forget the staged window. Staged records were never
  // persisted and never reported committed, so dropping them is exactly the
  // all-or-prefix torture semantics — they simply never happened.
  void Drop();

  bool empty() const { return staged_.empty(); }
  int64_t staged_records() const { return static_cast<int64_t>(staged_.size()); }
  int64_t staged_bytes() const { return staged_bytes_; }
  const BatchPolicy& policy() const { return policy_; }

 private:
  RedoLog* log_;
  BatchPolicy policy_;
  std::vector<RedoRecord> staged_;
  int64_t staged_bytes_ = 0;
};

}  // namespace ftx_store

#endif  // FTX_SRC_STORAGE_COMMIT_PIPELINE_H_
