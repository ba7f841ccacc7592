// Stable-storage cost/semantics policies.
//
// A commit must place state where it survives failures. The paper evaluates
// two such homes: the Rio file cache — reliable main memory whose contents
// survive operating-system crashes at memory speed — and a conventional disk
// written synchronously (DC-disk). A StableStore captures the properties the
// experiments depend on: how long a commit record / log append takes to
// persist, and whether contents survive an OS crash.
//
// Disk calibration (see DESIGN.md §5): a DC-disk checkpoint performs two
// synchronous I/Os (redo record, then the commit sector that makes it
// atomic), each paying an average seek plus a full rotation — small
// synchronous writes to just-written tracks miss the sector and wait a
// revolution. An ND-log append stays within the dedicated log region (no
// seek) but still pays the rotation. With IBM Ultrastar-class parameters
// this yields ≈40 ms per checkpoint and ≈11 ms per log record, matching the
// overhead shape of Fig. 8.

#ifndef FTX_SRC_STORAGE_STABLE_STORE_H_
#define FTX_SRC_STORAGE_STABLE_STORE_H_

#include <cstdint>
#include <string_view>

#include "src/common/sim_time.h"
#include "src/obs/metrics.h"

namespace ftx_store {

class StableStore {
 public:
  virtual ~StableStore() = default;

  // Cost of durably persisting one commit window — one or more commit
  // records totalling `bytes` payload — under ONE pair of sync I/Os: the
  // mechanical overhead (seeks/rotations for DC-disk) is paid once for the
  // window, only the transfer scales with the data. A one-record window is
  // the paper's commit.
  virtual ftx::Duration PersistCost(int64_t bytes) = 0;

  // Cost of appending one ND-log record of `bytes` payload (the -LOG
  // protocols pay this per logged event instead of committing).
  virtual ftx::Duration LogAppendCost(int64_t bytes) = 0;

  // Fixed per-commit cost independent of data volume (register-file copy,
  // page reprotection bookkeeping, log-head update).
  virtual ftx::Duration CommitFixedCost() const = 0;

  // True if committed contents survive an operating-system crash.
  virtual bool SurvivesOsCrash() const = 0;

  virtual std::string_view name() const = 0;
};

// Cost parameters for Rio reliable memory.
struct RioParameters {
  // Register copy + atomic log discard + page-table bookkeeping on a
  // 400 MHz Pentium II: Discount Checking reports sub-millisecond
  // checkpoints.
  ftx::Duration fixed_cost = ftx::Milliseconds(1);
  // ~1 GB/s effective logging/copy bandwidth.
  ftx::Duration per_byte = ftx::Nanoseconds(1);
  ftx::Duration log_fixed = ftx::Nanoseconds(500);
};

// Rio reliable memory: persistence at memory speed.
class RioStore : public StableStore {
 public:
  explicit RioStore(RioParameters params = RioParameters()) : params_(params) {}

  ftx::Duration PersistCost(int64_t bytes) override {
    return ftx::Nanoseconds(params_.per_byte.nanos() * bytes);
  }
  ftx::Duration LogAppendCost(int64_t bytes) override {
    return params_.log_fixed + ftx::Nanoseconds(params_.per_byte.nanos() * bytes);
  }
  ftx::Duration CommitFixedCost() const override { return params_.fixed_cost; }
  bool SurvivesOsCrash() const override { return true; }
  std::string_view name() const override { return "rio"; }

 private:
  RioParameters params_;
};

// Plain volatile memory: as fast as Rio, but an operating-system crash
// destroys it — committed state survives only *process* failures. This is
// the store that shows why Discount Checking needs Rio (or a disk): without
// a crash-surviving home, an OS failure forfeits every commit.
class MemoryStore : public StableStore {
 public:
  explicit MemoryStore(RioParameters params = RioParameters()) : params_(params) {}

  ftx::Duration PersistCost(int64_t bytes) override {
    return ftx::Nanoseconds(params_.per_byte.nanos() * bytes);
  }
  ftx::Duration LogAppendCost(int64_t bytes) override {
    return params_.log_fixed + ftx::Nanoseconds(params_.per_byte.nanos() * bytes);
  }
  ftx::Duration CommitFixedCost() const override { return params_.fixed_cost; }
  bool SurvivesOsCrash() const override { return false; }
  std::string_view name() const override { return "volatile-memory"; }

 private:
  RioParameters params_;
};

// Latency parameters of the modeled rotating SCSI disk, approximating the
// paper's IBM Ultrastar DCAS-34330W (ultra-wide SCSI, 5400 RPM class).
struct DiskParameters {
  ftx::Duration average_seek = ftx::Milliseconds(8);
  ftx::Duration half_rotation = ftx::Microseconds(5600);  // 5400 RPM → 11.1 ms/rev
  // Sustained media rate ~12 MB/s → ~83 ns/byte.
  ftx::Duration per_byte = ftx::Nanoseconds(83);
};

// Synchronous disk redo log (DC-disk): the cost policy of one machine's
// disk, and its I/O counters.
class DiskStore : public StableStore {
 public:
  explicit DiskStore(DiskParameters params = {}) : params_(params) {}
  // The probes BindMetrics registers hold this store's address.
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  ftx::Duration PersistCost(int64_t bytes) override {
    ftx::Duration rotation = params_.half_rotation * 2;
    // Two synchronous I/Os: the window's redo records under one barrier,
    // then the one commit sector vouching for them under the other — so
    // seek+rotation is amortized across every record in the window and
    // only the transfer grows with payload.
    ftx::Duration cost = (params_.average_seek + rotation) * 2;
    cost += ftx::Nanoseconds(params_.per_byte.nanos() * bytes);
    NoteSyncWrite(bytes, /*ios=*/2);
    return cost;
  }
  ftx::Duration LogAppendCost(int64_t bytes) override {
    ftx::Duration cost = params_.half_rotation * 2;  // full rotation, no seek
    cost += ftx::Nanoseconds(params_.per_byte.nanos() * bytes);
    NoteSyncWrite(bytes, /*ios=*/1);
    return cost;
  }
  ftx::Duration CommitFixedCost() const override { return ftx::Microseconds(80); }
  bool SurvivesOsCrash() const override { return true; }
  std::string_view name() const override { return "dc-disk"; }

  // The latency parameters, which recovery also pays per redo record read.
  const DiskParameters& parameters() const { return params_; }

  // Exposes the I/O counters through a metrics registry as the per-process
  // probes "p<pid>.disk.sync_writes" and "p<pid>.disk.bytes_written" of the
  // process whose machine owns the disk.
  void BindMetrics(ftx_obs::Registry* registry, int pid) {
    registry->RegisterCounterProbe(pid, "disk.sync_writes", [this]() { return sync_writes_; });
    registry->RegisterCounterProbe(pid, "disk.bytes_written",
                                   [this]() { return bytes_written_; });
  }

 private:
  void NoteSyncWrite(int64_t bytes, int ios) {
    sync_writes_ += ios;
    bytes_written_ += bytes;
  }

  DiskParameters params_;
  int64_t sync_writes_ = 0;
  int64_t bytes_written_ = 0;
};

}  // namespace ftx_store

#endif  // FTX_SRC_STORAGE_STABLE_STORE_H_
