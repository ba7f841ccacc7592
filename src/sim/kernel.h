// Simulated per-process kernel state and syscall layer.
//
// Discount Checking preserves a process's *kernel* state by intercepting
// system calls, recording their parameter values, and replaying the records
// to reconstruct kernel state during recovery (§3). This module provides the
// substrate for that mechanism: a per-process kernel state (file descriptor
// table, bound ports, per-process disk usage) mutated only through syscalls,
// each of which appends a replayable record.
//
// Syscall classification (for Save-work):
//   gettimeofday            transient ND (different result after recovery)
//   open                    fixed ND (result depends on fd-table slots left)
//   write (to a file)       fixed ND (result depends on disk fullness)
//   bind / close / seek     deterministic state changes
// User input (read from a tty) and network receives live in the runtime's
// context API, not here.
//
// Fleet-scale layout: kernel state is stored in per-shard blocks following
// the engine's ShardPlan — each shard owns the state and replay logs of its
// contiguous pid range, with its own syscall/disk tallies. Global disk
// accounting (the blocks are one shared disk) is kept incrementally per
// shard instead of summed over every process on each write, so a
// 10k-process fleet pays O(num_shards) per disk-full check, not O(N). The
// numbers are identical to the monolithic sum by construction.

#ifndef FTX_SRC_SIM_KERNEL_H_
#define FTX_SRC_SIM_KERNEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/sim/partition.h"
#include "src/sim/simulator.h"

namespace ftx_sim {

struct OpenFile {
  std::string path;
  int64_t offset = 0;
  bool writable = false;

  bool operator==(const OpenFile&) const = default;
};

// Snapshot of one process's kernel-held state. Value-semantic so recovery
// tests can compare reconstructed state to the pre-crash snapshot.
struct KernelState {
  std::vector<std::optional<OpenFile>> fd_table;
  std::map<uint16_t, bool> bound_ports;
  int64_t disk_blocks_used = 0;

  bool operator==(const KernelState&) const = default;
};

// Replayable record of a state-changing syscall (the paper's "copies their
// parameter values into persistent buffers").
struct SyscallRecord {
  enum class Op : uint8_t { kOpen, kClose, kBind, kWrite, kSeek };
  Op op = Op::kOpen;
  std::string path;    // kOpen
  int fd = -1;         // kClose/kWrite/kSeek, and the result slot of kOpen
  bool writable = false;  // kOpen
  uint16_t port = 0;   // kBind
  int64_t amount = 0;  // kWrite byte count / kSeek target offset
};

struct KernelLimits {
  int max_open_files = 64;       // per process (open becomes fixed ND)
  int64_t disk_blocks_total = 1 << 20;  // shared across processes
  int64_t block_size = 4096;
};

class KernelSim {
 public:
  // The simulator supplies time-of-day and its transient-ND perturbation.
  // Monolithic layout: one state block owning all pids.
  KernelSim(Simulator* sim, int num_processes, KernelLimits limits = {});

  // Partitioned layout: one state block per shard of `plan`. Syscall
  // results are identical for every plan — only locality and the tallies
  // reported per shard change.
  KernelSim(Simulator* sim, ShardPlan plan, KernelLimits limits);

  // --- syscalls (all record into the process's replay log) ---

  // Fixed ND: fails with kResourceExhausted when the fd table is full.
  ftx::Result<int> Open(int pid, const std::string& path, bool writable);
  ftx::Status Close(int pid, int fd);
  ftx::Status Bind(int pid, uint16_t port);
  ftx::Status Seek(int pid, int fd, int64_t offset);
  // Fixed ND: fails with kResourceExhausted when the simulated disk fills.
  ftx::Result<int64_t> Write(int pid, int fd, int64_t nbytes);

  // Transient ND: simulated wall clock; includes a per-call perturbation so
  // reexecution observes different values.
  ftx::TimePoint GetTimeOfDay(int pid);

  // --- recovery support ---

  const KernelState& StateOf(int pid) const;
  KernelState SnapshotFor(int pid) const;

  // Number of records in pid's replay log (capture this at commit time).
  size_t RecordCount(int pid) const;

  // Discount Checking recovery: wipes pid's kernel state and rebuilds it by
  // replaying the first `record_count` captured syscalls, then truncates the
  // log to that point (reexecution re-appends from there).
  ftx::Status ReconstructFor(int pid, size_t record_count);

  int64_t disk_blocks_free() const;

  // --- per-shard telemetry ---

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t ShardDiskBlocksUsed(int shard) const;
  int64_t ShardSyscalls(int shard) const;

  // Exposes syscall-layer counters through a metrics registry
  // ("kernel.syscalls", "kernel.reconstructions", "kernel.disk_blocks_free").
  void BindMetrics(ftx_obs::Registry* registry);

 private:
  // One shard's kernel state: the KernelStates and replay logs of its
  // contiguous pid range, plus local tallies that roll up incrementally
  // into the global disk/syscall accounting.
  struct ShardBlock {
    std::vector<KernelState> states;
    std::vector<std::vector<SyscallRecord>> records;
    int64_t disk_blocks_used = 0;
    int64_t syscalls = 0;
  };

  ftx::Status Apply(int pid, const SyscallRecord& record, int* out_fd, int64_t* out_written);
  KernelState& MutableStateOf(int pid);
  ShardBlock& BlockOf(int pid);
  const ShardBlock& BlockOf(int pid) const;
  std::vector<SyscallRecord>& LogOf(int pid);
  void CountSyscall(int pid);

  Simulator* sim_;
  ShardPlan plan_;
  KernelLimits limits_;
  int64_t syscalls_ = 0;
  int64_t reconstructions_ = 0;
  std::vector<ShardBlock> shards_;
};

}  // namespace ftx_sim

#endif  // FTX_SRC_SIM_KERNEL_H_
