#include "src/sim/kernel.h"

#include <utility>

#include "src/common/check.h"

namespace ftx_sim {

KernelSim::KernelSim(Simulator* sim, int num_processes, KernelLimits limits)
    : KernelSim(sim, ShardPlan::Single(num_processes), limits) {}

KernelSim::KernelSim(Simulator* sim, ShardPlan plan, KernelLimits limits)
    : sim_(sim), plan_(std::move(plan)), limits_(limits) {
  FTX_CHECK(sim != nullptr);
  ftx::Status valid = ValidateShardPlan(plan_);
  FTX_CHECK_MSG(valid.ok(), "invalid shard plan: %s", valid.message().c_str());
  shards_.resize(static_cast<size_t>(plan_.num_shards()));
  for (int s = 0; s < plan_.num_shards(); ++s) {
    const size_t width = static_cast<size_t>(plan_.ShardEnd(s) - plan_.ShardBegin(s));
    shards_[static_cast<size_t>(s)].states.resize(width);
    shards_[static_cast<size_t>(s)].records.resize(width);
  }
}

KernelSim::ShardBlock& KernelSim::BlockOf(int pid) {
  FTX_CHECK_MSG(plan_.Covers(pid), "pid %d outside kernel shard plan %s", pid,
                plan_.ToString().c_str());
  return shards_[static_cast<size_t>(plan_.OwnerOf(pid))];
}

const KernelSim::ShardBlock& KernelSim::BlockOf(int pid) const {
  FTX_CHECK_MSG(plan_.Covers(pid), "pid %d outside kernel shard plan %s", pid,
                plan_.ToString().c_str());
  return shards_[static_cast<size_t>(plan_.OwnerOf(pid))];
}

KernelState& KernelSim::MutableStateOf(int pid) {
  return BlockOf(pid).states[static_cast<size_t>(pid - plan_.ShardBegin(plan_.OwnerOf(pid)))];
}

const KernelState& KernelSim::StateOf(int pid) const {
  return BlockOf(pid).states[static_cast<size_t>(pid - plan_.ShardBegin(plan_.OwnerOf(pid)))];
}

std::vector<SyscallRecord>& KernelSim::LogOf(int pid) {
  return BlockOf(pid).records[static_cast<size_t>(pid - plan_.ShardBegin(plan_.OwnerOf(pid)))];
}

void KernelSim::CountSyscall(int pid) {
  ++syscalls_;
  ++BlockOf(pid).syscalls;
}

KernelState KernelSim::SnapshotFor(int pid) const { return StateOf(pid); }

size_t KernelSim::RecordCount(int pid) const {
  return BlockOf(pid).records[static_cast<size_t>(pid - plan_.ShardBegin(plan_.OwnerOf(pid)))]
      .size();
}

int64_t KernelSim::disk_blocks_free() const {
  // The disk is shared; each shard tracks its range's usage incrementally,
  // so the global check is O(num_shards) instead of O(num_processes). The
  // sum equals the per-process sum exactly.
  int64_t used = 0;
  for (const ShardBlock& block : shards_) {
    used += block.disk_blocks_used;
  }
  return limits_.disk_blocks_total - used;
}

int64_t KernelSim::ShardDiskBlocksUsed(int shard) const {
  FTX_CHECK_GE(shard, 0);
  FTX_CHECK_LT(shard, num_shards());
  return shards_[static_cast<size_t>(shard)].disk_blocks_used;
}

int64_t KernelSim::ShardSyscalls(int shard) const {
  FTX_CHECK_GE(shard, 0);
  FTX_CHECK_LT(shard, num_shards());
  return shards_[static_cast<size_t>(shard)].syscalls;
}

// Applies one syscall to pid's kernel state. Shared by the live syscall
// entry points and the recovery replay path so both produce identical state.
ftx::Status KernelSim::Apply(int pid, const SyscallRecord& record, int* out_fd,
                             int64_t* out_written) {
  KernelState& state = MutableStateOf(pid);
  switch (record.op) {
    case SyscallRecord::Op::kOpen: {
      // Find a free slot; grow the table up to the per-process limit.
      int fd = -1;
      for (size_t i = 0; i < state.fd_table.size(); ++i) {
        if (!state.fd_table[i].has_value()) {
          fd = static_cast<int>(i);
          break;
        }
      }
      if (fd < 0) {
        if (static_cast<int>(state.fd_table.size()) >= limits_.max_open_files) {
          return ftx::ResourceExhaustedError("open file table full");
        }
        fd = static_cast<int>(state.fd_table.size());
        state.fd_table.emplace_back();
      }
      state.fd_table[static_cast<size_t>(fd)] = OpenFile{record.path, 0, record.writable};
      if (out_fd != nullptr) {
        *out_fd = fd;
      }
      return ftx::Status::Ok();
    }
    case SyscallRecord::Op::kClose: {
      if (record.fd < 0 || static_cast<size_t>(record.fd) >= state.fd_table.size() ||
          !state.fd_table[static_cast<size_t>(record.fd)].has_value()) {
        return ftx::InvalidArgumentError("close of bad fd");
      }
      state.fd_table[static_cast<size_t>(record.fd)].reset();
      return ftx::Status::Ok();
    }
    case SyscallRecord::Op::kBind: {
      if (state.bound_ports.count(record.port) != 0) {
        return ftx::FailedPreconditionError("port already bound");
      }
      state.bound_ports[record.port] = true;
      return ftx::Status::Ok();
    }
    case SyscallRecord::Op::kSeek: {
      if (record.fd < 0 || static_cast<size_t>(record.fd) >= state.fd_table.size() ||
          !state.fd_table[static_cast<size_t>(record.fd)].has_value()) {
        return ftx::InvalidArgumentError("seek of bad fd");
      }
      state.fd_table[static_cast<size_t>(record.fd)]->offset = record.amount;
      return ftx::Status::Ok();
    }
    case SyscallRecord::Op::kWrite: {
      if (record.fd < 0 || static_cast<size_t>(record.fd) >= state.fd_table.size() ||
          !state.fd_table[static_cast<size_t>(record.fd)].has_value()) {
        return ftx::InvalidArgumentError("write of bad fd");
      }
      OpenFile& file = *state.fd_table[static_cast<size_t>(record.fd)];
      if (!file.writable) {
        return ftx::FailedPreconditionError("write to read-only fd");
      }
      int64_t blocks = (record.amount + limits_.block_size - 1) / limits_.block_size;
      if (blocks > disk_blocks_free()) {
        return ftx::ResourceExhaustedError("disk full");
      }
      state.disk_blocks_used += blocks;
      BlockOf(pid).disk_blocks_used += blocks;
      file.offset += record.amount;
      if (out_written != nullptr) {
        *out_written = record.amount;
      }
      return ftx::Status::Ok();
    }
  }
  return ftx::InternalError("unknown syscall op");
}

ftx::Result<int> KernelSim::Open(int pid, const std::string& path, bool writable) {
  CountSyscall(pid);
  SyscallRecord record;
  record.op = SyscallRecord::Op::kOpen;
  record.path = path;
  record.writable = writable;
  int fd = -1;
  ftx::Status status = Apply(pid, record, &fd, nullptr);
  if (!status.ok()) {
    return status;
  }
  record.fd = fd;
  LogOf(pid).push_back(std::move(record));
  return fd;
}

ftx::Status KernelSim::Close(int pid, int fd) {
  CountSyscall(pid);
  SyscallRecord record;
  record.op = SyscallRecord::Op::kClose;
  record.fd = fd;
  FTX_RETURN_IF_ERROR(Apply(pid, record, nullptr, nullptr));
  LogOf(pid).push_back(std::move(record));
  return ftx::Status::Ok();
}

ftx::Status KernelSim::Bind(int pid, uint16_t port) {
  CountSyscall(pid);
  SyscallRecord record;
  record.op = SyscallRecord::Op::kBind;
  record.port = port;
  FTX_RETURN_IF_ERROR(Apply(pid, record, nullptr, nullptr));
  LogOf(pid).push_back(std::move(record));
  return ftx::Status::Ok();
}

ftx::Status KernelSim::Seek(int pid, int fd, int64_t offset) {
  CountSyscall(pid);
  SyscallRecord record;
  record.op = SyscallRecord::Op::kSeek;
  record.fd = fd;
  record.amount = offset;
  FTX_RETURN_IF_ERROR(Apply(pid, record, nullptr, nullptr));
  LogOf(pid).push_back(std::move(record));
  return ftx::Status::Ok();
}

ftx::Result<int64_t> KernelSim::Write(int pid, int fd, int64_t nbytes) {
  CountSyscall(pid);
  FTX_CHECK_GE(nbytes, 0);
  SyscallRecord record;
  record.op = SyscallRecord::Op::kWrite;
  record.fd = fd;
  record.amount = nbytes;
  int64_t written = 0;
  ftx::Status status = Apply(pid, record, nullptr, &written);
  if (!status.ok()) {
    return status;
  }
  LogOf(pid).push_back(std::move(record));
  return written;
}

ftx::TimePoint KernelSim::GetTimeOfDay(int pid) {
  CountSyscall(pid);
  // The perturbation models clock-read granularity; more importantly it is
  // drawn from the simulator's RNG stream, so a reexecuting process sees a
  // different value — the definition of a transient ND event.
  int64_t noise = static_cast<int64_t>(sim_->rng().NextBounded(1000));
  return sim_->Now() + ftx::Nanoseconds(noise);
}

ftx::Status KernelSim::ReconstructFor(int pid, size_t record_count) {
  ++reconstructions_;
  auto& log = LogOf(pid);
  FTX_CHECK_LE(record_count, log.size());

  // Release this process's disk usage before rebuilding (replayed writes
  // re-account it, in its shard's tally as well as its own state).
  KernelState& state = MutableStateOf(pid);
  BlockOf(pid).disk_blocks_used -= state.disk_blocks_used;
  state = KernelState{};

  for (size_t i = 0; i < record_count; ++i) {
    int fd = -1;
    ftx::Status status = Apply(pid, log[i], &fd, nullptr);
    if (!status.ok()) {
      return ftx::InternalError("kernel reconstruction diverged: " + status.ToString());
    }
    // Replay determinism check: an open must land on the same fd slot it
    // produced originally, or descriptors held by the application would
    // dangle.
    if (log[i].op == SyscallRecord::Op::kOpen && fd != log[i].fd) {
      return ftx::InternalError("kernel reconstruction assigned a different fd");
    }
  }
  log.resize(record_count);
  return ftx::Status::Ok();
}

void KernelSim::BindMetrics(ftx_obs::Registry* registry) {
  registry->RegisterCounterProbe("kernel.syscalls", [this]() { return syscalls_; });
  registry->RegisterCounterProbe("kernel.reconstructions", [this]() { return reconstructions_; });
  registry->RegisterGaugeProbe("kernel.disk_blocks_free",
                               [this]() { return static_cast<double>(disk_blocks_free()); });
}

}  // namespace ftx_sim
