#include "src/sim/kernel.h"

#include <utility>

#include "src/common/check.h"

namespace ftx_sim {

KernelSim::KernelSim(Simulator* sim, int num_processes, KernelLimits limits)
    : sim_(sim), limits_(limits) {
  FTX_CHECK(sim != nullptr);
  FTX_CHECK_GE(num_processes, 1);
  states_.resize(static_cast<size_t>(num_processes));
  records_.resize(static_cast<size_t>(num_processes));
}

size_t KernelSim::Index(int pid) const {
  FTX_CHECK_MSG(pid >= 0 && static_cast<size_t>(pid) < states_.size(),
                "pid %d outside the kernel's %zu processes", pid, states_.size());
  return static_cast<size_t>(pid);
}

const KernelState& KernelSim::StateOf(int pid) const { return states_[Index(pid)]; }

KernelState KernelSim::SnapshotFor(int pid) const { return StateOf(pid); }

size_t KernelSim::RecordCount(int pid) const { return records_[Index(pid)].size(); }

// Applies one syscall to pid's kernel state. Shared by the live syscall
// entry points and the recovery replay path so both produce identical state.
ftx::Status KernelSim::Apply(int pid, const SyscallRecord& record, int* out_fd,
                             int64_t* out_written) {
  KernelState& state = states_[Index(pid)];
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
      disk_blocks_used_ += blocks;
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
  ++syscalls_;
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
  records_[Index(pid)].push_back(std::move(record));
  return fd;
}

ftx::Status KernelSim::Close(int pid, int fd) {
  ++syscalls_;
  SyscallRecord record;
  record.op = SyscallRecord::Op::kClose;
  record.fd = fd;
  FTX_RETURN_IF_ERROR(Apply(pid, record, nullptr, nullptr));
  records_[Index(pid)].push_back(std::move(record));
  return ftx::Status::Ok();
}

ftx::Status KernelSim::Bind(int pid, uint16_t port) {
  ++syscalls_;
  SyscallRecord record;
  record.op = SyscallRecord::Op::kBind;
  record.port = port;
  FTX_RETURN_IF_ERROR(Apply(pid, record, nullptr, nullptr));
  records_[Index(pid)].push_back(std::move(record));
  return ftx::Status::Ok();
}

ftx::Status KernelSim::Seek(int pid, int fd, int64_t offset) {
  ++syscalls_;
  SyscallRecord record;
  record.op = SyscallRecord::Op::kSeek;
  record.fd = fd;
  record.amount = offset;
  FTX_RETURN_IF_ERROR(Apply(pid, record, nullptr, nullptr));
  records_[Index(pid)].push_back(std::move(record));
  return ftx::Status::Ok();
}

ftx::Result<int64_t> KernelSim::Write(int pid, int fd, int64_t nbytes) {
  ++syscalls_;
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
  records_[Index(pid)].push_back(std::move(record));
  return written;
}

ftx::TimePoint KernelSim::GetTimeOfDay(int pid) {
  Index(pid);  // only a process of this kernel calls it
  ++syscalls_;
  // The perturbation models clock-read granularity; more importantly it is
  // drawn from the simulator's RNG stream, so a reexecuting process sees a
  // different value — the definition of a transient ND event.
  int64_t noise = static_cast<int64_t>(sim_->rng().NextBounded(1000));
  return sim_->Now() + ftx::Nanoseconds(noise);
}

ftx::Status KernelSim::ReconstructFor(int pid, size_t record_count) {
  ++reconstructions_;
  auto& log = records_[Index(pid)];
  FTX_CHECK_LE(record_count, log.size());

  // Release this process's disk usage before rebuilding (replayed writes
  // re-account it, in the total as well as its own state).
  KernelState& state = states_[Index(pid)];
  disk_blocks_used_ -= state.disk_blocks_used;
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
