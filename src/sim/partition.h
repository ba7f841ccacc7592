// Shard plans: contiguous partitions of process ids for the partitioned
// event engine.
//
// A fleet-scale simulation splits its processes across sub-simulators
// ("shards"), one per contiguous pid range. The plan is pure data — which
// shard owns which pids — kept by the Simulator alone (per-shard event
// heaps; a network delivery lands on the receiver's shard because the
// Network schedules it for the receiving pid). Partitioning never changes
// simulated results: the engine's merge front replays the exact monolithic event
// order for any plan (see simulator.h), so a plan is a layout choice, not a
// semantic one.

#ifndef FTX_SRC_SIM_PARTITION_H_
#define FTX_SRC_SIM_PARTITION_H_

#include <string>
#include <vector>

#include "src/common/status.h"

namespace ftx_sim {

// Contiguous partition of pids [0, num_processes()) into shards: shard s
// owns [bounds[s], bounds[s+1]). A valid plan has strictly increasing
// bounds starting at 0, so the ranges are non-empty, non-overlapping, and
// cover every pid — ValidateShardPlan rejects anything else.
struct ShardPlan {
  std::vector<int> bounds{0, 1};

  int num_shards() const { return static_cast<int>(bounds.size()) - 1; }
  int num_processes() const { return bounds.empty() ? 0 : bounds.back(); }

  int ShardBegin(int shard) const { return bounds[static_cast<size_t>(shard)]; }
  int ShardEnd(int shard) const { return bounds[static_cast<size_t>(shard) + 1]; }

  bool Covers(int pid) const { return pid >= 0 && pid < num_processes(); }

  // Owning shard of a covered pid (callers check Covers first).
  int OwnerOf(int pid) const;

  std::string ToString() const;  // e.g. "{[0,3),[3,6)}"

  // One shard owning everything — the monolithic engine.
  static ShardPlan Single(int num_processes);

  // num_processes split into num_shards near-equal contiguous ranges (the
  // first `num_processes % num_shards` ranges get one extra pid). Aborts on
  // num_shards < 1, num_processes < 1, or num_shards > num_processes — the
  // configurations the death tests pin.
  static ShardPlan Uniform(int num_processes, int num_shards);
};

// Structural validation: at least one shard, bounds[0] == 0, and strictly
// increasing bounds (empty or out-of-order ranges are the "non-contiguous"
// misconfigurations). The Simulator aborts on an invalid plan.
ftx::Status ValidateShardPlan(const ShardPlan& plan);

}  // namespace ftx_sim

#endif  // FTX_SRC_SIM_PARTITION_H_
