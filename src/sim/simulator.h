// Deterministic discrete-event simulator with a partitioned event engine.
//
// All experiments run on simulated time: callbacks ordered by (time, seq),
// where seq is a single global schedule counter. Ties break by that counter
// — insertion order — so a run is a pure function of the seed, the property
// every recovery experiment relies on for reproducing executions before and
// after injected failures.
//
// Fleet-scale runs partition the engine: one sub-simulator ("shard") per
// contiguous pid range (ShardPlan), each owning a local event heap. Events
// scheduled for a process land on its owner shard's heap; RunOne pops from a deterministic merge front that picks the
// globally least (time, seq) entry across shard heads. Because every event
// carries the global schedule id — never a shard-local one — the merge
// front replays the exact monolithic event order for ANY shard count:
// within a shard, local heap order is a subsequence of the global order,
// and across shards the global id decides same-timestamp ties (the
// cross-shard generalization of the byte-identical --jobs discipline in
// src/core/parallel.h). Sharding is therefore a layout/locality choice —
// smaller heaps — with zero semantic footprint. The simulator is the only
// component that keeps the plan.
//
// The simulator calls no observer. Its owner reads the next event's time
// (NextEventTime) when it wants to sample state between events.

#ifndef FTX_SRC_SIM_SIMULATOR_H_
#define FTX_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/sim/partition.h"

namespace ftx_sim {

class Simulator {
 public:
  // Monolithic engine: one shard owning everything.
  explicit Simulator(uint64_t seed) : Simulator(seed, ShardPlan()) {}

  // Partitioned engine. Aborts on an invalid plan (see ValidateShardPlan).
  Simulator(uint64_t seed, ShardPlan plan);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ftx::TimePoint Now() const { return now_; }
  ftx::Rng& rng() { return rng_; }

  const ShardPlan& plan() const { return plan_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Owner shard for per-process events. Pids outside the plan (control
  // events of a computation whose plan was not sized for them) fall back to
  // shard 0, the control shard — placement never affects execution order.
  int OwnerShardOf(int pid) const {
    return plan_.Covers(pid) ? plan_.OwnerOf(pid) : 0;
  }

  // Exposes the simulator's activity counters and clock through a metrics
  // registry ("sim.events_executed", "sim.events_scheduled", "sim.now_s").
  // Multi-shard engines additionally expose "sim.shards" and
  // "sim.cross_shard_events" (single-shard engines register exactly the
  // monolithic instrument set, keeping golden snapshots byte-stable). The
  // simulator must outlive the registry's snapshots.
  void BindMetrics(ftx_obs::Registry* registry);

  // Schedules fn to run at absolute time t (>= Now()) on the control shard.
  void ScheduleAt(ftx::TimePoint t, std::function<void()> fn);
  void ScheduleAfter(ftx::Duration d, std::function<void()> fn);

  // Schedules fn on pid's owner shard (same global ordering either way).
  void ScheduleAtFor(int pid, ftx::TimePoint t, std::function<void()> fn);
  void ScheduleAfterFor(int pid, ftx::Duration d, std::function<void()> fn);

  // Executes the next pending callback — the merge front's least
  // (time, global seq) across all shard heaps — advancing the clock to its
  // time. Returns false when every heap is empty.
  bool RunOne();

  // Runs callbacks until the queues are empty or the next callback is
  // scheduled after `deadline` (the clock is then left at the last executed
  // event's time).
  void RunUntil(ftx::TimePoint deadline);

  // Runs until the queues drain. `max_events` guards against runaway loops
  // in tests; exceeding it aborts.
  void RunUntilIdle(int64_t max_events = 100000000);

  int64_t events_executed() const { return events_executed_; }
  bool HasPending() const { return pending_ > 0; }

  // Time of the event RunOne would execute next: the head of the merge
  // front. Until it runs, the simulation state is exactly the state after
  // every event before that time, so a caller that samples state here (the
  // tsdb, from Computation::Run) sees each cadence boundary lazily.
  // Requires HasPending().
  ftx::TimePoint NextEventTime() const;

  // Events whose scheduling callback ran on a different shard than the one
  // they landed on (cross-shard message deliveries, mostly).
  int64_t cross_shard_events() const { return cross_shard_events_; }

 private:
  struct Scheduled {
    ftx::TimePoint time;
    int64_t seq;  // global schedule id — the merge front's tiebreak
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  struct Shard {
    std::priority_queue<Scheduled, std::vector<Scheduled>, Later> queue;
  };

  void ScheduleOn(int shard, ftx::TimePoint t, std::function<void()> fn);
  // Shard holding the merge front's next event, or -1 when all heaps are
  // empty.
  int FrontShard() const;

  ShardPlan plan_;
  ftx::TimePoint now_;
  int64_t next_seq_ = 0;
  int64_t events_executed_ = 0;
  int64_t pending_ = 0;
  int64_t cross_shard_events_ = 0;
  int executing_shard_ = 0;  // shard of the currently running callback
  std::vector<Shard> shards_;
  ftx::Rng rng_;
};

}  // namespace ftx_sim

#endif  // FTX_SRC_SIM_SIMULATOR_H_
