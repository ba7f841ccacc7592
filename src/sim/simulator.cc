#include "src/sim/simulator.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"

namespace ftx_sim {

Simulator::Simulator(uint64_t seed, ShardPlan plan) : plan_(std::move(plan)), rng_(seed) {
  ftx::Status valid = ValidateShardPlan(plan_);
  FTX_CHECK_MSG(valid.ok(), "invalid shard plan: %s", valid.message().c_str());
  shards_.resize(static_cast<size_t>(plan_.num_shards()));
  // While this simulator lives, log lines carry its simulated clock.
  ftx::SetLogSimTimeSource(this, [](const void* owner) {
    return static_cast<const Simulator*>(owner)->Now().nanos();
  });
}

Simulator::~Simulator() { ftx::ClearLogSimTimeSource(this); }

void Simulator::BindMetrics(ftx_obs::Registry* registry) {
  registry->RegisterCounterProbe("sim.events_executed", [this]() { return events_executed_; });
  registry->RegisterCounterProbe("sim.events_scheduled", [this]() { return next_seq_; });
  registry->RegisterGaugeProbe("sim.now_s", [this]() { return now_.seconds(); });
  if (num_shards() > 1) {
    registry->RegisterGaugeProbe("sim.shards", [this]() { return double(num_shards()); });
    registry->RegisterCounterProbe("sim.cross_shard_events",
                                   [this]() { return cross_shard_events_; });
  }
}

void Simulator::ScheduleOn(int shard, ftx::TimePoint t, std::function<void()> fn) {
  FTX_CHECK_MSG(t >= now_, "scheduling into the past: %s < %s", t.ToString().c_str(),
                now_.ToString().c_str());
  if (shard != executing_shard_) {
    ++cross_shard_events_;
  }
  shards_[static_cast<size_t>(shard)].queue.push(Scheduled{t, next_seq_++, std::move(fn)});
  ++pending_;
}

void Simulator::ScheduleAt(ftx::TimePoint t, std::function<void()> fn) {
  ScheduleOn(0, t, std::move(fn));
}

void Simulator::ScheduleAfter(ftx::Duration d, std::function<void()> fn) {
  FTX_CHECK_GE(d.nanos(), 0);
  ScheduleOn(0, now_ + d, std::move(fn));
}

void Simulator::ScheduleAtFor(int pid, ftx::TimePoint t, std::function<void()> fn) {
  ScheduleOn(OwnerShardOf(pid), t, std::move(fn));
}

void Simulator::ScheduleAfterFor(int pid, ftx::Duration d, std::function<void()> fn) {
  FTX_CHECK_GE(d.nanos(), 0);
  ScheduleOn(OwnerShardOf(pid), now_ + d, std::move(fn));
}

int Simulator::FrontShard() const {
  // The merge front: the shard whose head event has the globally least
  // (time, seq). Heads are compared with the same ordering as the heaps
  // themselves, so the pick is exactly the event a single merged heap would
  // pop — monolithic order, reproduced shard-by-shard.
  int best = -1;
  const Later later;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const auto& q = shards_[s].queue;
    if (q.empty()) {
      continue;
    }
    if (best < 0 || later(shards_[static_cast<size_t>(best)].queue.top(), q.top())) {
      best = static_cast<int>(s);
    }
  }
  return best;
}

ftx::TimePoint Simulator::NextEventTime() const {
  const int front = FrontShard();
  FTX_CHECK_MSG(front >= 0, "NextEventTime with no pending event");
  return shards_[static_cast<size_t>(front)].queue.top().time;
}

bool Simulator::RunOne() {
  const int front = FrontShard();
  if (front < 0) {
    return false;
  }
  Shard& shard = shards_[static_cast<size_t>(front)];
  // priority_queue::top is const; the callback is moved out via const_cast,
  // which is safe because the element is popped immediately after.
  auto& top = const_cast<Scheduled&>(shard.queue.top());
  ftx::TimePoint t = top.time;
  std::function<void()> fn = std::move(top.fn);
  shard.queue.pop();
  --pending_;
  now_ = t;
  ++events_executed_;
  executing_shard_ = front;
  fn();
  executing_shard_ = 0;
  return true;
}

void Simulator::RunUntil(ftx::TimePoint deadline) {
  while (HasPending() && NextEventTime() <= deadline) {
    RunOne();
  }
}

void Simulator::RunUntilIdle(int64_t max_events) {
  int64_t executed = 0;
  while (RunOne()) {
    FTX_CHECK_MSG(++executed <= max_events, "simulator exceeded %lld events; runaway loop?",
                  static_cast<long long>(max_events));
  }
}

}  // namespace ftx_sim
