// Equivalence and determinism battery for the partitioned event engine
// (src/sim/partition.h, src/sim/simulator.h).
//
// The engine's contract is byte-identity: any shard plan replays the exact
// monolithic event order, because every event carries its global schedule id
// and the merge front picks the globally least (time, id) across shard
// heaps. The tests here pin that contract three ways:
//
//  * a raw-engine property test: randomized event cascades must execute in
//    the identical global order under shard counts {1, 2, 4, N};
//  * a fleet property test: randomized client/server fleets (N <= 16
//    processes, crash injection included) must produce byte-identical
//    visible output, traces, commit/rollback totals, and final segment
//    images under every shard count;
//  * regression pins for the cross-shard FIFO tiebreak (the network's
//    per-channel +1 ns bump must not reorder same-timestamp deliveries from
//    different source shards) and death tests for invalid shard plans.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/apps/fleet.h"
#include "src/common/rng.h"
#include "src/core/computation.h"
#include "src/sim/partition.h"
#include "src/sim/simulator.h"

namespace {

using ftx_sim::Network;
using ftx_sim::ShardPlan;
using ftx_sim::Simulator;
using ftx_sim::ValidateShardPlan;

// --- ShardPlan structure ---

TEST(ShardPlan, UniformDistributesRemainders) {
  ShardPlan plan = ShardPlan::Uniform(10, 3);
  EXPECT_EQ(plan.num_shards(), 3);
  EXPECT_EQ(plan.num_processes(), 10);
  // 10 = 4 + 3 + 3: the first `10 % 3` shards get the extra pid.
  EXPECT_EQ(plan.bounds, (std::vector<int>{0, 4, 7, 10}));
  EXPECT_EQ(plan.ToString(), "{[0,4),[4,7),[7,10)}");
}

TEST(ShardPlan, OwnerOfMapsEveryPid) {
  ShardPlan plan = ShardPlan::Uniform(10, 3);
  for (int pid = 0; pid < 10; ++pid) {
    int owner = plan.OwnerOf(pid);
    EXPECT_GE(pid, plan.ShardBegin(owner));
    EXPECT_LT(pid, plan.ShardEnd(owner));
  }
  EXPECT_FALSE(plan.Covers(-1));
  EXPECT_FALSE(plan.Covers(10));
}

TEST(ShardPlan, SingleIsTheMonolithicPlan) {
  ShardPlan plan = ShardPlan::Single(7);
  EXPECT_EQ(plan.num_shards(), 1);
  EXPECT_EQ(plan.num_processes(), 7);
  EXPECT_TRUE(ValidateShardPlan(plan).ok());
}

TEST(ShardPlan, ValidateRejectsMalformedPlans) {
  ShardPlan no_shards;
  no_shards.bounds = {0};
  EXPECT_FALSE(ValidateShardPlan(no_shards).ok());

  ShardPlan offset_start;
  offset_start.bounds = {1, 5};
  EXPECT_FALSE(ValidateShardPlan(offset_start).ok());

  ShardPlan empty_range;
  empty_range.bounds = {0, 2, 2, 5};
  EXPECT_FALSE(ValidateShardPlan(empty_range).ok());

  ShardPlan decreasing;
  decreasing.bounds = {0, 4, 2};
  EXPECT_FALSE(ValidateShardPlan(decreasing).ok());

  EXPECT_TRUE(ValidateShardPlan(ShardPlan::Uniform(16, 4)).ok());
}

// --- death tests: invalid shard configurations abort loudly ---

TEST(ShardPlanDeathTest, ZeroShardsAborts) {
  EXPECT_DEATH(ShardPlan::Uniform(10, 0), "at least one shard");
}

TEST(ShardPlanDeathTest, MoreShardsThanProcessesAborts) {
  EXPECT_DEATH(ShardPlan::Uniform(4, 8), "more shards than processes");
}

TEST(ShardPlanDeathTest, SimulatorRejectsNonContiguousPlan) {
  ShardPlan plan;
  plan.bounds = {0, 2, 2, 5};  // shard 1 is empty: [2, 2)
  EXPECT_DEATH(Simulator(1, plan), "empty or non-contiguous");
}

// --- engine property: identical global order for every shard count ---

// Runs a randomized event cascade: `num_processes` pseudo-processes firing
// labeled events that reschedule further events onto random pids, all
// deterministic from `seed` given a fixed execution order. Returns the
// executed (time, label) sequence.
std::vector<std::pair<int64_t, int>> RunRandomCascade(uint64_t seed, int num_processes,
                                                      int shards) {
  Simulator sim(seed, ShardPlan::Uniform(num_processes, shards));
  std::vector<std::pair<int64_t, int>> order;
  int next_label = 0;
  int budget = 400;
  // The cascade draws from the simulator's own rng *inside* callbacks: the
  // draws only line up across shard counts if the global execution order is
  // identical, so any divergence amplifies into an immediate mismatch.
  std::function<void(int)> fire = [&](int label) {
    order.emplace_back(sim.Now().nanos(), label);
    int spawn = static_cast<int>(sim.rng().NextBounded(3));
    for (int i = 0; i < spawn && budget > 0; ++i, --budget) {
      int pid = static_cast<int>(sim.rng().NextBounded(static_cast<uint64_t>(num_processes)));
      int64_t delay = static_cast<int64_t>(sim.rng().NextBounded(500));
      int child = next_label++;
      sim.ScheduleAfterFor(pid, ftx::Nanoseconds(delay), [&fire, child] { fire(child); });
    }
  };
  ftx::Rng seeder(seed);
  for (int pid = 0; pid < num_processes; ++pid) {
    int label = next_label++;
    sim.ScheduleAtFor(pid, ftx::TimePoint() + ftx::Nanoseconds(static_cast<int64_t>(
                               seeder.NextBounded(100))),
                      [&fire, label] { fire(label); });
  }
  sim.RunUntilIdle();
  return order;
}

TEST(ShardedSimulator, RandomCascadesReplayMonolithicOrder) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const int num_processes = 2 + static_cast<int>(seed % 15);  // 2..16
    const auto monolithic = RunRandomCascade(seed, num_processes, 1);
    for (int shards : {2, 4, num_processes}) {
      if (shards > num_processes) {
        continue;
      }
      const auto sharded = RunRandomCascade(seed, num_processes, shards);
      ASSERT_EQ(sharded, monolithic)
          << "event order diverged: seed " << seed << ", " << num_processes
          << " processes, " << shards << " shards";
    }
  }
}

// --- regression: cross-shard tiebreak uses the global schedule id ---

// Three same-timestamp events on two shards, scheduled in the order
// A(shard 1), B(shard 0), C(shard 1). A merge front keyed by per-shard
// local ids (or scanning shards in index order on ties) would run B first;
// the global schedule id pins A, B, C.
TEST(ShardedSimulator, SameTimestampCrossShardEventsRunInGlobalScheduleOrder) {
  Simulator sim(1, ShardPlan::Uniform(2, 2));
  std::vector<char> order;
  const ftx::TimePoint t = ftx::TimePoint() + ftx::Microseconds(5);
  sim.ScheduleAtFor(1, t, [&] { order.push_back('A'); });
  sim.ScheduleAtFor(0, t, [&] { order.push_back('B'); });
  sim.ScheduleAtFor(1, t, [&] { order.push_back('C'); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

// The network's per-channel FIFO bump (+1 ns when a later send would tie an
// earlier delivery on the same channel) must not reorder deliveries across
// shard boundaries: a bumped delivery from shard 0 and a natural delivery
// from shard 2 land at the same instant on the receiver's shard, and the
// inbox must see them in global send order.
TEST(ShardedSimulator, FifoBumpKeepsCrossShardSendOrder) {
  Simulator sim(1, ShardPlan::Uniform(3, 3));
  ftx_sim::NetworkOptions options;
  options.max_jitter = ftx::Duration();  // deterministic latency
  Network net(&sim, 3, options);

  // Two back-to-back sends on channel (0 -> 1): the second would tie the
  // first, so FIFO bumps it by 1 ns.
  net.Send(0, 1, ftx::Bytes{'A'});
  net.Send(0, 1, ftx::Bytes{'B'});
  // From another shard, a 1-ns-later send of an equal-sized payload: its
  // natural delivery lands exactly on B's bumped instant.
  sim.ScheduleAtFor(2, ftx::TimePoint() + ftx::Nanoseconds(1),
                    [&] { net.Send(2, 1, ftx::Bytes{'C'}); });
  sim.RunUntilIdle();

  std::vector<char> inbox;
  std::vector<int64_t> delivered_at;
  while (auto msg = net.Deliver(1)) {
    inbox.push_back(static_cast<char>(msg->payload[0]));
    delivered_at.push_back(msg->delivered_at.nanos());
  }
  EXPECT_EQ(inbox, (std::vector<char>{'A', 'B', 'C'}));
  ASSERT_EQ(delivered_at.size(), 3u);
  EXPECT_EQ(delivered_at[1], delivered_at[0] + 1);  // the per-channel bump
  EXPECT_EQ(delivered_at[2], delivered_at[1]);      // tied from another shard
}

// --- fleet property: whole computations are byte-identical per shard plan ---

uint64_t Fnv1a(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 0x100000001b3ULL;
  }
  return hash;
}

// One randomized fleet run, fully serialized: configuration and crash plan
// derive from the seed, so two calls differing only in `shards` must return
// identical strings.
std::string FleetFingerprint(uint64_t seed, int shards, bool lean_trace) {
  ftx::Rng rng(seed);
  ftx_apps::FleetConfig config;
  config.num_servers = 1 + static_cast<int>(rng.NextBounded(3));
  config.num_clients =
      1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(16 - config.num_servers)));
  config.requests_per_client = 1 + static_cast<int>(rng.NextBounded(4));
  config.report_every = 1 + static_cast<int>(rng.NextBounded(8));
  config.client_think = ftx::Microseconds(10 + static_cast<int64_t>(rng.NextBounded(90)));

  ftx::ComputationOptions options;
  options.seed = seed;
  options.protocol = (seed % 2 == 0) ? "cpv-2pc" : "cbndv-2pc";
  options.store = ftx::StoreKind::kRio;
  options.shards = shards;
  options.lean_trace = lean_trace;
  options.recovery_delay = ftx::Microseconds(100);
  ftx::Computation computation(options, ftx_apps::MakeFleetApps(config));

  // Crash injection on half the seeds: one or two stop failures at random
  // times inside the fleet's active window.
  if (rng.NextBernoulli(0.5)) {
    const int crashes = 1 + static_cast<int>(rng.NextBounded(2));
    for (int i = 0; i < crashes; ++i) {
      int pid = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(config.num_processes())));
      int64_t at_us = 20 + static_cast<int64_t>(rng.NextBounded(400));
      computation.ScheduleStopFailure(pid, ftx::TimePoint() + ftx::Microseconds(at_us),
                                      ftx::Microseconds(100));
    }
  }
  ftx::ComputationResult result = computation.Run();

  std::string fp;
  fp += "all_done=";
  fp += std::to_string(result.all_done);
  fp += " end=";
  fp += std::to_string(result.end_time.nanos());
  fp += " commits=";
  fp += std::to_string(result.total_commits);
  fp += " events=";
  fp += std::to_string(result.total_events);
  fp += " rollbacks=";
  fp += std::to_string(result.total_rollbacks);
  fp += "\n";
  // The user-observed visible stream, globally ordered: the strongest
  // external observable.
  for (const ftx_rec::VisibleEvent& visible : computation.recorder().events()) {
    fp += "v p";
    fp += std::to_string(visible.process);
    fp += " t";
    fp += std::to_string(visible.time.nanos());
    fp += " [";
    for (uint8_t byte : visible.payload) {
      fp += std::to_string(byte);
      fp += ",";
    }
    fp += "]\n";
  }
  // Per-process executed-event logs (the commit sequence rides in here as
  // kCommit events with their atomic 2PC group ids).
  for (int pid = 0; pid < config.num_processes(); ++pid) {
    fp += "p";
    fp += std::to_string(pid);
    fp += ":";
    for (const ftx_sm::TraceEvent& event : computation.trace().ProcessEvents(pid)) {
      fp += " ";
      fp += std::to_string(static_cast<int>(event.kind));
      fp += "/";
      fp += std::to_string(event.message_id);
      fp += "/";
      fp += std::to_string(event.logged);
      fp += "/";
      fp += std::to_string(event.atomic_group);
    }
    fp += "\n";
  }
  // Final committed segment images.
  for (int pid = 0; pid < config.num_processes(); ++pid) {
    const ftx_vista::Segment& segment = computation.runtime(pid).segment();
    fp += "seg";
    fp += std::to_string(pid);
    fp += "=";
    fp += std::to_string(Fnv1a(0xcbf29ce484222325ULL, segment.data(), segment.size()));
    fp += "\n";
  }
  return fp;
}

TEST(ShardedFleet, EveryShardCountMatchesMonolithic) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    const std::string monolithic = FleetFingerprint(seed, 1, /*lean_trace=*/false);
    // Derive the fleet size the same way FleetFingerprint does, to know N.
    ftx::Rng rng(seed);
    const int servers = 1 + static_cast<int>(rng.NextBounded(3));
    const int clients = 1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(16 - servers)));
    const int num_processes = servers + clients;
    std::set<int> shard_counts = {2, 4, num_processes};
    for (int shards : shard_counts) {
      if (shards <= 1 || shards > num_processes) {
        continue;
      }
      ASSERT_EQ(FleetFingerprint(seed, shards, /*lean_trace=*/false), monolithic)
          << "fleet diverged: seed " << seed << ", " << num_processes << " processes, "
          << shards << " shards";
    }
  }
}

TEST(ShardedFleet, LeanTraceChangesNoSimulatedByte) {
  // The lean (clock-free) trace mode drops only observer state; visible
  // output, event logs, commit totals, and segments must not move.
  for (uint64_t seed : {3u, 8u, 21u}) {
    EXPECT_EQ(FleetFingerprint(seed, 4, /*lean_trace=*/true),
              FleetFingerprint(seed, 4, /*lean_trace=*/false))
        << "lean trace perturbed simulated state at seed " << seed;
  }
}

TEST(ShardedFleet, AuditChangesNoSimulatedByte) {
  // The causal audit threads through the sharded engine unchanged: audited
  // and unaudited runs must agree on every simulated observable.
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 10;
  config.requests_per_client = 3;
  config.report_every = 4;
  auto run = [&](bool audit) {
    ftx::ComputationOptions options;
    options.seed = 5;
    options.protocol = "cbndv-2pc";
    options.shards = 4;
    options.audit = audit;
    ftx::Computation computation(options, ftx_apps::MakeFleetApps(config));
    computation.ScheduleStopFailure(3, ftx::TimePoint() + ftx::Microseconds(120),
                                    ftx::Microseconds(100));
    ftx::ComputationResult result = computation.Run();
    std::string fp = std::to_string(result.total_commits) + "/" +
                     std::to_string(result.total_rollbacks) + "/" +
                     std::to_string(result.end_time.nanos()) + "/" +
                     std::to_string(result.total_events);
    for (const ftx_rec::VisibleEvent& visible : computation.recorder().events()) {
      fp += " " + std::to_string(visible.process) + "@" + std::to_string(visible.time.nanos());
    }
    for (int pid = 0; pid < config.num_processes(); ++pid) {
      const ftx_vista::Segment& segment = computation.runtime(pid).segment();
      fp += " " + std::to_string(Fnv1a(0xcbf29ce484222325ULL, segment.data(), segment.size()));
    }
    return fp;
  };
  EXPECT_EQ(run(false), run(true));
}

// --- fleet workload sanity: the ledger is exactly-once at small scale ---

TEST(ShardedFleet, ExactlyOnceUnderCrashes) {
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 12;
  config.requests_per_client = 4;
  config.report_every = 4;
  ftx::ComputationOptions options;
  options.seed = 77;
  options.protocol = "cbndv-2pc";
  options.shards = 7;  // deliberately uneven: 14 processes over 7 shards
  options.recovery_delay = ftx::Microseconds(100);
  ftx::Computation computation(options, ftx_apps::MakeFleetApps(config));
  computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Microseconds(90),
                                  ftx::Microseconds(100));
  computation.ScheduleStopFailure(5, ftx::TimePoint() + ftx::Microseconds(150),
                                  ftx::Microseconds(100));
  ftx::ComputationResult result = computation.Run();
  ASSERT_TRUE(result.all_done);

  int64_t applied = 0;
  int64_t value_sum = 0;
  for (int s = 0; s < config.num_servers; ++s) {
    applied += ftx_apps::FleetServer::AppliedCount(computation.runtime(s));
    value_sum += ftx_apps::FleetServer::ValueSum(computation.runtime(s));
  }
  EXPECT_EQ(applied, static_cast<int64_t>(config.num_clients) * config.requests_per_client);
  EXPECT_EQ(value_sum, ftx_apps::FleetExpectedValueSum(config));
  for (int c = 0; c < config.num_clients; ++c) {
    EXPECT_EQ(ftx_apps::FleetClient::AckedCount(computation.runtime(config.num_servers + c)),
              config.requests_per_client)
        << "client " << c;
  }
}

}  // namespace
