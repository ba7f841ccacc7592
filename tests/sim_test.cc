// Tests for the discrete-event simulator, the network (including recovery
// buffers), and the simulated kernel (including syscall-replay
// reconstruction).

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sim/kernel.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace {

using ftx_sim::KernelSim;
using ftx_sim::Network;
using ftx_sim::Simulator;

// --- Simulator ---

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.ScheduleAfter(ftx::Milliseconds(30), [&] { order.push_back(3); });
  sim.ScheduleAfter(ftx::Milliseconds(10), [&] { order.push_back(1); });
  sim.ScheduleAfter(ftx::Milliseconds(20), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now().nanos(), ftx::Milliseconds(30).nanos());
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAfter(ftx::Milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CallbacksMayScheduleMore) {
  Simulator sim(1);
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 10) {
      sim.ScheduleAfter(ftx::Microseconds(5), chain);
    }
  };
  sim.ScheduleAfter(ftx::Microseconds(5), chain);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.Now().nanos(), ftx::Microseconds(50).nanos());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim(1);
  int fired = 0;
  sim.ScheduleAfter(ftx::Milliseconds(1), [&] { ++fired; });
  sim.ScheduleAfter(ftx::Milliseconds(100), [&] { ++fired; });
  sim.RunUntil(ftx::TimePoint() + ftx::Milliseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.HasPending());
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    uint64_t acc = 0;
    for (int i = 0; i < 100; ++i) {
      sim.ScheduleAfter(ftx::Nanoseconds(static_cast<int64_t>(sim.rng().NextBounded(1000))),
                        [&acc, &sim] { acc = acc * 31 + static_cast<uint64_t>(sim.Now().nanos()); });
    }
    sim.RunUntilIdle();
    return acc;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// --- Network ---

TEST(Network, DeliversAfterLatency) {
  Simulator sim(1);
  ftx_sim::NetworkOptions options;
  options.max_jitter = ftx::Duration();  // deterministic latency
  Network net(&sim, 2, options);
  net.Send(0, 1, ftx::Bytes{1, 2, 3});
  EXPECT_FALSE(net.HasPending(1));
  sim.RunUntilIdle();
  ASSERT_TRUE(net.HasPending(1));
  auto msg = net.Deliver(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, (ftx::Bytes{1, 2, 3}));
  EXPECT_GE((msg->delivered_at - msg->sent_at).nanos(), options.base_latency.nanos());
}

TEST(Network, FifoPerSenderReceiverPair) {
  Simulator sim(1);
  ftx_sim::NetworkOptions options;
  options.max_jitter = ftx::Duration();
  Network net(&sim, 2, options);
  for (uint8_t i = 0; i < 10; ++i) {
    net.Send(0, 1, ftx::Bytes{i});
  }
  sim.RunUntilIdle();
  for (uint8_t i = 0; i < 10; ++i) {
    auto msg = net.Deliver(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload[0], i);
  }
}

TEST(Network, ArrivalCallbackFires) {
  Simulator sim(1);
  Network net(&sim, 2);
  int arrivals = 0;
  net.SetArrivalCallback(1, [&] { ++arrivals; });
  net.Send(0, 1, ftx::Bytes{9});
  net.Send(0, 1, ftx::Bytes{8});
  sim.RunUntilIdle();
  EXPECT_EQ(arrivals, 2);
}

TEST(Network, RecoveryBufferRedeliversAfterRollback) {
  Simulator sim(1);
  Network net(&sim, 2);
  net.Send(0, 1, ftx::Bytes{1});
  net.Send(0, 1, ftx::Bytes{2});
  sim.RunUntilIdle();

  auto first = net.Deliver(1);
  ASSERT_TRUE(first.has_value());
  // Receiver rolls back before committing: the consumed message must be
  // redelivered ahead of the still-queued one.
  net.RequeueRetained(1);
  auto again = net.Deliver(1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->payload, (ftx::Bytes{1}));
  auto second = net.Deliver(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, (ftx::Bytes{2}));
}

TEST(Network, CommitReleasesRetainedMessages) {
  Simulator sim(1);
  Network net(&sim, 2);
  net.Send(0, 1, ftx::Bytes{1});
  sim.RunUntilIdle();
  (void)net.Deliver(1);
  net.ReleaseAllDelivered(1);  // commit covers the consumed message
  net.RequeueRetained(1);      // rollback to that commit
  EXPECT_FALSE(net.HasPending(1));  // nothing to redeliver
}

TEST(Network, DropNewestRetainedForLoggedReceives) {
  Simulator sim(1);
  Network net(&sim, 2);
  net.Send(0, 1, ftx::Bytes{1});
  sim.RunUntilIdle();
  auto msg = net.Deliver(1);
  ASSERT_TRUE(msg.has_value());
  net.DropNewestRetained(1, msg->id);  // the ND log owns redelivery now
  net.RequeueRetained(1);
  EXPECT_FALSE(net.HasPending(1));
}

TEST(Network, TransitTimeGrowsWithSize) {
  Simulator sim(1);
  Network net(&sim, 2);
  EXPECT_LT(net.TransitTime(64).nanos(), net.TransitTime(64 * 1024).nanos());
}

// --- KernelSim ---

TEST(Kernel, OpenAssignsLowestFreeFd) {
  Simulator sim(1);
  KernelSim kernel(&sim, 1);
  auto fd0 = kernel.Open(0, "a", false);
  auto fd1 = kernel.Open(0, "b", true);
  ASSERT_TRUE(fd0.ok());
  ASSERT_TRUE(fd1.ok());
  EXPECT_EQ(*fd0, 0);
  EXPECT_EQ(*fd1, 1);
  ASSERT_TRUE(kernel.Close(0, *fd0).ok());
  auto fd2 = kernel.Open(0, "c", false);
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(*fd2, 0);  // reuses the freed slot
}

TEST(Kernel, OpenFailsWhenTableFull) {
  Simulator sim(1);
  ftx_sim::KernelLimits limits;
  limits.max_open_files = 2;
  KernelSim kernel(&sim, 1, limits);
  ASSERT_TRUE(kernel.Open(0, "a", false).ok());
  ASSERT_TRUE(kernel.Open(0, "b", false).ok());
  auto fd = kernel.Open(0, "c", false);
  EXPECT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), ftx::StatusCode::kResourceExhausted);
}

TEST(Kernel, WriteConsumesDiskAndFailsWhenFull) {
  Simulator sim(1);
  ftx_sim::KernelLimits limits;
  limits.disk_blocks_total = 2;
  limits.block_size = 4096;
  KernelSim kernel(&sim, 1, limits);
  auto fd = kernel.Open(0, "f", true);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(kernel.Write(0, *fd, 4096).ok());
  EXPECT_TRUE(kernel.Write(0, *fd, 4096).ok());
  auto full = kernel.Write(0, *fd, 1);
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), ftx::StatusCode::kResourceExhausted);
}

TEST(Kernel, WriteToReadOnlyFails) {
  Simulator sim(1);
  KernelSim kernel(&sim, 1);
  auto fd = kernel.Open(0, "f", /*writable=*/false);
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(kernel.Write(0, *fd, 100).ok());
}

TEST(Kernel, BindRejectsDuplicatePort) {
  Simulator sim(1);
  KernelSim kernel(&sim, 1);
  EXPECT_TRUE(kernel.Bind(0, 8080).ok());
  EXPECT_FALSE(kernel.Bind(0, 8080).ok());
}

TEST(Kernel, GetTimeOfDayIsTransientNd) {
  Simulator sim(1);
  KernelSim kernel(&sim, 1);
  // Two reads at the same simulated instant still differ (RNG
  // perturbation): the transient non-determinism the theory relies on.
  ftx::TimePoint a = kernel.GetTimeOfDay(0);
  ftx::TimePoint b = kernel.GetTimeOfDay(0);
  EXPECT_NE(a.nanos(), b.nanos());
}

TEST(Kernel, ReconstructionReplaysToIdenticalState) {
  Simulator sim(1);
  KernelSim kernel(&sim, 1);
  ASSERT_TRUE(kernel.Open(0, "log", true).ok());
  ASSERT_TRUE(kernel.Bind(0, 9000).ok());
  ASSERT_TRUE(kernel.Write(0, 0, 10000).ok());
  ASSERT_TRUE(kernel.Seek(0, 0, 512).ok());

  size_t capture = kernel.RecordCount(0);
  ftx_sim::KernelState at_commit = kernel.SnapshotFor(0);

  // Post-commit activity that must be rolled back.
  ASSERT_TRUE(kernel.Open(0, "tmp", true).ok());
  ASSERT_TRUE(kernel.Write(0, 1, 8192).ok());

  ASSERT_TRUE(kernel.ReconstructFor(0, capture).ok());
  EXPECT_EQ(kernel.SnapshotFor(0), at_commit);
  EXPECT_EQ(kernel.RecordCount(0), capture);
}

class KernelReplayProperty : public ::testing::TestWithParam<uint64_t> {};

// Property: for any random syscall history, reconstruction at any capture
// point reproduces the exact kernel state observed at that point.
TEST_P(KernelReplayProperty, RandomHistoriesReplayExactly) {
  ftx::Rng rng(GetParam());
  Simulator sim(GetParam());
  KernelSim kernel(&sim, 1);

  std::vector<int> open_fds;
  std::vector<size_t> capture_points;
  std::vector<ftx_sim::KernelState> snapshots;

  for (int step = 0; step < 120; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.35) {
      auto fd = kernel.Open(0, "f" + std::to_string(step), rng.NextBernoulli(0.7));
      if (fd.ok()) {
        open_fds.push_back(*fd);
      }
    } else if (roll < 0.5 && !open_fds.empty()) {
      size_t pick = rng.NextBounded(open_fds.size());
      (void)kernel.Close(0, open_fds[pick]);
      open_fds.erase(open_fds.begin() + static_cast<int64_t>(pick));
    } else if (roll < 0.75 && !open_fds.empty()) {
      (void)kernel.Write(0, open_fds[rng.NextBounded(open_fds.size())],
                         static_cast<int64_t>(rng.NextBounded(10000)));
    } else if (roll < 0.9 && !open_fds.empty()) {
      (void)kernel.Seek(0, open_fds[rng.NextBounded(open_fds.size())],
                        static_cast<int64_t>(rng.NextBounded(100000)));
    } else {
      (void)kernel.Bind(0, static_cast<uint16_t>(1024 + rng.NextBounded(100)));
    }
    if (rng.NextBernoulli(0.1)) {
      capture_points.push_back(kernel.RecordCount(0));
      snapshots.push_back(kernel.SnapshotFor(0));
    }
  }

  // Reconstruct to the most recent capture point and compare; repeat
  // backwards through earlier capture points.
  for (size_t i = capture_points.size(); i-- > 0;) {
    ASSERT_TRUE(kernel.ReconstructFor(0, capture_points[i]).ok());
    EXPECT_EQ(kernel.SnapshotFor(0), snapshots[i]) << "capture point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelReplayProperty, ::testing::Range<uint64_t>(1, 13));

}  // namespace
