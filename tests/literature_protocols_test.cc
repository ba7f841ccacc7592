// End-to-end tests for the seven literature protocols (SBL, Targon/32,
// Hypervisor, Optimistic Logging, Coordinated Checkpointing, Family-Based
// Logging, Manetho): stop-failure recovery with consistent output on real
// workloads, commit-count relationships along the protocol-space axes, and
// Fig. 4's recovery-time trend (protocols further out the x axis replay
// longer).

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/statemachine/invariants.h"

namespace {

class LiteratureProtocolRecovery : public ::testing::TestWithParam<std::string> {};

TEST_P(LiteratureProtocolRecovery, NviStopFailureRecoversConsistently) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 150;
  spec.protocol = GetParam();
  spec.seed = 77;
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [](ftx::Computation& computation) {
        computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Seconds(7.0));
      });
  EXPECT_TRUE(check.completed) << GetParam() << ": " << check.diagnostic;
  EXPECT_TRUE(check.consistent) << GetParam() << ": " << check.diagnostic;
  EXPECT_GE(check.rollbacks, 1);
}

TEST_P(LiteratureProtocolRecovery, PostgresStopFailureRecoversConsistently) {
  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.scale = 250;
  spec.protocol = GetParam();
  spec.seed = 78;
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [](ftx::Computation& computation) {
        computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(40));
      });
  EXPECT_TRUE(check.completed) << GetParam() << ": " << check.diagnostic;
  EXPECT_TRUE(check.consistent) << GetParam() << ": " << check.diagnostic;
}

INSTANTIATE_TEST_SUITE_P(Names, LiteratureProtocolRecovery,
                         ::testing::Values("sbl", "targon32", "hypervisor", "optimistic-log",
                                           "coordinated-ckpt", "fbl", "manetho"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(LiteratureProtocols, HypervisorNeverCommitsAfterInit) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 200;
  spec.protocol = "hypervisor";
  ftx::RunOutput out = ftx::RunExperiment(spec);
  ASSERT_TRUE(out.result.all_done);
  EXPECT_EQ(out.checkpoints, 1);  // checkpoint #0 only
  EXPECT_GT(out.result.per_process[0].logged_events, 150);
}

TEST(LiteratureProtocols, CommitCountsFallAlongTheNdAxis) {
  // Fig. 3's x axis on the magic workload: cand > sbl > targon32 >
  // hypervisor (progressively more non-determinism converted).
  auto commits = [](const char* protocol) {
    ftx::RunSpec spec;
    spec.workload = "magic";
    spec.scale = 50;
    spec.seed = 5;
    spec.protocol = protocol;
    return ftx::RunExperiment(spec).checkpoints;
  };
  int64_t cand = commits("cand");
  int64_t sbl = commits("sbl");
  int64_t targon = commits("targon32");
  int64_t hypervisor = commits("hypervisor");
  EXPECT_GE(cand, sbl);
  EXPECT_GT(sbl, targon);
  EXPECT_GE(targon, hypervisor);
  EXPECT_EQ(hypervisor, 1);
}

TEST(LiteratureProtocols, RecoveryTimeGrowsAlongTheNdAxis) {
  // Fig. 4: protocols further right replay more during recovery. Hypervisor
  // rolls back to checkpoint #0 and replays the entire history; CPVS rolls
  // back at most one query. The recovery cost is the run-time EXPANSION a
  // failure adds under each protocol (isolating replay from the protocols'
  // different failure-free overheads).
  auto failure_expansion = [](const char* protocol) {
    ftx::RunSpec spec;
    spec.workload = "postgres";
    spec.scale = 400;
    spec.seed = 9;
    spec.protocol = protocol;
    auto clean = ftx::RunExperiment(spec);
    EXPECT_TRUE(clean.result.all_done) << protocol;

    auto computation = ftx::BuildComputation(spec);
    computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(120),
                                     /*recovery_delay=*/ftx::Milliseconds(1));
    auto failed = computation->Run();
    EXPECT_TRUE(failed.all_done) << protocol;
    return (failed.end_time - ftx::TimePoint()) - clean.elapsed;
  };
  ftx::Duration cpvs_expansion = failure_expansion("cpvs");
  ftx::Duration hypervisor_expansion = failure_expansion("hypervisor");
  EXPECT_GT(hypervisor_expansion.nanos(), cpvs_expansion.nanos());
  // Hypervisor replays ~120 ms of history; CPVS replays one query (<1 ms).
  EXPECT_GT(hypervisor_expansion.millis(), 50);
}

TEST(LiteratureProtocols, OptimisticLogLosesUnflushedTail) {
  // After a crash, async log records that never reached stable storage are
  // gone: the run must still complete and stay output-consistent (the lost
  // events simply reexecute live; Save-work guaranteed no visible depended
  // on them).
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 120;
  spec.protocol = "optimistic-log";
  spec.seed = 91;
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [](ftx::Computation& computation) {
        computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Seconds(5.0));
        computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Seconds(9.0));
      });
  EXPECT_TRUE(check.completed) << check.diagnostic;
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

TEST(LiteratureProtocols, CoordinatedCkptNarrowsParticipation) {
  // On TreadMarks, coordinated checkpointing commits the communication
  // closure (everyone talks to everyone across an iteration, so counts are
  // close to cpv-2pc), and the run survives a peer failure.
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.scale = 4;
  spec.protocol = "coordinated-ckpt";
  spec.seed = 12;
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [](ftx::Computation& computation) {
        computation.ScheduleStopFailure(1, ftx::TimePoint() + ftx::Milliseconds(150));
      });
  EXPECT_TRUE(check.completed) << check.diagnostic;
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

TEST(LiteratureProtocols, SaveWorkHoldsOnDistributedTraces) {
  for (const char* protocol : {"sbl", "targon32", "hypervisor", "optimistic-log",
                               "coordinated-ckpt", "fbl", "manetho"}) {
    ftx::RunSpec spec;
    spec.workload = "treadmarks";
    spec.protocol = protocol;
    spec.scale = 2;
    auto computation = ftx::BuildComputation(spec);
    auto result = computation->Run();
    ASSERT_TRUE(result.all_done) << protocol;
    ftx_sm::SaveWorkReport report = ftx_sm::CheckSaveWork(computation->trace());
    EXPECT_TRUE(report.ok()) << protocol << ": " << report.violations.size() << " violations";
  }
}

}  // namespace
