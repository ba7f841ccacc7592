// Coverage for the experiment drivers (src/core/experiment.h) and the
// remaining runtime bookkeeping corners: overhead measurement sanity,
// tweak_options plumbing, 2PC pending-overhead charging, and the
// communication mask driving coordinated checkpointing.

#include <gtest/gtest.h>

#include "src/core/experiment.h"

namespace {

TEST(Experiment, OverheadRowFieldsAreCoherent) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 150;
  spec.protocol = "cpvs";
  ftx::OverheadRow row = ftx::MeasureOverhead(spec);
  EXPECT_EQ(row.workload, "nvi");
  EXPECT_EQ(row.protocol, "cpvs");
  EXPECT_GT(row.baseline.nanos(), 0);
  EXPECT_GE(row.recoverable.nanos(), row.baseline.nanos());
  EXPECT_GE(row.overhead_percent, 0.0);
  EXPECT_GT(row.checkpoints, 140);
  EXPECT_GT(row.checkpoints_per_second, 0.0);
}

TEST(Experiment, BaselineIsProtocolIndependent) {
  ftx::RunSpec a;
  a.workload = "postgres";
  a.scale = 200;
  a.mode = ftx_dc::RuntimeMode::kBaseline;
  a.protocol = "cand";
  ftx::RunSpec b = a;
  b.protocol = "hypervisor";
  EXPECT_EQ(ftx::RunExperiment(a).elapsed.nanos(), ftx::RunExperiment(b).elapsed.nanos());
}

TEST(Experiment, TweakOptionsReachesTheComputation) {
  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.scale = 50;
  bool tweaked = false;
  spec.tweak_options = [&tweaked](ftx::ComputationOptions* options) {
    tweaked = true;
    options->max_sim_time = ftx::Seconds(100.0);
  };
  auto computation = ftx::BuildComputation(spec);
  EXPECT_TRUE(tweaked);
  EXPECT_EQ(computation->options().max_sim_time.nanos(), ftx::Seconds(100.0).nanos());
}

TEST(Experiment, DiskOverheadExceedsRioOverhead) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 200;
  spec.protocol = "cpvs";
  spec.store = ftx::StoreKind::kRio;
  double rio = ftx::MeasureOverhead(spec).overhead_percent;
  spec.store = ftx::StoreKind::kDisk;
  double disk = ftx::MeasureOverhead(spec).overhead_percent;
  EXPECT_GT(disk, rio * 5);
}

TEST(Runtime2pc, ParticipantCostsChargeAtTheirNextStep) {
  // Under CPV-2PC on treadmarks, worker processes commit as participants of
  // rounds initiated by process 0; their coordinated_commits stat must be
  // populated and their commit time nonzero even though they never
  // initiated anything.
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.scale = 25;  // covers the report_every=20 progress visible
  spec.protocol = "cpv-2pc";
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  for (int p = 1; p < 4; ++p) {
    const auto& stats = computation->runtime(p).stats();
    EXPECT_GT(stats.coordinated_commits, 0) << p;
    EXPECT_GT(stats.commit_time.nanos(), 0) << p;
  }
  // Process 0 initiated: its commits are not counted as coordinated.
  EXPECT_GT(computation->runtime(0).stats().commits, 0);
}

TEST(Runtime2pc, CommunicationMaskDrivesCoordinatedCkptParticipants) {
  // In treadmarks every process exchanges pages with every other each
  // iteration, so coordinated-ckpt's closure must include all four — its
  // commit counts match cpv-2pc's on this workload.
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.scale = 25;
  spec.seed = 3;
  spec.protocol = "coordinated-ckpt";
  ftx::RunOutput closure = ftx::RunExperiment(spec);
  spec.protocol = "cpv-2pc";
  ftx::RunOutput all = ftx::RunExperiment(spec);
  ASSERT_TRUE(closure.result.all_done);
  EXPECT_EQ(closure.checkpoints, all.checkpoints);
}

TEST(Experiment, VerifyConsistentRecoveryReportsDiagnostics) {
  // A run that cannot complete (a stop failure whose recovery lies past the
  // simulated time limit) must come back as incomplete with a diagnostic,
  // not crash the harness.
  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.scale = 100;
  spec.tweak_options = [](ftx::ComputationOptions* options) {
    options->max_sim_time = ftx::Seconds(2.0);
  };
  auto computation = ftx::BuildComputation(spec);
  computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(5),
                                   /*recovery_delay=*/ftx::Seconds(500.0));
  auto result = computation->Run();
  EXPECT_FALSE(result.all_done);
}

}  // namespace
