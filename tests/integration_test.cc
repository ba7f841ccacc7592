// Integration matrix: consistent recovery from stop failures across
// workloads × protocols × stores, plus multi-process failure scenarios —
// the paper's §3 claim ("several real applications get failure transparency
// in the presence of simple stop failures") exercised end to end.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/core/experiment.h"
#include "src/statemachine/invariants.h"

namespace {

// workload, protocol, store, failure time (ms)
using MatrixParam = std::tuple<std::string, std::string, ftx::StoreKind>;

class StopFailureMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(StopFailureMatrix, RecoversConsistently) {
  const auto& [workload, protocol, store] = GetParam();
  ftx::RunSpec spec;
  spec.workload = workload;
  spec.protocol = protocol;
  spec.store = store;
  spec.seed = 17;
  spec.scale = workload == "treadmarks" ? 5 : workload == "magic" ? 30 : 120;

  // Fail the (single or first) process somewhere mid-run (postgres runs
  // without think time, so its whole run is sub-second).
  ftx::Duration when = workload == "magic"        ? ftx::Seconds(9.0)
                       : workload == "treadmarks" ? ftx::Milliseconds(150)
                       : workload == "postgres"   ? ftx::Milliseconds(20)
                                                  : ftx::Seconds(4.0);
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [&](ftx::Computation& computation) {
        computation.ScheduleStopFailure(0, ftx::TimePoint() + when);
      });
  EXPECT_TRUE(check.completed) << workload << "/" << protocol << ": " << check.diagnostic;
  EXPECT_TRUE(check.consistent) << workload << "/" << protocol << ": " << check.diagnostic;
  EXPECT_GE(check.rollbacks, 1) << workload << "/" << protocol;
}

INSTANTIATE_TEST_SUITE_P(
    DeterministicWorkloads, StopFailureMatrix,
    ::testing::Combine(::testing::Values("nvi", "magic", "postgres"),
                       ::testing::Values("cand", "cand-log", "cpvs", "cbndvs", "cbndvs-log"),
                       ::testing::Values(ftx::StoreKind::kRio, ftx::StoreKind::kDisk)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                         (std::get<2>(info.param) == ftx::StoreKind::kRio ? "_rio" : "_disk");
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// TreadMarks: fail each peer in turn (its visible stream comes from
// process 0's deterministic progress reports).
class TreadMarksFailure : public ::testing::TestWithParam<int> {};

TEST_P(TreadMarksFailure, AnyPeerFailureRecovers) {
  int victim = GetParam();
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.protocol = "cpvs";
  spec.scale = 5;
  spec.seed = 23;
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [&](ftx::Computation& computation) {
        computation.ScheduleStopFailure(victim, ftx::TimePoint() + ftx::Milliseconds(180));
      });
  EXPECT_TRUE(check.completed) << "victim " << victim << ": " << check.diagnostic;
  EXPECT_TRUE(check.consistent) << "victim " << victim << ": " << check.diagnostic;
}

INSTANTIATE_TEST_SUITE_P(Victims, TreadMarksFailure, ::testing::Range(0, 4));

TEST(Integration, TreadMarksTwoPcSurvivesFailure) {
  // Both 2PC protocols on both stores, with one-record and eight-record
  // group-commit windows, stopping process 0 or a peer. A batched round
  // stays correct because a coordinated commit flushes its window at once.
  for (ftx::StoreKind store : {ftx::StoreKind::kRio, ftx::StoreKind::kDisk}) {
    for (int64_t max_records : {1, 8}) {
      for (const char* protocol : {"cpv-2pc", "cbndv-2pc"}) {
        for (int victim : {0, 2}) {
          SCOPED_TRACE(std::string(store == ftx::StoreKind::kRio ? "rio" : "disk") + " batch " +
                       std::to_string(max_records) + " " + protocol + " victim " +
                       std::to_string(victim));
          ftx::RunSpec spec;
          spec.workload = "treadmarks";
          spec.protocol = protocol;
          spec.store = store;
          spec.scale = 5;
          spec.seed = 29;
          spec.tweak_options = [max_records](ftx::ComputationOptions* options) {
            options->group_commit.max_records = max_records;
          };
          ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
              spec, [&](ftx::Computation& computation) {
                computation.ScheduleStopFailure(victim,
                                                ftx::TimePoint() + ftx::Milliseconds(200));
              });
          EXPECT_TRUE(check.completed) << check.diagnostic;
          EXPECT_TRUE(check.consistent) << check.diagnostic;
          EXPECT_GE(check.rollbacks, 1);
        }
      }
    }
  }
}

TEST(Integration, WholeMachineStopFailureRecovers) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.protocol = "cpvs";
  spec.scale = 150;
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [&](ftx::Computation& computation) {
        computation.ScheduleOsStopFailure(ftx::TimePoint() + ftx::Seconds(5.0),
                                          /*reboot_delay=*/ftx::Seconds(20.0));
      });
  EXPECT_TRUE(check.completed) << check.diagnostic;
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

TEST(Integration, RepeatedFailuresOfDistributedRun) {
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.protocol = "cbndvs";
  spec.scale = 5;
  spec.seed = 31;
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [&](ftx::Computation& computation) {
        computation.ScheduleStopFailure(1, ftx::TimePoint() + ftx::Milliseconds(100));
        computation.ScheduleStopFailure(3, ftx::TimePoint() + ftx::Milliseconds(400));
        computation.ScheduleStopFailure(1, ftx::TimePoint() + ftx::Milliseconds(800));
      });
  EXPECT_TRUE(check.completed) << check.diagnostic;
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

TEST(Integration, XpilotSurvivesServerFailure) {
  // xpilot's output is timing-dependent, so no strict equivalence check —
  // the run must complete and keep rendering frames after recovery.
  ftx::RunSpec spec;
  spec.workload = "xpilot";
  spec.protocol = "cbndvs";
  spec.scale = 120;
  auto computation = ftx::BuildComputation(spec);
  computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Seconds(3.0));
  auto result = computation->Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_GE(result.total_rollbacks, 1);
}

TEST(Integration, SaveWorkHoldsAcrossWorkloadsFailureFree) {
  // The runtime's event discipline satisfies the Save-work checker on real
  // application traces (small scales keep the exhaustive check fast).
  for (const char* workload : {"nvi", "magic", "postgres"}) {
    for (const char* protocol : {"cand", "cpvs", "cbndvs", "cbndvs-log"}) {
      ftx::RunSpec spec;
      spec.workload = workload;
      spec.protocol = protocol;
      spec.scale = 25;
      auto computation = ftx::BuildComputation(spec);
      auto result = computation->Run();
      ASSERT_TRUE(result.all_done) << workload << "/" << protocol;
      ftx_sm::SaveWorkReport report = ftx_sm::CheckSaveWork(computation->trace());
      EXPECT_TRUE(report.ok()) << workload << "/" << protocol << ": "
                               << report.violations.size() << " violations";
    }
  }
}

TEST(Integration, SaveWorkHoldsOnDistributedTraces) {
  for (const char* protocol : {"cpvs", "cbndvs", "cpv-2pc", "cbndv-2pc"}) {
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

TEST(Integration, FailureNearEndOfRunStillCompletes) {
  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.protocol = "cbndvs";
  spec.scale = 200;
  auto baseline = ftx::RunExperiment([&] {
    ftx::RunSpec s = spec;
    s.mode = ftx_dc::RuntimeMode::kBaseline;
    return s;
  }());
  // Fail very close to the end (output nearly complete).
  ftx::Duration near_end = baseline.elapsed - ftx::Microseconds(500);
  ftx::RecoveryCheck check = ftx::VerifyConsistentRecovery(
      spec, [&](ftx::Computation& computation) {
        computation.ScheduleStopFailure(0, ftx::TimePoint() + near_end);
      });
  EXPECT_TRUE(check.completed) << check.diagnostic;
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

}  // namespace
