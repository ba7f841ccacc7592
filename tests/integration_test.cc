// Integration matrix: consistent recovery from stop failures across
// workloads × protocols × stores, plus multi-process failure scenarios —
// the paper's §3 claim ("several real applications get failure transparency
// in the presence of simple stop failures") exercised end to end.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "src/core/experiment.h"
#include "src/statemachine/invariants.h"
#include "src/storage/redo_log.h"
#include "src/storage/write_journal.h"

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

// An unjournaled DC-disk log releases the payloads of superseded records
// and recovery installs only the rest; a journaled one keeps every record
// and recovery installs them all. The same magic run, stop-failed at ~70%
// of its length, must recover identically either way.
TEST(Integration, RedoLogReleaseLeavesRecoveryUnchanged) {
  ftx::RunSpec spec;
  spec.workload = "magic";
  spec.protocol = "cand";
  spec.store = ftx::StoreKind::kDisk;
  spec.scale = 30;
  spec.seed = 17;
  ftx::RunSpec baseline = spec;
  baseline.mode = ftx_dc::RuntimeMode::kBaseline;
  const ftx::TimePoint kill_at = ftx::TimePoint() + ftx::RunExperiment(baseline).elapsed * 7 / 10;
  const ftx::Duration recovery_delay = ftx::Milliseconds(50);

  struct Observed {
    ftx::RunOutput out;
    ftx_causal::RecoveryPhases recovery;
    uint32_t segment_checksum = 0;  // just after Recover
    int64_t released = 0;           // records released when Recover ran
  };
  auto run = [&](bool journaled) {
    ftx::RunSpec s = spec;
    s.mode = ftx_dc::RuntimeMode::kRecoverable;
    ftx_store::WriteJournal journal;
    std::unique_ptr<ftx::Computation> computation = ftx::BuildComputation(s);
    if (journaled) {
      computation->redo_log(0)->AttachJournal(&journal);
    }
    computation->ScheduleStopFailure(0, kill_at, recovery_delay);
    Observed observed;
    // Recover runs at kill_at + recovery_delay; the process's next step
    // waits for the recovery cost, so one nanosecond later the segment
    // holds exactly what Recover rebuilt.
    computation->sim().ScheduleAt(kill_at + recovery_delay + ftx::Nanoseconds(1), [&]() {
      observed.segment_checksum = computation->runtime(0).segment().Checksum();
      for (const ftx_store::RedoRecord& record : computation->redo_log(0)->records()) {
        observed.released += record.released ? 1 : 0;
      }
    });
    ftx::ComputationResult result = computation->Run();
    observed.out = ftx::Collect(*computation, result);
    observed.recovery = computation->runtime(0).last_recovery();
    return observed;
  };
  const Observed full = run(/*journaled=*/true);
  const Observed released = run(/*journaled=*/false);

  EXPECT_EQ(full.released, 0);
  EXPECT_GT(released.released, 0);
  EXPECT_GT(full.recovery.records, released.released);
  EXPECT_NE(full.segment_checksum, 0u);
  EXPECT_EQ(full.segment_checksum, released.segment_checksum);

  EXPECT_EQ(full.recovery.log_scan_ns, released.recovery.log_scan_ns);
  EXPECT_EQ(full.recovery.page_install_ns, released.recovery.page_install_ns);
  EXPECT_EQ(full.recovery.undo_rollback_ns, released.recovery.undo_rollback_ns);
  EXPECT_EQ(full.recovery.rebuild_ns, released.recovery.rebuild_ns);
  EXPECT_EQ(full.recovery.records, released.recovery.records);
  EXPECT_EQ(full.recovery.total_ns(), released.recovery.total_ns());

  const ftx::ComputationResult& a = full.out.result;
  const ftx::ComputationResult& b = released.out.result;
  EXPECT_TRUE(a.all_done);
  EXPECT_EQ(a.all_done, b.all_done);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.total_commits, b.total_commits);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.total_rollbacks, b.total_rollbacks);
  EXPECT_EQ(a.done_times, b.done_times);
  ASSERT_EQ(a.per_process.size(), b.per_process.size());
  for (size_t pid = 0; pid < a.per_process.size(); ++pid) {
    const ftx_dc::RuntimeStats& x = a.per_process[pid];
    const ftx_dc::RuntimeStats& y = b.per_process[pid];
    EXPECT_EQ(x.commits, y.commits);
    EXPECT_EQ(x.coordinated_commits, y.coordinated_commits);
    EXPECT_EQ(x.commit_time, y.commit_time);
    EXPECT_EQ(x.pages_committed, y.pages_committed);
    EXPECT_EQ(x.bytes_persisted, y.bytes_persisted);
    EXPECT_EQ(x.events, y.events);
    EXPECT_EQ(x.nd_events, y.nd_events);
    EXPECT_EQ(x.visible_events, y.visible_events);
    EXPECT_EQ(x.sends, y.sends);
    EXPECT_EQ(x.receives, y.receives);
    EXPECT_EQ(x.logged_events, y.logged_events);
    EXPECT_EQ(x.rollbacks, y.rollbacks);
    EXPECT_EQ(x.recovery_time, y.recovery_time);
  }

  ASSERT_EQ(full.out.outputs.size(), released.out.outputs.size());
  for (size_t i = 0; i < full.out.outputs.size(); ++i) {
    const ftx_rec::VisibleEvent& x = full.out.outputs.events()[i];
    const ftx_rec::VisibleEvent& y = released.out.outputs.events()[i];
    EXPECT_EQ(x.process, y.process) << i;
    EXPECT_EQ(x.time, y.time) << i;
    EXPECT_EQ(x.payload, y.payload) << i;
  }
}

}  // namespace
