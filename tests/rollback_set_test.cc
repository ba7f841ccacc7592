// Tests for cascading-rollback computation: the domino effect on commitless
// traces, containment under CPVS (commit before send) and under logging,
// plus the property that CPVS-governed random computations never cascade.

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "src/common/rng.h"
#include "src/protocol/protocol.h"
#include "src/recovery/rollback_set.h"
#include "src/statemachine/random_model.h"

namespace {

using ftx_sm::EventKind;
using ftx_sm::Trace;

TEST(RollbackSet, NoMessagesMeansNoCascade) {
  Trace trace(2);
  trace.Append(0, EventKind::kInternal);
  trace.Append(0, EventKind::kInternal);
  trace.Append(1, EventKind::kInternal);

  auto plan = ftx_rec::ComputeRollbackSet(trace, 0, /*failed_survive_through=*/-1);
  EXPECT_EQ(plan.survive_through[0], -1);
  EXPECT_EQ(plan.survive_through[1], 0);  // NumEvents(1)-1: untouched
  EXPECT_EQ(plan.processes_rolled_back, 0);
}

TEST(RollbackSet, OrphanMessageForcesReceiverBack) {
  // p0's send depends on uncommitted transient ND: reexecution may send a
  // DIFFERENT message. p1 received the old one and has no commit: p1
  // unwinds to its initial state.
  Trace trace(2);
  trace.Append(0, EventKind::kInternal);     // 0 survives
  trace.Append(0, EventKind::kTransientNd);  // 1 aborted: the orphan source
  trace.Append(0, EventKind::kSend, 7);      // 2 aborted
  trace.Append(1, EventKind::kReceive, 7);
  trace.Append(1, EventKind::kVisible);

  auto plan = ftx_rec::ComputeRollbackSet(trace, 0, /*failed_survive_through=*/0);
  EXPECT_EQ(plan.survive_through[1], -1);
  EXPECT_EQ(plan.processes_rolled_back, 1);
  EXPECT_TRUE(plan.dominoed_to_start);
}

TEST(RollbackSet, ReceiverCommitBeforeReceiveLimitsDamage) {
  Trace trace(2);
  trace.Append(0, EventKind::kTransientNd);  // aborted ND feeds the send
  trace.Append(0, EventKind::kSend, 7);      // aborted, NOT regenerable
  trace.Append(1, EventKind::kInternal);     // 0
  trace.Append(1, EventKind::kCommit);       // 1 <- lands here
  trace.Append(1, EventKind::kReceive, 7);   // 2 orphaned
  trace.Append(1, EventKind::kInternal);     // 3

  auto plan = ftx_rec::ComputeRollbackSet(trace, 0, -1);
  EXPECT_EQ(plan.survive_through[1], 1);
  EXPECT_FALSE(plan.dominoed_to_start);
}

TEST(RollbackSet, DeterministicallyRegenerableSendIsNoOrphan) {
  // The aborted send has no unlogged ND between the sender's rollback point
  // and the send: reexecution regenerates the identical message, so the
  // receiver keeps it (§5: senders deterministically regenerate messages).
  Trace trace(2);
  trace.Append(0, EventKind::kInternal);
  trace.Append(0, EventKind::kSend, 7);  // aborted but regenerable
  trace.Append(1, EventKind::kReceive, 7);
  trace.Append(1, EventKind::kVisible);

  auto plan = ftx_rec::ComputeRollbackSet(trace, 0, /*failed_survive_through=*/-1);
  EXPECT_EQ(plan.processes_rolled_back, 0);
}

TEST(RollbackSet, LoggedReceiveIsNeverOrphaned) {
  Trace trace(2);
  trace.Append(0, EventKind::kTransientNd);                  // aborted ND
  trace.Append(0, EventKind::kSend, 7);                      // aborted
  trace.Append(1, EventKind::kReceive, 7, /*logged=*/true);  // replayable
  trace.Append(1, EventKind::kVisible);

  auto plan = ftx_rec::ComputeRollbackSet(trace, 0, -1);
  EXPECT_EQ(plan.survive_through[1], 1);  // untouched
  EXPECT_EQ(plan.processes_rolled_back, 0);
}

TEST(RollbackSet, CommitBeforeSendStopsTheCascadeAtTheSource) {
  // Rolling back past uncommitted ND that feeds a send orphans the
  // receiver...
  Trace naked(2);
  naked.Append(0, EventKind::kCommit);       // 0 <- rollback lands here
  naked.Append(0, EventKind::kTransientNd);  // 1 aborted ND
  naked.Append(0, EventKind::kSend, 7);      // 2 aborted, not regenerable
  naked.Append(1, EventKind::kReceive, 7);
  auto cascaded = ftx_rec::ComputeRollbackSet(naked, 0, 0);
  EXPECT_EQ(cascaded.processes_rolled_back, 1);

  // ...but CPVS commits immediately before the send: the aborted suffix
  // between the rollback point and the send is ND-free, so the message is
  // regenerated and nothing cascades.
  Trace cpvs(2);
  cpvs.Append(0, EventKind::kTransientNd);
  cpvs.Append(0, EventKind::kCommit);   // 1: CPVS pre-send commit
  cpvs.Append(0, EventKind::kSend, 7);  // 2 aborted but regenerable
  cpvs.Append(1, EventKind::kReceive, 7);
  auto contained = ftx_rec::ComputeRollbackSet(cpvs, 0, 1);
  EXPECT_EQ(contained.processes_rolled_back, 0);
}

TEST(RollbackSet, ChainedDominoAcrossThreeProcesses) {
  // p0 -> p1 -> p2, no commits anywhere: one failure unwinds everyone.
  Trace trace(3);
  trace.Append(0, EventKind::kTransientNd);
  trace.Append(0, EventKind::kSend, 1);
  trace.Append(1, EventKind::kReceive, 1);
  trace.Append(1, EventKind::kSend, 2);
  trace.Append(2, EventKind::kReceive, 2);
  trace.Append(2, EventKind::kVisible);

  auto plan = ftx_rec::ComputeRollbackSet(trace, 0, -1);
  EXPECT_EQ(plan.survive_through[0], -1);
  EXPECT_EQ(plan.survive_through[1], -1);
  EXPECT_EQ(plan.survive_through[2], -1);
  EXPECT_EQ(plan.processes_rolled_back, 2);
  EXPECT_TRUE(plan.dominoed_to_start);
  EXPECT_GE(plan.cascade_rounds, 2);
}

// Property: under CPVS (commit before every visible AND send), a failure
// never cascades — the paper's §5 point that its protocols, unlike plain
// communication-induced checkpointing, only roll back failed processes.
class CpvsContainmentProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CpvsContainmentProperty, FailureNeverCascades) {
  ftx::Rng rng(GetParam());
  ftx_sm::RandomTraceOptions options;
  options.num_processes = 4;
  options.events_per_process = 50;
  std::vector<ftx_sm::ScriptedEvent> script = ftx_sm::MakeRandomScript(&rng, options);

  // Execute under CPVS: commits inserted before each visible/send.
  Trace trace(options.num_processes);
  std::vector<std::unique_ptr<ftx_proto::Protocol>> protocols;
  for (int p = 0; p < options.num_processes; ++p) {
    protocols.push_back(ftx_proto::MakeProtocolByName("cpvs"));
  }
  for (const auto& ev : script) {
    ftx_proto::AppEvent app_event = ftx_proto::AppEvent::kInternal;
    switch (ev.kind) {
      case EventKind::kSend:
        app_event = ftx_proto::AppEvent::kSend;
        break;
      case EventKind::kVisible:
        app_event = ftx_proto::AppEvent::kVisible;
        break;
      case EventKind::kReceive:
        app_event = ftx_proto::AppEvent::kReceive;
        break;
      default:
        break;
    }
    auto d = protocols[static_cast<size_t>(ev.process)]->Decide(app_event);
    if (d.commit_before) {
      trace.Append(ev.process, EventKind::kCommit);
      protocols[static_cast<size_t>(ev.process)]->OnCommitted();
    }
    trace.Append(ev.process, ev.kind, ev.message_id, ev.logged);
  }

  // Fail every process in turn at its last commit: no cascades, ever.
  for (int failed = 0; failed < options.num_processes; ++failed) {
    auto commit = trace.LastCommitAtOrBefore(failed, trace.NumEvents(failed) - 1);
    int64_t survive = commit.has_value() ? commit->index : -1;
    auto plan = ftx_rec::ComputeRollbackSet(trace, failed, survive);
    EXPECT_EQ(plan.processes_rolled_back, 0)
        << "failed process " << failed << " cascaded (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpvsContainmentProperty, ::testing::Range<uint64_t>(1, 13));

}  // namespace
