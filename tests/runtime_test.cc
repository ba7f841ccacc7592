// Tests for the Discount Checking runtime: commit/rollback round trips,
// kernel-state reconstruction, ND-log replay, DC-disk redo recovery, cost
// accounting, and the constructor's named-field dependency checks — driven
// through a purpose-built test application.

#include <gtest/gtest.h>

#include <map>

#include "src/core/computation.h"
#include "src/recovery/consistency.h"
#include "src/statemachine/invariants.h"
#include "src/storage/log_image.h"
#include "src/storage/write_journal.h"

namespace {

// A deterministic counter app: each step reads one input token, adds it to
// an accumulator in the segment, echoes the accumulator (visible), and
// occasionally performs syscalls and transient ND events.
class CounterApp : public ftx_dc::App {
 public:
  struct State {
    int64_t steps = 0;
    int64_t accumulator = 0;
    int64_t fd = -1;
  };

  std::string_view name() const override { return "counter"; }
  size_t SegmentBytes() const override { return 64 * 1024; }
  int64_t HeapBytes() const override { return 16 * 1024; }
  int64_t HeapOffset() const override { return 32 * 1024; }

  void Init(ftx_dc::ProcessEnv& env) override {
    State state;
    ftx::Result<int> fd = env.Open("counter.log", true);
    state.fd = fd.ok() ? *fd : -1;
    env.segment().WriteValue(0, state);
  }

  ftx_dc::StepOutcome Step(ftx_dc::ProcessEnv& env) override {
    std::optional<ftx::Bytes> token = env.ReadUserInput();
    if (!token.has_value()) {
      return {ftx_dc::StepOutcome::Status::kDone, ftx::Duration()};
    }
    auto state = env.segment().Read<State>(0);
    ++state.steps;
    state.accumulator += (*token)[0];
    env.segment().WriteValue(0, state);

    env.Compute(ftx::Microseconds(50));
    if (state.steps % 5 == 0) {
      (void)env.GetTimeOfDay();  // unloggable transient ND
    }
    if (state.steps % 7 == 0 && state.fd >= 0) {
      (void)env.WriteFile(static_cast<int>(state.fd), 128);
    }
    ftx::Bytes echo;
    ftx::AppendValue(&echo, state.steps);
    ftx::AppendValue(&echo, state.accumulator);
    env.Print(std::move(echo));
    return {ftx_dc::StepOutcome::Status::kContinue, ftx::Duration()};
  }

  static State Read(ftx_dc::ProcessEnv& env) { return env.segment().Read<State>(0); }
};

std::vector<ftx::Bytes> TokenScript(int n) {
  std::vector<ftx::Bytes> script;
  for (int i = 0; i < n; ++i) {
    script.push_back(ftx::Bytes{static_cast<uint8_t>(1 + (i * 13) % 50)});
  }
  return script;
}

struct Harness {
  explicit Harness(const std::string& protocol, ftx::StoreKind store = ftx::StoreKind::kRio,
                   int tokens = 40, int64_t batch_records = 1) {
    ftx::ComputationOptions options;
    options.seed = 7;
    options.protocol = protocol;
    options.store = store;
    options.group_commit.max_records = batch_records;
    std::vector<std::unique_ptr<ftx_dc::App>> apps;
    apps.push_back(std::make_unique<CounterApp>());
    computation = std::make_unique<ftx::Computation>(options, std::move(apps));
    computation->SetInputScript(0, TokenScript(tokens));
  }
  std::unique_ptr<ftx::Computation> computation;
};

// The commit windows a journaled DC-disk log persisted: each window's last
// sequence, which its commit slot carries, and the instant the slot was
// written (zero without a journal clock).
std::map<int64_t, ftx::TimePoint> CommitWindows(const ftx_store::WriteJournal& journal) {
  std::map<int64_t, ftx::TimePoint> windows;
  for (const ftx_store::DiskOp& op : journal.ops()) {
    if (op.kind == ftx_store::DiskOpKind::kSectorWrite &&
        op.offset < ftx_store::kLogStartOffset) {
      windows.emplace(op.sequence, op.time);
    }
  }
  return windows;
}

int64_t ExpectedAccumulator(int n) {
  int64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    acc += 1 + (i * 13) % 50;
  }
  return acc;
}

TEST(Runtime, FailureFreeRunProducesExpectedState) {
  Harness h("cpvs");
  ftx::ComputationResult result = h.computation->Run();
  EXPECT_TRUE(result.all_done);
  auto state = CounterApp::Read(h.computation->runtime(0));
  EXPECT_EQ(state.steps, 40);
  EXPECT_EQ(state.accumulator, ExpectedAccumulator(40));
  EXPECT_EQ(h.computation->recorder().size(), 40u);
}

TEST(Runtime, StopFailureRecoversExactState) {
  for (const char* protocol : {"cpvs", "cand", "cbndvs", "cand-log", "cbndvs-log"}) {
    Harness h(protocol);
    h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Microseconds(900));
    ftx::ComputationResult result = h.computation->Run();
    EXPECT_TRUE(result.all_done) << protocol;
    auto state = CounterApp::Read(h.computation->runtime(0));
    EXPECT_EQ(state.steps, 40) << protocol;
    EXPECT_EQ(state.accumulator, ExpectedAccumulator(40)) << protocol;
    EXPECT_GE(h.computation->runtime(0).stats().rollbacks, 1) << protocol;
  }
}

TEST(Runtime, DcDiskRecoversFromRedoChain) {
  Harness h("cpvs", ftx::StoreKind::kDisk);
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(500));
  ftx::ComputationResult result = h.computation->Run();
  EXPECT_TRUE(result.all_done);
  auto state = CounterApp::Read(h.computation->runtime(0));
  EXPECT_EQ(state.steps, 40);
  EXPECT_EQ(state.accumulator, ExpectedAccumulator(40));
  EXPECT_GE(h.computation->runtime(0).stats().rollbacks, 1);
}

TEST(Runtime, MultipleFailuresStillRecover) {
  Harness h("cbndvs");
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Microseconds(500));
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(60));
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(120));
  ftx::ComputationResult result = h.computation->Run();
  EXPECT_TRUE(result.all_done);
  auto state = CounterApp::Read(h.computation->runtime(0));
  EXPECT_EQ(state.accumulator, ExpectedAccumulator(40));
  EXPECT_GE(h.computation->runtime(0).stats().rollbacks, 3);
}

TEST(Runtime, VisibleOutputConsistentAcrossFailure) {
  // Reference: failure-free run.
  Harness reference("cpvs");
  reference.computation->Run();

  Harness failed("cpvs");
  failed.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(1));
  failed.computation->Run();

  auto check = ftx_rec::CheckConsistentRecovery(reference.computation->recorder(),
                                                failed.computation->recorder(), 1);
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

TEST(Runtime, KernelStateSurvivesRecovery) {
  Harness h("cbndvs-log");
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(2));
  ftx::ComputationResult result = h.computation->Run();
  ASSERT_TRUE(result.all_done);
  // The fd opened at Init must still be open after recovery, with the file
  // writes the run performed accounted (40/7 = 5 writes of 128B -> 1 block
  // each: disk usage must match exactly, not double-count replay).
  const ftx_sim::KernelState& kernel = h.computation->kernel().StateOf(0);
  ASSERT_FALSE(kernel.fd_table.empty());
  ASSERT_TRUE(kernel.fd_table[0].has_value());
  EXPECT_EQ(kernel.fd_table[0]->path, "counter.log");
  EXPECT_EQ(kernel.disk_blocks_used, 5);
}

TEST(Runtime, SaveWorkHoldsOnRecoveredTracePrefix) {
  // The failure-free portion of a protocol-governed run passes the
  // Save-work checker (the runtime's event discipline is correct).
  Harness h("cbndvs");
  ftx::ComputationResult result = h.computation->Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_TRUE(ftx_sm::CheckSaveWork(h.computation->trace()).ok());
}

TEST(Runtime, CommitStatsAreCoherent) {
  Harness h("cand");
  ftx::ComputationResult result = h.computation->Run();
  ASSERT_TRUE(result.all_done);
  const auto& stats = h.computation->runtime(0).stats();
  // CAND commits once per unlogged ND event: 40/5 timeofday + 40/7 writes,
  // plus checkpoint #0 and the 40 loggable inputs (CAND does not log).
  EXPECT_GT(stats.commits, 40);
  EXPECT_GT(stats.nd_events, 40);
  EXPECT_EQ(stats.visible_events, 40);
  EXPECT_GT(stats.commit_time.nanos(), 0);
  EXPECT_GT(stats.pages_committed, 0);
}

TEST(Runtime, NdLogReplayKeepsLoggedProtocolConsistent) {
  // With cand-log, inputs are replayed from the ND log after recovery; the
  // run must still complete with identical final state and no duplicated
  // *new* outputs beyond tolerated repeats.
  Harness reference("cand-log");
  reference.computation->Run();
  auto ref_state = CounterApp::Read(reference.computation->runtime(0));

  Harness failed("cand-log");
  failed.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(1));
  ftx::ComputationResult result = failed.computation->Run();
  ASSERT_TRUE(result.all_done);
  auto state = CounterApp::Read(failed.computation->runtime(0));
  EXPECT_EQ(state.accumulator, ref_state.accumulator);

  auto check = ftx_rec::CheckConsistentRecovery(reference.computation->recorder(),
                                                failed.computation->recorder(), 1);
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

TEST(Runtime, GroupCommitMatchesUnbatchedRunAndAuditsClean) {
  // Group-commit staging must be invisible to everything but the sync
  // schedule: same app state, same commit count, and a clean online
  // Save-work audit. cand commits after each ND event, so a step with two
  // ND events stages two records into one window; every Print flushes the
  // open window before the output escapes.
  auto run = [](bool batched) {
    ftx::ComputationOptions options;
    options.seed = 7;
    options.protocol = "cand";
    options.store = ftx::StoreKind::kDisk;
    options.audit = true;
    if (batched) {
      options.group_commit.max_records = 8;
    }
    std::vector<std::unique_ptr<ftx_dc::App>> apps;
    apps.push_back(std::make_unique<CounterApp>());
    auto computation = std::make_unique<ftx::Computation>(options, std::move(apps));
    computation->SetInputScript(0, TokenScript(40));
    ftx::ComputationResult result = computation->Run();
    return std::make_pair(std::move(computation), result);
  };

  auto [unbatched, base] = run(false);
  auto [batched, grouped] = run(true);
  EXPECT_TRUE(base.all_done);
  EXPECT_TRUE(grouped.all_done);
  EXPECT_EQ(grouped.total_commits, base.total_commits);
  auto base_state = CounterApp::Read(unbatched->runtime(0));
  auto grouped_state = CounterApp::Read(batched->runtime(0));
  EXPECT_EQ(grouped_state.steps, base_state.steps);
  EXPECT_EQ(grouped_state.accumulator, base_state.accumulator);
  ASSERT_NE(batched->audit(), nullptr);
  EXPECT_EQ(batched->audit()->violations(), 0);
  // Clean shutdown leaves nothing staged: every commit reached the log.
  for (ftx::Computation* computation : {unbatched.get(), batched.get()}) {
    EXPECT_EQ(static_cast<int64_t>(computation->redo_log(0)->records().size()),
              computation->runtime(0).stats().commits);
  }
}

TEST(Runtime, GroupCommitSurvivesMidRunFailure) {
  // A kill with a window open drops the staged (never-reported) commits;
  // recovery replays the durable prefix and the run still finishes with
  // the exact expected state.
  ftx::ComputationOptions options;
  options.seed = 7;
  options.protocol = "cand";
  options.store = ftx::StoreKind::kDisk;
  options.group_commit.max_records = 8;
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::make_unique<CounterApp>());
  ftx::Computation computation(options, std::move(apps));
  computation.SetInputScript(0, TokenScript(40));
  computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(500));
  ftx::ComputationResult result = computation.Run();
  EXPECT_TRUE(result.all_done);
  auto state = CounterApp::Read(computation.runtime(0));
  EXPECT_EQ(state.steps, 40);
  EXPECT_EQ(state.accumulator, ExpectedAccumulator(40));
  EXPECT_GE(computation.runtime(0).stats().rollbacks, 1);
}

// Dirties every page of its segment each step and prints nothing. Under
// cand each step ends in a commit (after its input), so with a large
// max_records only the byte cap, a kill or the end of the run closes a
// window: a record of 64 pages bills 262,784 bytes, and the fourth of a
// window crosses ftx_store::BatchPolicy::kMaxBytes.
class PageApp : public ftx_dc::App {
 public:
  static constexpr int64_t kPages = 64;
  static constexpr int64_t kPageBytes = 4096;

  std::string_view name() const override { return "pages"; }
  size_t SegmentBytes() const override { return kPages * kPageBytes; }
  int64_t HeapBytes() const override { return 0; }
  void Init(ftx_dc::ProcessEnv&) override {}

  ftx_dc::StepOutcome Step(ftx_dc::ProcessEnv& env) override {
    std::optional<ftx::Bytes> token = env.ReadUserInput();
    if (!token.has_value()) {
      return {ftx_dc::StepOutcome::Status::kDone, ftx::Duration()};
    }
    for (int64_t page = 0; page < kPages; ++page) {
      env.segment().WriteValue(page * kPageBytes, (*token)[0]);
    }
    return {ftx_dc::StepOutcome::Status::kContinue, ftx::Duration()};
  }
};

// A cand DC-disk run of PageApp over `tokens` inputs in windows of at most
// 100 records, machine 0's log journaled into `journal` on the simulated
// clock.
std::unique_ptr<ftx::Computation> JournaledPageRun(int tokens, ftx_store::WriteJournal* journal) {
  ftx::ComputationOptions options;
  options.seed = 7;
  options.protocol = "cand";
  options.store = ftx::StoreKind::kDisk;
  options.group_commit.max_records = 100;
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::make_unique<PageApp>());
  auto computation = std::make_unique<ftx::Computation>(options, std::move(apps));
  computation->SetInputScript(0, TokenScript(tokens));
  ftx_sim::Simulator* sim = &computation->sim();
  journal->SetClock([sim]() { return sim->Now(); });
  computation->redo_log(0)->AttachJournal(journal);
  return computation;
}

// The record that crosses the byte cap still joins its window (the flush
// fires right after staging it), so one oversized commit never wedges the
// window, and the window holds the records before the line as well as the
// one that crosses it.
TEST(CommitPipeline, MaxBytesOverflowRecordJoinsItsWindow) {
  ftx_store::WriteJournal journal;
  std::unique_ptr<ftx::Computation> computation = JournaledPageRun(12, &journal);
  ASSERT_TRUE(computation->Run().all_done);
  const auto& records = computation->redo_log(0)->records();
  ASSERT_EQ(records.size(), 13u);  // checkpoint #0 and one per step

  // Checkpoint #0 is a window of its own; then every fourth record closes
  // one.
  std::vector<int64_t> window_ends;
  for (const auto& [end, time] : CommitWindows(journal)) {
    window_ends.push_back(end);
  }
  EXPECT_EQ(window_ends, (std::vector<int64_t>{0, 4, 8, 12}));
  for (size_t end : {4u, 8u, 12u}) {
    SCOPED_TRACE("window ending at " + std::to_string(end));
    int64_t before = 0;
    for (size_t i = end - 3; i < end; ++i) {
      before += records[i].PayloadBytes() + 64;
    }
    EXPECT_LT(before, ftx_store::BatchPolicy::kMaxBytes);
    EXPECT_GE(before + records[end].PayloadBytes() + 64, ftx_store::BatchPolicy::kMaxBytes);
  }
}

// A kill drops the open window: its records never reach the log, and the
// recovered run numbers its records on from the last persisted one, as if
// the dropped ones (never reported committed) had not happened.
TEST(CommitPipeline, DropDiscardsStagedWindowWithoutPersisting) {
  ftx_store::WriteJournal reference_journal;
  std::unique_ptr<ftx::Computation> reference = JournaledPageRun(12, &reference_journal);
  ASSERT_TRUE(reference->Run().all_done);
  // Just before the step that stages record 8 and closes the window of
  // records 5-8, records 5-7 are staged.
  const ftx::TimePoint kill_at = CommitWindows(reference_journal).at(8) + ftx::Nanoseconds(-1);

  ftx_store::WriteJournal journal;
  std::unique_ptr<ftx::Computation> computation = JournaledPageRun(12, &journal);
  computation->ScheduleStopFailure(0, kill_at);
  ASSERT_TRUE(computation->Run().all_done);
  const ftx_dc::RuntimeStats& stats = computation->runtime(0).stats();
  EXPECT_EQ(stats.rollbacks, 1);
  const auto& records = computation->redo_log(0)->records();
  ASSERT_EQ(records.size(), 13u);
  EXPECT_EQ(stats.commits, 13 + 3);  // records 5-7 staged twice
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, static_cast<int64_t>(i));
  }
  const uint8_t last_token = TokenScript(12).back()[0];
  for (int64_t page = 0; page < PageApp::kPages; ++page) {
    EXPECT_EQ(computation->runtime(0).segment().Read<uint8_t>(page * PageApp::kPageBytes),
              last_token);
  }
}

TEST(Runtime, BaselineModeDoesNoRecoveryWork) {
  ftx::ComputationOptions options;
  options.mode = ftx_dc::RuntimeMode::kBaseline;
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::make_unique<CounterApp>());
  ftx::Computation computation(options, std::move(apps));
  computation.SetInputScript(0, TokenScript(20));
  ftx::ComputationResult result = computation.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(result.total_commits, 0);
  EXPECT_EQ(computation.runtime(0).stats().commit_time.nanos(), 0);
}

TEST(Runtime, RecoverableSlowerThanBaseline) {
  ftx::ComputationOptions options;
  options.mode = ftx_dc::RuntimeMode::kBaseline;
  std::vector<std::unique_ptr<ftx_dc::App>> baseline_apps;
  baseline_apps.push_back(std::make_unique<CounterApp>());
  ftx::Computation baseline(options, std::move(baseline_apps));
  baseline.SetInputScript(0, TokenScript(30));
  ftx::ComputationResult base = baseline.Run();

  options.mode = ftx_dc::RuntimeMode::kRecoverable;
  options.protocol = "cpvs";
  options.store = ftx::StoreKind::kDisk;
  std::vector<std::unique_ptr<ftx_dc::App>> rec_apps;
  rec_apps.push_back(std::make_unique<CounterApp>());
  ftx::Computation recoverable(options, std::move(rec_apps));
  recoverable.SetInputScript(0, TokenScript(30));
  ftx::ComputationResult rec = recoverable.Run();

  EXPECT_GT((rec.end_time - ftx::TimePoint()).nanos(),
            (base.end_time - ftx::TimePoint()).nanos());
}

// Every dependency a Runtime can require, each valid. Every other test
// builds its runtimes through Computation; these construct one directly.
struct RuntimeDependencies {
  ftx_sim::Simulator sim{1};
  ftx_sim::Network network{&sim, 1};
  ftx_sim::KernelSim kernel{&sim, 1};
  ftx_sm::Trace trace{1};
  ftx_rec::OutputRecorder recorder;
  ftx_store::RioStore store;
  CounterApp app;

  ftx_dc::Environment Full() {
    ftx_dc::Environment env;
    env.sim = &sim;
    env.network = &network;
    env.kernel = &kernel;
    env.trace = &trace;
    env.recorder = &recorder;
    env.store = &store;
    return env;
  }

  template <typename Field>
  ftx_dc::Environment Without(Field ftx_dc::Environment::*field) {
    ftx_dc::Environment env = Full();
    env.*field = nullptr;
    return env;
  }

  void Construct(ftx_dc::Environment env, ftx_dc::RuntimeMode mode, bool with_protocol = true) {
    ftx_dc::Runtime runtime(0, 1, &app,
                            with_protocol ? ftx_proto::MakeProtocolByName("cpvs") : nullptr,
                            std::move(env), mode);
  }
};

TEST(Runtime, ConstructsWithEveryRequiredDependency) {
  RuntimeDependencies deps;
  deps.Construct(deps.Full(), ftx_dc::RuntimeMode::kRecoverable);
  // Baseline mode needs no trace, store or protocol.
  ftx_dc::Environment env = deps.Full();
  env.trace = nullptr;
  env.store = nullptr;
  deps.Construct(env, ftx_dc::RuntimeMode::kBaseline, /*with_protocol=*/false);
}

TEST(RuntimeDeathTest, NamesEachMissingRequiredDependency) {
  RuntimeDependencies deps;
  for (ftx_dc::RuntimeMode mode :
       {ftx_dc::RuntimeMode::kBaseline, ftx_dc::RuntimeMode::kRecoverable}) {
    EXPECT_DEATH(deps.Construct(deps.Without(&ftx_dc::Environment::sim), mode),
                 "missing required dependency 'sim'");
    EXPECT_DEATH(deps.Construct(deps.Without(&ftx_dc::Environment::network), mode),
                 "missing required dependency 'network'");
    EXPECT_DEATH(deps.Construct(deps.Without(&ftx_dc::Environment::kernel), mode),
                 "missing required dependency 'kernel'");
    EXPECT_DEATH(deps.Construct(deps.Without(&ftx_dc::Environment::recorder), mode),
                 "missing required dependency 'recorder'");
  }
}

TEST(RuntimeDeathTest, RecoverableModeAlsoNamesMissingTraceStoreAndProtocol) {
  RuntimeDependencies deps;
  const ftx_dc::RuntimeMode recoverable = ftx_dc::RuntimeMode::kRecoverable;
  EXPECT_DEATH(deps.Construct(deps.Without(&ftx_dc::Environment::trace), recoverable),
               "recoverable mode requires dependency 'trace'");
  EXPECT_DEATH(deps.Construct(deps.Without(&ftx_dc::Environment::store), recoverable),
               "recoverable mode requires dependency 'store'");
  EXPECT_DEATH(deps.Construct(deps.Full(), recoverable, /*with_protocol=*/false),
               "recoverable mode requires dependency 'protocol'");
}

// Past its payload horizon a DC-disk log keeps each record's page counts,
// metadata and encoded length but no page bytes, and the committing runtime
// counts pages instead of serializing them: every simulated quantity of the
// run, and every record's header, stays the same. The batched case puts the
// horizon inside a commit window, so the runtime must number a staged record
// after the ones staged before it in the same window.
TEST(Runtime, DcDiskPayloadHorizonLeavesSimulatedRunUnchanged) {
  struct Case {
    const char* protocol;
    int64_t batch_records;
    int64_t horizon;
  };
  for (const Case& c : {Case{"cpvs", 1, 2}, Case{"cand", 4, 7}}) {
    SCOPED_TRACE(std::string(c.protocol) + " batch " + std::to_string(c.batch_records));
    // A journaled run of the same timeline keeps every record's payload, and
    // its commit slots show the windows.
    ftx_store::WriteJournal journal;
    Harness journaled(c.protocol, ftx::StoreKind::kDisk, 40, c.batch_records);
    journaled.computation->redo_log(0)->AttachJournal(&journal);
    ASSERT_TRUE(journaled.computation->Run().all_done);
    // Records horizon - 1 and horizon share a window exactly when no window
    // ends at horizon - 1.
    EXPECT_EQ(CommitWindows(journal).count(c.horizon - 1) == 0, c.batch_records > 1);
    // A record without payload takes over no page, so the capped log
    // releases what a log of the records below the horizon alone releases.
    const auto& rj = journaled.computation->redo_log(0)->records();
    ASSERT_GT(rj.size(), static_cast<size_t>(c.horizon));
    ftx_store::RedoLog kept;
    kept.RestoreForRecovery(std::vector<ftx_store::RedoRecord>(rj.begin(), rj.begin() + c.horizon));

    Harness full(c.protocol, ftx::StoreKind::kDisk, 40, c.batch_records);
    Harness capped(c.protocol, ftx::StoreKind::kDisk, 40, c.batch_records);
    capped.computation->redo_log(0)->KeepPayloadsBelow(c.horizon);
    const ftx::ComputationResult a = full.computation->Run();
    const ftx::ComputationResult b = capped.computation->Run();
    ASSERT_TRUE(a.all_done);
    ASSERT_TRUE(b.all_done);
    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_EQ(a.total_commits, b.total_commits);
    EXPECT_EQ(a.total_events, b.total_events);
    const ftx_dc::RuntimeStats& sa = full.computation->runtime(0).stats();
    const ftx_dc::RuntimeStats& sb = capped.computation->runtime(0).stats();
    EXPECT_EQ(sa.commit_time, sb.commit_time);
    EXPECT_EQ(sa.pages_committed, sb.pages_committed);
    EXPECT_EQ(sa.bytes_persisted, sb.bytes_persisted);
    EXPECT_EQ(full.computation->metrics().ToJsonString(),
              capped.computation->metrics().ToJsonString());

    const auto& ra = full.computation->redo_log(0)->records();
    const auto& rb = capped.computation->redo_log(0)->records();
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_EQ(rj.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      SCOPED_TRACE("record " + std::to_string(i));
      EXPECT_EQ(rb[i].sequence, ra[i].sequence);
      EXPECT_EQ(rb[i].page_count, ra[i].page_count);
      EXPECT_EQ(rb[i].page_bytes, ra[i].page_bytes);
      EXPECT_EQ(rb[i].metadata, ra[i].metadata);
      EXPECT_EQ(rb[i].PayloadBytes(), ra[i].PayloadBytes());
      EXPECT_EQ(rb[i].payload_dropped, rb[i].sequence >= c.horizon);
      if (rb[i].payload_dropped) {
        EXPECT_TRUE(rb[i].pages_payload.empty());
        continue;
      }
      EXPECT_EQ(rb[i].pages_crc, rj[i].pages_crc);
      EXPECT_EQ(rb[i].released, kept.records()[i].released);
      if (rb[i].released) {
        EXPECT_TRUE(rb[i].pages_payload.empty());
      } else {
        EXPECT_EQ(rb[i].pages_payload, rj[i].pages_payload);
        EXPECT_TRUE(rb[i].ValidatePages());
      }
    }
  }
}

// Recovery installs pages from every record it reads; a record whose
// payload was dropped aborts it.
TEST(RuntimeDeathTest, DcDiskRecoveryRefusesRecordsWithoutPayload) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Harness h("cpvs", ftx::StoreKind::kDisk);
  h.computation->redo_log(0)->KeepPayloadsBelow(0);
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(500));
  EXPECT_DEATH(h.computation->Run(), "whose payload was dropped");
}

// DC-disk recovery rebuilds the segment from the redo log, so a DC-disk
// runtime's segment keeps no before-images and refuses to roll back. A Rio
// runtime's keeps them; the recovery tests above cover its rollback.
TEST(RuntimeDeathTest, DcDiskSegmentRefusesAbort) {
  Harness disk("cpvs", ftx::StoreKind::kDisk);
  ASSERT_TRUE(disk.computation->Run().all_done);
  EXPECT_DEATH(disk.computation->runtime(0).segment().Abort(), "keeps no before-images");
}

}  // namespace
