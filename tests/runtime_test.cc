// Tests for the Discount Checking runtime: commit/rollback round trips,
// kernel-state reconstruction, ND-log replay, DC-disk redo recovery, cost
// accounting, and the constructor's named-field dependency checks — driven
// through a purpose-built test application.

#include <gtest/gtest.h>

#include "src/core/computation.h"
#include "src/recovery/consistency.h"
#include "src/statemachine/invariants.h"

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
                   int tokens = 40) {
    ftx::ComputationOptions options;
    options.seed = 7;
    options.protocol = protocol;
    options.store = store;
    std::vector<std::unique_ptr<ftx_dc::App>> apps;
    apps.push_back(std::make_unique<CounterApp>());
    computation = std::make_unique<ftx::Computation>(options, std::move(apps));
    computation->SetInputScript(0, TokenScript(tokens));
  }
  std::unique_ptr<ftx::Computation> computation;
};

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
      options.group_commit.enabled = true;
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
  // Clean shutdown leaves nothing staged.
  ASSERT_NE(batched->commit_pipeline(0), nullptr);
  EXPECT_TRUE(batched->commit_pipeline(0)->empty());
}

TEST(Runtime, GroupCommitSurvivesMidRunFailure) {
  // A kill with a window open drops the staged (never-reported) commits;
  // recovery replays the durable prefix and the run still finishes with
  // the exact expected state.
  ftx::ComputationOptions options;
  options.seed = 7;
  options.protocol = "cand";
  options.store = ftx::StoreKind::kDisk;
  options.group_commit.enabled = true;
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

}  // namespace
