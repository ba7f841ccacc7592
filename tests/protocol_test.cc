// Tests for the Save-work protocols: unit tests of each protocol's decision
// table, plus the central property test of the library — every protocol,
// applied to randomized multi-process computations, produces a trace the
// Save-work checker accepts. A deliberately broken protocol is the negative
// control.

#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/protocol/protocol.h"
#include "src/protocol/protocol_space.h"
#include "src/protocol/script_replay.h"
#include "src/statemachine/invariants.h"
#include "src/statemachine/random_model.h"

namespace {

using ftx_proto::AppEvent;
using ftx_proto::CommitDecision;
using ftx_proto::Protocol;

// --- decision tables ---

TEST(ProtocolDecisions, CandCommitsAfterEveryNdEvent) {
  auto protocol = ftx_proto::MakeProtocolByName("cand");
  for (AppEvent event : {AppEvent::kTransientNd, AppEvent::kFixedNd, AppEvent::kUserInput,
                         AppEvent::kReceive}) {
    CommitDecision d = protocol->Decide(event);
    EXPECT_TRUE(d.commit_after);
    EXPECT_FALSE(d.commit_before);
    EXPECT_FALSE(d.log_event);
    protocol->OnCommitted();
  }
  EXPECT_FALSE(protocol->Decide(AppEvent::kVisible).commit_after);
  EXPECT_FALSE(protocol->Decide(AppEvent::kSend).commit_after);
  EXPECT_FALSE(protocol->Decide(AppEvent::kInternal).commit_after);
}

TEST(ProtocolDecisions, CandLogLogsInputAndReceives) {
  auto protocol = ftx_proto::MakeProtocolByName("cand-log");
  CommitDecision input = protocol->Decide(AppEvent::kUserInput);
  EXPECT_TRUE(input.log_event);
  EXPECT_FALSE(input.commit_after);
  CommitDecision recv = protocol->Decide(AppEvent::kReceive);
  EXPECT_TRUE(recv.log_event);
  EXPECT_FALSE(recv.commit_after);
  // Unloggable ND still commits.
  CommitDecision signal = protocol->Decide(AppEvent::kTransientNd);
  EXPECT_FALSE(signal.log_event);
  EXPECT_TRUE(signal.commit_after);
}

TEST(ProtocolDecisions, CpvsCommitsBeforeVisibleAndSendAlways) {
  auto protocol = ftx_proto::MakeProtocolByName("cpvs");
  EXPECT_TRUE(protocol->Decide(AppEvent::kVisible).commit_before);
  protocol->OnCommitted();
  // Even with no ND since the last commit: CPVS is pessimistic.
  EXPECT_TRUE(protocol->Decide(AppEvent::kSend).commit_before);
  EXPECT_FALSE(protocol->Decide(AppEvent::kTransientNd).commit_before);
}

TEST(ProtocolDecisions, CbndvsCommitsOnlyWhenNdDirty) {
  auto protocol = ftx_proto::MakeProtocolByName("cbndvs");
  EXPECT_FALSE(protocol->Decide(AppEvent::kVisible).commit_before);  // clean
  protocol->Decide(AppEvent::kTransientNd);
  EXPECT_TRUE(protocol->HasUncommittedNd());
  EXPECT_TRUE(protocol->Decide(AppEvent::kVisible).commit_before);
  protocol->OnCommitted();
  EXPECT_FALSE(protocol->HasUncommittedNd());
  EXPECT_FALSE(protocol->Decide(AppEvent::kSend).commit_before);
}

TEST(ProtocolDecisions, CbndvsLogOnlyArmsOnUnloggedNd) {
  auto protocol = ftx_proto::MakeProtocolByName("cbndvs-log");
  protocol->Decide(AppEvent::kUserInput);  // logged: does not arm
  EXPECT_FALSE(protocol->Decide(AppEvent::kVisible).commit_before);
  protocol->Decide(AppEvent::kTransientNd);  // unloggable: arms
  EXPECT_TRUE(protocol->Decide(AppEvent::kVisible).commit_before);
}

TEST(ProtocolDecisions, TwoPhaseVariantsCoordinateOnVisibleOnly) {
  auto cpv = ftx_proto::MakeProtocolByName("cpv-2pc");
  CommitDecision on_visible = cpv->Decide(AppEvent::kVisible);
  EXPECT_TRUE(on_visible.commit_before);
  EXPECT_TRUE(on_visible.coordinated);
  EXPECT_EQ(on_visible.scope, ftx_proto::CoordinationScope::kAll);
  EXPECT_FALSE(cpv->Decide(AppEvent::kSend).commit_before);  // sends are free

  auto cbndv = ftx_proto::MakeProtocolByName("cbndv-2pc");
  CommitDecision narrowed = cbndv->Decide(AppEvent::kVisible);
  EXPECT_TRUE(narrowed.coordinated);
  EXPECT_EQ(narrowed.scope, ftx_proto::CoordinationScope::kNdDirty);
}

TEST(ProtocolDecisions, CommitAllCommitsEverything) {
  auto protocol = ftx_proto::MakeProtocolByName("commit-all");
  for (AppEvent event : {AppEvent::kInternal, AppEvent::kTransientNd, AppEvent::kVisible,
                         AppEvent::kSend}) {
    EXPECT_TRUE(protocol->Decide(event).commit_after);
  }
}

// --- the whole decision matrix ---
//
// Each protocol's decision for every AppEvent, from a clean state and from
// an ND-dirty one, in a compact text form. A cell holds, in CommitDecision
// order, B commit_before, A commit_after, C coordinated, the scope's
// enumerator value, L log_event, Y log_async and F flush_log_before, then N
// if the protocol holds unlogged ND after the event; '.' is false. Cells run
// in AppEvent order, each from a fresh instance; the dirty state first
// decides a signal, which only full-machine logging converts.

std::string DecisionCell(Protocol& protocol, AppEvent event) {
  CommitDecision d = protocol.Decide(event);
  std::string cell;
  cell += d.commit_before ? 'B' : '.';
  cell += d.commit_after ? 'A' : '.';
  cell += d.coordinated ? 'C' : '.';
  cell += static_cast<char>('0' + static_cast<int>(d.scope));
  cell += d.log_event ? 'L' : '.';
  cell += d.log_async ? 'Y' : '.';
  cell += d.flush_log_before ? 'F' : '.';
  cell += protocol.HasUncommittedNd() ? 'N' : '.';
  return cell;
}

std::string DecisionRow(std::string_view name, bool dirty) {
  std::string row;
  for (int e = 0; e <= static_cast<int>(AppEvent::kVisible); ++e) {
    std::unique_ptr<Protocol> protocol = ftx_proto::MakeProtocolByName(name);
    if (dirty) {
      protocol->Decide(AppEvent::kSignal);
    }
    if (!row.empty()) {
      row += ' ';
    }
    row += DecisionCell(*protocol, static_cast<AppEvent>(e));
  }
  return row;
}

// Every row of the rule table, in its order: name, point, notes, and the
// decisions from a clean and from an ND-dirty state.
struct PinnedProtocol {
  const char* name;
  double nd_effort;
  double visible_effort;
  const char* notes;
  const char* clean;
  const char* dirty;
};

const PinnedProtocol kPinnedProtocols[] = {
    {"commit-all", 0.0, 0.0, "origin: commits every event",
     ".A.0.... .A.0...N .A.0...N .A.0...N .A.0...N .A.0...N .A.0.... .A.0....",
     ".A.0...N .A.0...N .A.0...N .A.0...N .A.0...N .A.0...N .A.0...N .A.0...N"},
    {"cand", 0.35, 0.0, "distinguishes ND events",
     "...0.... .A.0...N .A.0...N .A.0...N .A.0...N .A.0...N ...0.... ...0....",
     "...0...N .A.0...N .A.0...N .A.0...N .A.0...N .A.0...N ...0...N ...0...N"},
    {"sbl", 0.55, 0.0, "sender-based logging: receives logged at sender",
     "...0.... .A.0...N .A.0...N .A.0...N ...0L... .A.0...N ...0.... ...0....",
     "...0...N .A.0...N .A.0...N .A.0...N ...0L..N .A.0...N ...0...N ...0...N"},
    {"targon32", 0.75, 0.0, "all ND but signals converted to logged messages",
     "...0.... ...0L... .A.0...N ...0L... ...0L... .A.0...N ...0.... ...0....",
     "...0...N ...0L..N .A.0...N ...0L..N ...0L..N .A.0...N ...0...N ...0...N"},
    {"hypervisor", 0.95, 0.0, "logs all ND via virtual machine; never commits",
     "...0.... ...0L... ...0L... ...0L... ...0L... ...0L... ...0.... ...0....",
     "...0.... ...0L... ...0L... ...0L... ...0L... ...0L... ...0.... ...0...."},
    {"cand-log", 0.65, 0.0, "CAND plus input/receive logging",
     "...0.... .A.0...N .A.0...N ...0L... ...0L... .A.0...N ...0.... ...0....",
     "...0...N .A.0...N .A.0...N ...0L..N ...0L..N .A.0...N ...0...N ...0...N"},
    {"fbl", 0.6, 0.1, "family-based logging: log entries at downstream processes",
     "...0.... .A.0...N .A.0...N ...0LY.. ...0LY.. .A.0...N ...0..F. ...0..F.",
     "...0...N .A.0...N .A.0...N ...0LY.N ...0LY.N .A.0...N ...0..FN ...0..FN"},
    {"cpvs", 0.0, 0.45, "commits before true visible and send events",
     "...0.... ...0...N ...0...N ...0...N ...0...N ...0...N B..0.... B..0....",
     "...0...N ...0...N ...0...N ...0...N ...0...N ...0...N B..0...N B..0...N"},
    {"cbndvs", 0.35, 0.45, "commit only between ND and visible/send",
     "...0.... ...0...N ...0...N ...0...N ...0...N ...0...N ...0.... ...0....",
     "...0...N ...0...N ...0...N ...0...N ...0...N ...0...N B..0...N B..0...N"},
    {"cbndvs-log", 0.65, 0.45, "CBNDVS plus input/receive logging",
     "...0.... ...0...N ...0...N ...0L... ...0L... ...0...N ...0.... ...0....",
     "...0...N ...0...N ...0...N ...0L..N ...0L..N ...0...N B..0...N B..0...N"},
    {"optimistic-log", 0.55, 0.7, "async log writes; visible waits for relevant records",
     "...0.... ...0LY.. ...0LY.. ...0LY.. ...0LY.. ...0LY.. ...0.... ...0..F.",
     "...0.... ...0LY.. ...0LY.. ...0LY.. ...0LY.. ...0LY.. ...0.... ...0..F."},
    {"manetho", 0.75, 0.8, "antecedence graph flushed before visible",
     "...0.... ...0LY.. ...0LY.. ...0LY.. ...0LY.. ...0LY.. ...0..F. ...0..F.",
     "...0.... ...0LY.. ...0LY.. ...0LY.. ...0LY.. ...0LY.. ...0..F. ...0..F."},
    {"coordinated-ckpt", 0.1, 0.85, "remote processes asked to commit before a visible",
     "...0.... ...0...N ...0...N ...0...N ...0...N ...0...N ...0.... B.C2....",
     "...0...N ...0...N ...0...N ...0...N ...0...N ...0...N ...0...N B.C2...N"},
    {"cpv-2pc", 0.0, 0.85, "all processes commit on any visible",
     "...0.... ...0...N ...0...N ...0...N ...0...N ...0...N ...0.... B.C0....",
     "...0...N ...0...N ...0...N ...0...N ...0...N ...0...N ...0...N B.C0...N"},
    {"cbndv-2pc", 0.35, 0.85, "ND-dirty processes commit on any visible",
     "...0.... ...0...N ...0...N ...0...N ...0...N ...0...N ...0.... B.C1....",
     "...0...N ...0...N ...0...N ...0...N ...0...N ...0...N ...0...N B.C1...N"},
};

TEST(ProtocolDecisions, EveryProtocolMatchesItsPinnedRow) {
  std::span<const ftx_proto::ProtocolRule> rules = ftx_proto::ProtocolRules();
  ASSERT_EQ(rules.size(), std::size(kPinnedProtocols));
  for (size_t i = 0; i < rules.size(); ++i) {
    const PinnedProtocol& pinned = kPinnedProtocols[i];
    EXPECT_EQ(rules[i].name, pinned.name);
    EXPECT_EQ(rules[i].point.nd_effort, pinned.nd_effort) << pinned.name;
    EXPECT_EQ(rules[i].point.visible_effort, pinned.visible_effort) << pinned.name;
    EXPECT_EQ(rules[i].notes, pinned.notes) << pinned.name;
    EXPECT_EQ(DecisionRow(pinned.name, /*dirty=*/false), pinned.clean) << pinned.name;
    EXPECT_EQ(DecisionRow(pinned.name, /*dirty=*/true), pinned.dirty) << pinned.name;
  }
}

// Every field of every row reaches some decision above, so no field can
// change while the matrix stays the same.
TEST(ProtocolDecisions, EveryRuleFieldTakesEffect) {
  for (const ftx_proto::ProtocolRule& rule : ftx_proto::ProtocolRules()) {
    const bool leaves_nd_unlogged = (ftx_proto::kNdEvents & ~rule.log) != 0;
    if (rule.log_async) {
      EXPECT_NE(rule.log, 0) << rule.name;
    }
    if (rule.commit_after == ftx_proto::CommitAfter::kUnloggedNd) {
      EXPECT_TRUE(leaves_nd_unlogged) << rule.name;
    }
    if (rule.commit_before_only_after_nd) {
      EXPECT_NE(rule.commit_before, 0) << rule.name;
      EXPECT_TRUE(leaves_nd_unlogged) << rule.name;
    }
    if (rule.coordinated.has_value()) {
      EXPECT_NE(rule.commit_before, 0) << rule.name;
    }
  }
}

TEST(ProtocolFactory, AllMeasuredNamesResolve) {
  for (const std::string& name : ftx_proto::MeasuredProtocolNames()) {
    auto protocol = ftx_proto::MakeProtocolByName(name);
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->name(), name);
  }
}

TEST(ProtocolSpace, EntriesCoverImplementedProtocols) {
  for (const ftx_proto::ProtocolRule& rule : ftx_proto::ProtocolRules()) {
    EXPECT_GE(rule.point.nd_effort, 0.0);
    EXPECT_LE(rule.point.nd_effort, 1.0);
    EXPECT_GE(rule.point.visible_effort, 0.0);
    EXPECT_LE(rule.point.visible_effort, 1.0);
    EXPECT_EQ(ftx_proto::MakeProtocolByName(rule.name)->name(), rule.name);
  }
  EXPECT_EQ(ftx_proto::ProtocolRules().size(), 15u);  // every point is instantiable
}

TEST(ProtocolSpace, DesignVariablesFollowFig4Trends) {
  // Commit frequency falls with radial distance.
  auto origin = ftx_proto::DeriveDesignVariables({0.0, 0.0});
  auto far = ftx_proto::DeriveDesignVariables({0.9, 0.9});
  EXPECT_GT(origin.relative_commit_frequency, far.relative_commit_frequency);
  // Recovery-time constraint grows along x.
  EXPECT_GT(ftx_proto::DeriveDesignVariables({0.9, 0.0}).recovery_constraint,
            ftx_proto::DeriveDesignVariables({0.1, 0.0}).recovery_constraint);
  // Propagation-failure survival grows with distance from the x axis.
  EXPECT_GT(ftx_proto::DeriveDesignVariables({0.2, 0.9}).propagation_survival,
            ftx_proto::DeriveDesignVariables({0.2, 0.0}).propagation_survival);
}

TEST(ProtocolSpace, AsciiRenderingMentionsEveryProtocol) {
  std::string plot = ftx_proto::RenderProtocolSpaceAscii();
  for (const ftx_proto::ProtocolRule& rule : ftx_proto::ProtocolRules()) {
    EXPECT_NE(plot.find(rule.name.substr(0, 4)), std::string::npos) << rule.name;
  }
}

// --- the Save-work property ---
//
// A miniature protocol executor: replays a random multi-process script,
// consulting a per-process protocol instance for every event and appending
// the resulting commit events (including full 2PC rounds) to the trace —
// the same event discipline the real runtime follows. The resulting trace
// must satisfy the Save-work checker for every protocol.

using ProtocolSeed = std::tuple<std::string, uint64_t>;

class SaveWorkProperty : public ::testing::TestWithParam<ProtocolSeed> {};

TEST_P(SaveWorkProperty, RandomComputationsUpholdSaveWork) {
  const auto& [protocol_name, seed] = GetParam();
  ftx::Rng rng(seed);
  ftx_sm::RandomTraceOptions options;
  options.num_processes = 3;
  options.events_per_process = 60;
  std::vector<ftx_sm::ScriptedEvent> script = ftx_sm::MakeRandomScript(&rng, options);

  ftx_proto::ScriptReplayResult replay =
      ftx_proto::ReplayScript(script, options.num_processes, protocol_name);

  ftx_sm::SaveWorkReport report = ftx_sm::CheckSaveWork(replay.trace);
  EXPECT_TRUE(report.ok()) << protocol_name << " seed " << seed << ": "
                           << report.violations.size() << " violations, e.g. "
                           << report.violations[0].ToString(replay.trace);
}

std::vector<std::string> AllProtocolNames() {
  std::vector<std::string> names;
  for (const ftx_proto::ProtocolRule& rule : ftx_proto::ProtocolRules()) {
    names.emplace_back(rule.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsManySeeds, SaveWorkProperty,
    ::testing::Combine(::testing::ValuesIn(AllProtocolNames()), ::testing::Range<uint64_t>(1, 16)),
    [](const ::testing::TestParamInfo<ProtocolSeed>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(SaveWorkNegativeControl, NeverCommittingViolates) {
  // Sanity check that the property is not vacuous: a "protocol" that never
  // commits or logs fails the checker on ND-before-visible computations.
  ftx::Rng rng(99);
  ftx_sm::RandomTraceOptions options;
  options.num_processes = 2;
  options.events_per_process = 80;
  options.nd_probability = 0.5;
  options.visible_probability = 0.3;
  ftx_sm::Trace trace = ftx_sm::MakeRandomComputation(&rng, options);
  EXPECT_FALSE(ftx_sm::CheckSaveWork(trace).ok());
}

TEST(SaveWorkCommitCounts, CbndvsNeverCommitsMoreThanCpvs) {
  // The protocol-space refinement: knowledge of non-determinism can only
  // remove commits.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ftx::Rng rng_a(seed);
    ftx::Rng rng_b(seed);
    ftx_sm::RandomTraceOptions options;
    auto script_a = ftx_sm::MakeRandomScript(&rng_a, options);
    auto script_b = ftx_sm::MakeRandomScript(&rng_b, options);

    auto cpvs = ftx_proto::ReplayScript(script_a, options.num_processes, "cpvs");
    auto cbndvs = ftx_proto::ReplayScript(script_b, options.num_processes, "cbndvs");
    EXPECT_LE(cbndvs.total_commits, cpvs.total_commits) << "seed " << seed;
  }
}

TEST(SaveWorkCommitCounts, LoggingReducesCandCommits) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ftx::Rng rng_a(seed);
    ftx::Rng rng_b(seed);
    ftx_sm::RandomTraceOptions options;
    auto script_a = ftx_sm::MakeRandomScript(&rng_a, options);
    auto script_b = ftx_sm::MakeRandomScript(&rng_b, options);

    auto cand = ftx_proto::ReplayScript(script_a, options.num_processes, "cand");
    auto cand_log = ftx_proto::ReplayScript(script_b, options.num_processes, "cand-log");
    EXPECT_LE(cand_log.total_commits, cand.total_commits) << "seed " << seed;
  }
}

}  // namespace
