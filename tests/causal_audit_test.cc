// Tests for the live causal audit (src/obs/causal/): its ring over the
// trace's events (the report's ledger), the online Save-work auditor pinned
// finding-for-finding against the offline oracle (ftx_sm::CheckSaveWork) on
// hand-built and randomized traces, the crash flight recorder, and the end-to-end
// guarantees — audited real runs report zero violations, a deliberately
// broken commit-too-little protocol is flagged with a dump naming the
// uncovered ND event, and the audit never perturbs a simulated quantity.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/fleet.h"
#include "src/apps/workloads.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/core/computation.h"
#include "src/core/experiment.h"
#include "src/core/fault_study.h"
#include "src/faults/injector.h"
#include "src/obs/causal/audit.h"
#include "src/obs/causal/auditor.h"
#include "src/obs/trace_event.h"
#include "src/statemachine/invariants.h"
#include "src/statemachine/trace.h"

namespace {

using ftx_sm::EventKind;
using ftx_sm::EventRef;
using ftx_sm::Trace;

// --- the ring (the report's ledger) and the flight recorder ---

using ftx_causal::CausalAudit;

// An audit fed by a hand-built trace's append observer, as a Computation
// feeds it; its clock reads the trace's event count.
struct AuditedTrace {
  explicit AuditedTrace(int num_processes)
      : trace(num_processes), audit(&trace, [this] { return trace.TotalEvents(); }, nullptr) {
    trace.SetAppendObserver([this](EventRef ref, const ftx_sm::TraceEvent& ev,
                                   const ftx_sm::VectorClock& clock) {
      audit.OnTraceEvent(ref, ev, clock);
    });
  }
  // The observer and the clock hold `this`.
  AuditedTrace(const AuditedTrace&) = delete;
  AuditedTrace& operator=(const AuditedTrace&) = delete;

  Trace trace;
  CausalAudit audit;
};

TEST(CausalLedger, RingEvictsOldestButTotalsKeepCounting) {
  AuditedTrace t(1);
  const int appends = CausalAudit::kRingCapacity + 44;
  for (int i = 0; i < appends; ++i) {
    t.trace.Append(0, EventKind::kInternal);
  }
  EXPECT_EQ(t.audit.total_appended(), appends);
  const ftx_obs::Json report = t.audit.ToJson();
  EXPECT_EQ(report.Find("ledger")->Find("appended")->integer(), appends);
  EXPECT_EQ(report.Find("ledger")->Find("capacity")->integer(), CausalAudit::kRingCapacity);

  t.audit.RecordIncident("tail", std::nullopt);
  const std::string& dump = t.audit.incidents()[0].dump;
  EXPECT_NE(dump.find("events=44..299 of 300\n"), std::string::npos);
  EXPECT_NE(dump.find("\n  [44] "), std::string::npos);
  EXPECT_NE(dump.find("\n  [299] "), std::string::npos);
  EXPECT_EQ(dump.find("[43] "), std::string::npos);  // evicted

  // A focus evicted from the ring marks no chain; one still in it does.
  t.audit.RecordIncident("evicted focus", EventRef{0, 3});
  EXPECT_EQ(t.audit.incidents()[1].dump.find("* ["), std::string::npos);
  t.audit.RecordIncident("retained focus", EventRef{0, 100});
  EXPECT_NE(t.audit.incidents()[2].dump.find("* [100] "), std::string::npos);
  EXPECT_EQ(t.audit.incidents()[2].dump.find("* [101] "), std::string::npos);
}

TEST(CausalLedger, RefToStringNotation) {
  EXPECT_EQ(ftx_causal::RefToString(EventRef{2, 17}), "p2#17");
  EXPECT_EQ(ftx_causal::RefToString(EventRef{}), "-");
}

TEST(FlightRecorder, RetainsUpToMaxIncidentsButCountsAll) {
  AuditedTrace t(1);
  t.trace.Append(0, EventKind::kInternal);
  const size_t incidents = CausalAudit::kMaxIncidents + 3;
  for (size_t i = 0; i < incidents; ++i) {
    t.audit.RecordIncident("incident " + std::to_string(i), std::nullopt);
  }
  EXPECT_EQ(t.audit.total_incidents(), static_cast<int64_t>(incidents));
  ASSERT_EQ(t.audit.incidents().size(), CausalAudit::kMaxIncidents);
  EXPECT_EQ(t.audit.incidents()[0].reason, "incident 0");
  EXPECT_EQ(t.audit.incidents().back().reason,
            "incident " + std::to_string(CausalAudit::kMaxIncidents - 1));
}

TEST(FlightRecorder, DumpMarksCausalChainOfFocus) {
  // p0's ND flows to p1 via a message; p1's visible is the focus. The ND,
  // the send, and the receive precede it causally and get '*'; p0's later
  // unrelated event does not.
  AuditedTrace t(2);
  t.trace.Append(0, EventKind::kTransientNd, -1, false, "flip");
  t.trace.Append(0, EventKind::kSend, 1);
  t.trace.Append(1, EventKind::kReceive, 1);
  EventRef focus = t.trace.Append(1, EventKind::kVisible, -1, false, "echo");
  t.trace.Append(0, EventKind::kInternal, -1, false, "later");

  t.audit.RecordIncident("test", focus);
  const std::string& dump = t.audit.incidents()[0].dump;
  EXPECT_NE(dump.find("flight recorder: test"), std::string::npos);
  EXPECT_NE(dump.find("* [0]"), std::string::npos);  // the ND is on the chain
  EXPECT_NE(dump.find("p0#0"), std::string::npos);
  EXPECT_NE(dump.find("\"flip\""), std::string::npos);
  EXPECT_NE(dump.find("* [3]"), std::string::npos);  // the focus itself
  // p0's unrelated event [4] is rendered unmarked.
  EXPECT_NE(dump.find("  [4]"), std::string::npos);
  EXPECT_EQ(dump.find("* [4]"), std::string::npos);
}

// --- online auditor vs hand-built traces ---

// Runs the online auditor over a trace as it is built (via the same append
// observer the Computation installs) and returns it finalized.
std::unique_ptr<ftx_causal::SaveWorkAuditor> AuditLive(
    Trace& trace, const std::function<void(Trace&)>& build) {
  auto auditor = std::make_unique<ftx_causal::SaveWorkAuditor>(trace.num_processes());
  trace.SetAppendObserver([&auditor](EventRef ref, const ftx_sm::TraceEvent& ev,
                                     const ftx_sm::VectorClock& clock) {
    auditor->OnEvent(ref, ev, clock);
  });
  build(trace);
  auditor->Finalize();
  return auditor;
}

TEST(SaveWorkAuditor, UncoveredNdBeforeVisibleIsOneFinding) {
  Trace trace(1);
  auto auditor = AuditLive(trace, [](Trace& t) {
    t.Append(0, EventKind::kTransientNd, -1, false, "flip");
    t.Append(0, EventKind::kVisible, -1, false, "heads");
  });
  ASSERT_EQ(auditor->findings().size(), 1u);
  const ftx_causal::SaveWorkFinding& finding = auditor->findings()[0];
  EXPECT_TRUE(finding.visible_rule);
  EXPECT_EQ(finding.nd, (EventRef{0, 0}));
  EXPECT_EQ(finding.downstream, (EventRef{0, 1}));
  EXPECT_NE(finding.ToString().find("uncovered transient_nd p0#0"), std::string::npos);
  EXPECT_NE(finding.ToString().find("visible p0#1"), std::string::npos);
}

TEST(SaveWorkAuditor, CommitBetweenNdAndVisibleCovers) {
  Trace trace(1);
  auto auditor = AuditLive(trace, [](Trace& t) {
    t.Append(0, EventKind::kTransientNd);
    t.Append(0, EventKind::kCommit);
    t.Append(0, EventKind::kVisible);
  });
  EXPECT_EQ(auditor->violations(), 0);
  EXPECT_EQ(auditor->nd_unlogged(), 1);
  EXPECT_EQ(auditor->downstream_checked(), 2);
}

TEST(SaveWorkAuditor, OrphanRuleFlagsRemoteCommitOfUncommittedNd) {
  // Fig. 2: B's ND reaches A, A commits the dependence.
  Trace trace(2);
  auto auditor = AuditLive(trace, [](Trace& t) {
    t.Append(1, EventKind::kTransientNd);
    t.Append(1, EventKind::kSend, 1);
    t.Append(0, EventKind::kReceive, 1);
    t.Append(0, EventKind::kCommit);
  });
  EXPECT_GT(auditor->CountOrphanRule(), 0);
  bool found = false;
  for (const auto& finding : auditor->findings()) {
    found |= !finding.visible_rule && finding.nd == EventRef{1, 0};
  }
  EXPECT_TRUE(found);
}

TEST(SaveWorkAuditor, TwoPhaseCommitRoundIsAtomicallyCovered) {
  // The participant's commit is appended before the coordinator's same-group
  // commit — the live case that forces the pending-check machinery.
  Trace trace(2);
  auto auditor = AuditLive(trace, [](Trace& t) {
    t.Append(1, EventKind::kTransientNd);
    t.Append(1, EventKind::kSend, 1);
    t.Append(0, EventKind::kReceive, 1);
    t.Append(0, EventKind::kSend, 100);  // prepare
    t.Append(1, EventKind::kReceive, 100);
    t.Append(1, EventKind::kCommit, -1, false, "", /*atomic_group=*/1);
    t.Append(1, EventKind::kSend, 101);  // ack
    t.Append(0, EventKind::kReceive, 101);
    t.Append(0, EventKind::kCommit, -1, false, "", /*atomic_group=*/1);
    t.Append(0, EventKind::kVisible);
  });
  EXPECT_EQ(auditor->violations(), 0);
}

TEST(SaveWorkAuditor, PendingCheckBecomesFindingAtFinalize) {
  // B's uncovered ND is committed remotely by A; B has no commit at all, so
  // the check stays pending until Finalize resolves it as a violation.
  Trace trace(2);
  auto auditor = AuditLive(trace, [](Trace& t) {
    t.Append(1, EventKind::kTransientNd);
    t.Append(1, EventKind::kSend, 1);
    t.Append(0, EventKind::kReceive, 1);
    t.Append(0, EventKind::kCommit);
  });
  ASSERT_GE(auditor->findings().size(), 1u);
  bool at_finalize = false;
  for (const auto& finding : auditor->findings()) {
    at_finalize |= finding.resolved_at_finalize;
  }
  EXPECT_TRUE(at_finalize);
  EXPECT_GT(auditor->pending_resolved_at_finalize(), 0);
  EXPECT_TRUE(auditor->finalized());
}

// --- randomized equivalence with the offline oracle ---

using PairKey = std::tuple<int, int64_t, int, int64_t, bool>;

std::vector<PairKey> OfflinePairs(const Trace& trace) {
  std::vector<PairKey> out;
  for (const ftx_sm::SaveWorkViolation& v : ftx_sm::CheckSaveWork(trace).violations) {
    out.emplace_back(v.nd_event.process, v.nd_event.index, v.downstream.process,
                     v.downstream.index, v.visible_rule);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PairKey> OnlinePairs(const ftx_causal::SaveWorkAuditor& auditor) {
  std::vector<PairKey> out;
  for (const ftx_causal::SaveWorkFinding& f : auditor.findings()) {
    out.emplace_back(f.nd.process, f.nd.index, f.downstream.process, f.downstream.index,
                     f.visible_rule);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Random mixes of every event class the trace model has, including logged
// ND, cross-process messages, and (optionally) serialized 2PC rounds with
// increasing atomic groups — the exact shapes the runtime emits.
void BuildRandomTrace(Trace* trace, uint64_t seed, int num_processes, int steps,
                      bool with_2pc_rounds) {
  ftx::Rng rng(seed);
  struct Outstanding {
    int64_t id;
    int src;
  };
  std::vector<Outstanding> outstanding;
  int64_t next_msg = 1;
  int64_t next_group = 1;
  for (int i = 0; i < steps; ++i) {
    const int p = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_processes)));
    const int64_t roll = rng.NextInRange(0, 99);
    if (with_2pc_rounds && num_processes >= 2 && roll < 6) {
      // One complete coordinated round: prepare, participant commits, acks,
      // coordinator commit, visible. Rounds never interleave.
      const int64_t group = next_group++;
      std::vector<int64_t> acks;
      for (int q = 0; q < num_processes; ++q) {
        if (q == p) {
          continue;
        }
        const int64_t prepare = next_msg++;
        trace->Append(p, EventKind::kSend, prepare);
        trace->Append(q, EventKind::kReceive, prepare);
        trace->Append(q, EventKind::kCommit, -1, false, "", group);
        const int64_t ack = next_msg++;
        trace->Append(q, EventKind::kSend, ack);
        acks.push_back(ack);
      }
      for (int64_t ack : acks) {
        trace->Append(p, EventKind::kReceive, ack);
      }
      trace->Append(p, EventKind::kCommit, -1, false, "", group);
      trace->Append(p, EventKind::kVisible);
    } else if (roll < 20) {
      trace->Append(p, EventKind::kTransientNd, -1, rng.NextBernoulli(0.3));
    } else if (roll < 28) {
      trace->Append(p, EventKind::kFixedNd, -1, rng.NextBernoulli(0.3));
    } else if (roll < 40) {
      trace->Append(p, EventKind::kCommit);
    } else if (roll < 52) {
      trace->Append(p, EventKind::kVisible);
    } else if (roll < 68 && num_processes >= 2) {
      trace->Append(p, EventKind::kSend, next_msg);
      outstanding.push_back({next_msg, p});
      ++next_msg;
    } else if (roll < 84 && !outstanding.empty()) {
      const size_t pick = rng.NextBounded(outstanding.size());
      const Outstanding msg = outstanding[pick];
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(pick));
      int dst = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_processes)));
      if (dst == msg.src) {
        dst = (dst + 1) % num_processes;
      }
      trace->Append(dst, EventKind::kReceive, msg.id, rng.NextBernoulli(0.3));
    } else {
      trace->Append(p, EventKind::kInternal);
    }
  }
}

TEST(SaveWorkAuditor, MatchesOfflineOracleOnRandomTraces) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (int num_processes : {1, 2, 4}) {
      Trace trace(num_processes);
      auto auditor = AuditLive(trace, [&](Trace& t) {
        BuildRandomTrace(&t, seed * 1000 + static_cast<uint64_t>(num_processes), num_processes,
                         120, /*with_2pc_rounds=*/false);
      });
      EXPECT_EQ(OnlinePairs(*auditor), OfflinePairs(trace))
          << "seed=" << seed << " processes=" << num_processes;
    }
  }
}

TEST(SaveWorkAuditor, MatchesOfflineOracleOnRandomTracesWith2pcRounds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Trace trace(3);
    auto auditor = AuditLive(trace, [&](Trace& t) {
      BuildRandomTrace(&t, seed * 7919, 3, 120, /*with_2pc_rounds=*/true);
    });
    EXPECT_EQ(OnlinePairs(*auditor), OfflinePairs(trace)) << "seed=" << seed;
  }
}

// --- end-to-end: audited real runs ---

TEST(CausalAuditIntegration, AuditedRunsReportZeroViolations) {
  // The acceptance criterion's fast slice (the full protocol x workload
  // matrix runs in the audited CTest bench entries): every measured
  // single-process protocol plus the coordinated ones on treadmarks.
  for (const char* protocol : {"cand", "cand-log", "cpvs", "cbndvs", "cbndvs-log"}) {
    ftx::RunSpec spec;
    spec.workload = "nvi";
    spec.protocol = protocol;
    spec.scale = 40;
    spec.audit = true;
    ftx::RunOutput output = ftx::RunExperiment(spec);
    ASSERT_TRUE(output.result.all_done) << protocol;
    ASSERT_TRUE(output.audited) << protocol;
    EXPECT_EQ(output.audit_violations, 0) << protocol;
    ASSERT_NE(output.audit_report.Find("events"), nullptr) << protocol;
    EXPECT_GT(output.audit_report.Find("events")->integer(), 0) << protocol;
    EXPECT_TRUE(output.audit_report.Find("finalized")->boolean()) << protocol;
  }
  for (const char* protocol : {"cpv-2pc", "cbndv-2pc"}) {
    ftx::RunSpec spec;
    spec.workload = "treadmarks";
    spec.protocol = protocol;
    spec.scale = 3;
    spec.audit = true;
    ftx::RunOutput output = ftx::RunExperiment(spec);
    ASSERT_TRUE(output.result.all_done) << protocol;
    ASSERT_TRUE(output.audited) << protocol;
    EXPECT_EQ(output.audit_violations, 0) << protocol;
  }
}

TEST(CausalAuditIntegration, AuditMatchesOfflineCheckerOnRealTraces) {
  // The online verdict on a real audited run equals the offline checker run
  // over the very same trace, finding-for-finding (here: zero findings).
  ftx::RunSpec spec;
  spec.workload = "magic";
  spec.protocol = "cbndvs";
  spec.scale = 25;
  spec.audit = true;
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  ASSERT_NE(computation->audit(), nullptr);
  EXPECT_EQ(OnlinePairs(computation->audit()->auditor()),
            OfflinePairs(computation->trace()));
}

TEST(CausalAuditIntegration, AuditNeverPerturbsSimulatedQuantities) {
  // Same spec, same failure schedule; only the audit toggle differs. Every
  // simulated quantity must be byte-identical (the audit is an observer).
  auto run = [](bool audit) {
    ftx::RunSpec spec;
    spec.workload = "postgres";
    spec.protocol = "cpvs";
    spec.scale = 120;
    spec.seed = 11;
    spec.audit = audit;
    auto computation = ftx::BuildComputation(spec);
    computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(15),
                                     ftx::Milliseconds(1));
    auto result = computation->Run();
    return std::make_tuple(result.all_done, result.end_time.nanos(), result.total_commits,
                           result.total_events, result.total_rollbacks,
                           computation->metrics().ToJsonString());
  };
  auto off = run(false);
  auto on = run(true);
  EXPECT_TRUE(std::get<0>(on));
  EXPECT_EQ(off, on);
}

// A protocol that commits too little: it never commits and never logs, so
// every unlogged ND event preceding a visible is a Save-work violation the
// audit must flag live.
constexpr ftx_proto::ProtocolRule kCommitTooLittle = {
    .name = "commit-too-little", .point = {0.0, 0.0}, .notes = "neither logs nor commits"};

std::unique_ptr<ftx::Computation> BuildBrokenProtocolRun(uint64_t seed) {
  ftx_apps::WorkloadSetup setup =
      ftx_apps::MakeWorkload("nvi", /*scale=*/30, seed, /*interactive=*/false);
  ftx::ComputationOptions options;
  options.seed = seed;
  options.audit = true;
  options.protocol_factory = [] { return std::make_unique<ftx_proto::Protocol>(kCommitTooLittle); };
  auto computation =
      std::make_unique<ftx::Computation>(std::move(options), std::move(setup.apps));
  computation->SetInputScript(0, setup.scripts[0]);
  return computation;
}

TEST(CausalAuditIntegration, BrokenProtocolIsFlaggedWithFlightDump) {
  auto computation = BuildBrokenProtocolRun(/*seed=*/7);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  ftx_causal::CausalAudit* audit = computation->audit();
  ASSERT_NE(audit, nullptr);
  ASSERT_GT(audit->violations(), 0);

  // The offline oracle agrees with every online finding.
  EXPECT_EQ(OnlinePairs(audit->auditor()), OfflinePairs(computation->trace()));

  // Each finding became a flight-recorder incident whose reason names the
  // uncovered ND event, and whose dump marks it on the causal chain.
  ASSERT_FALSE(audit->incidents().empty());
  const ftx_causal::SaveWorkFinding& first = audit->auditor().findings()[0];
  const ftx_causal::CausalAudit::Incident& incident = audit->incidents()[0];
  EXPECT_NE(incident.reason.find("save-work violation"), std::string::npos);
  EXPECT_NE(incident.reason.find(ftx_causal::RefToString(first.nd)), std::string::npos);
  EXPECT_NE(incident.dump.find("* "), std::string::npos);
  EXPECT_NE(incident.dump.find(ftx_causal::RefToString(first.nd)), std::string::npos);

  // The structured report carries the findings for --json consumers.
  ftx_obs::Json report = audit->ToJson();
  EXPECT_GT(report.Find("violations")->integer(), 0);
  ASSERT_GT(report.Find("findings")->size(), 0u);
  EXPECT_NE(report.Find("findings")->at(0).Find("detail")->str().find("uncovered"),
            std::string::npos);
}

TEST(CausalAuditIntegration, FlightDumpsAreDeterministic) {
  auto a = BuildBrokenProtocolRun(/*seed=*/7);
  auto b = BuildBrokenProtocolRun(/*seed=*/7);
  a->Run();
  b->Run();
  ASSERT_NE(a->audit(), nullptr);
  ASSERT_NE(b->audit(), nullptr);
  EXPECT_EQ(a->audit()->ToJson().Dump(2), b->audit()->ToJson().Dump(2));
  ASSERT_FALSE(a->audit()->incidents().empty());
  EXPECT_EQ(a->audit()->incidents()[0].dump, b->audit()->incidents()[0].dump);
}

TEST(CausalAuditIntegration, CrashingFaultStudyRunsStayViolationFree) {
  // Crashes and recoveries do not fool the online check: under CPVS the
  // commit-before-visible covers every earlier in-process position, rolled
  // back or not, so audited crashing runs report zero violations while the
  // crash itself lands as a flight-recorder incident.
  int crashed_and_audited = 0;
  for (uint64_t seed = 1; seed <= 20 && crashed_and_audited < 3; ++seed) {
    ftx::FaultRunResult result = ftx::RunApplicationFault(
        "postgres", ftx_fault::FaultType::kHeapBitFlip, seed, "cpvs", ftx::StoreKind::kRio,
        /*audit=*/true);
    ASSERT_TRUE(result.audited);
    EXPECT_EQ(result.audit_violations, 0) << "seed=" << seed;
    if (!result.crashed) {
      continue;
    }
    ++crashed_and_audited;
    EXPECT_GE(result.audit_incidents, 1) << "seed=" << seed;
    EXPECT_NE(result.audit_first_dump.find("flight recorder"), std::string::npos);
    EXPECT_NE(result.audit_first_dump.find("crash"), std::string::npos);
  }
  EXPECT_EQ(crashed_and_audited, 3) << "heap bit flips should crash postgres regularly";
}

TEST(CausalAuditIntegration, BaselineModeIgnoresAuditToggle) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 20;
  spec.mode = ftx_dc::RuntimeMode::kBaseline;
  spec.audit = true;
  auto computation = ftx::BuildComputation(spec);
  EXPECT_EQ(computation->audit(), nullptr);  // baseline runs have no trace
  auto result = computation->Run();
  EXPECT_TRUE(result.all_done);
}

// One commit's audited costs, read back from the Chrome counter samples the
// audit records while the tracer is on ("commit cost (ns)" and "commit
// payload"), with the length of the commit's span on the simulated
// timeline. A commit's samples are recorded when its trace event is
// appended, just before the runtime records its span, so the k-th samples
// and the k-th commit span of a process belong to the same commit.
struct TracedCommit {
  std::map<std::string, int64_t> costs;  // series name -> sampled value
  int64_t span_ns = -1;

  int64_t TotalNs() const {
    return costs.at("fixed") + costs.at("before_image") + costs.at("reprotect") +
           costs.at("persist");
  }
};

std::vector<TracedCommit> TracedCommits(const ftx_obs::Tracer& tracer) {
  std::vector<TracedCommit> commits;
  std::map<int, std::vector<size_t>> of_process;  // indices into commits
  std::map<int, size_t> spans_seen;
  const std::vector<ftx_obs::TraceEvent>& events = tracer.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const ftx_obs::TraceEvent& event = events[i];
    if (event.phase == 'C' && event.name == "commit cost (ns)") {
      of_process[event.pid].push_back(commits.size());
      commits.emplace_back();
    }
    if (event.phase == 'C' &&
        (event.name == "commit cost (ns)" || event.name == "commit payload")) {
      TracedCommit& commit = commits[of_process[event.pid].back()];
      for (const auto& [series, value] : event.counter_values) {
        commit.costs[series] = static_cast<int64_t>(value);
      }
    } else if (event.phase == 'B' && event.lane == ftx_obs::TraceLane::kStorage &&
               event.name.rfind("commit", 0) == 0) {
      // Tracer::Span records a span's begin and end back to back.
      const size_t k = spans_seen[event.pid]++;
      commits[of_process[event.pid].at(k)].span_ns = events[i + 1].ts_ns - event.ts_ns;
    }
  }
  return commits;
}

TEST(CausalAuditIntegration, CommitCostAttributionPartitionsTheCommit) {
  // Every audited commit carries staged costs whose components sum to the
  // interval the commit occupies on the simulated timeline.
  for (ftx::StoreKind store : {ftx::StoreKind::kRio, ftx::StoreKind::kDisk}) {
    ftx::RunSpec spec;
    spec.workload = "magic";
    spec.protocol = "cpvs";
    spec.scale = 25;
    spec.store = store;
    spec.audit = true;
    auto computation = ftx::BuildComputation(spec);
    computation->tracer().SetEnabled(true);
    auto result = computation->Run();
    ASSERT_TRUE(result.all_done);
    const std::vector<TracedCommit> commits = TracedCommits(computation->tracer());
    EXPECT_EQ(static_cast<int64_t>(commits.size()), result.total_commits);
    for (const TracedCommit& commit : commits) {
      EXPECT_EQ(commit.TotalNs(), commit.span_ns);
      EXPECT_GT(commit.costs.at("fixed"), 0);
      EXPECT_GE(commit.costs.at("before_image"), 0);
      EXPECT_GE(commit.costs.at("reprotect"), 0);
      EXPECT_GE(commit.costs.at("persist"), 0);
      EXPECT_GE(commit.costs.at("pages"), 0);
      if (store == ftx::StoreKind::kDisk) {
        EXPECT_GT(commit.costs.at("bytes"), 0);
      }
    }
  }
}

TEST(CausalAuditIntegration, CommitObserversAgreeWithTheChargedCost) {
  // The dc.commit_ns histogram, the per-process dc.commit_ns counters
  // (RuntimeStats::commit_time) and the audited cost breakdowns all report
  // the same total, with and without group commit; a commit in its own
  // one-record window occupies exactly its cost on the simulated timeline.
  for (int64_t max_records : {1, 8}) {
    SCOPED_TRACE("max_records " + std::to_string(max_records));
    ftx::RunSpec spec;
    spec.workload = "magic";
    spec.protocol = "cand";
    spec.scale = 25;
    spec.store = ftx::StoreKind::kDisk;
    spec.audit = true;
    spec.tweak_options = [max_records](ftx::ComputationOptions* options) {
      options->group_commit.max_records = max_records;
    };
    auto computation = ftx::BuildComputation(spec);
    computation->tracer().SetEnabled(true);
    auto result = computation->Run();
    ASSERT_TRUE(result.all_done);

    const std::vector<TracedCommit> commits = TracedCommits(computation->tracer());
    int64_t audited_ns = 0;
    for (const TracedCommit& commit : commits) {
      audited_ns += commit.TotalNs();
      if (max_records == 1) {
        EXPECT_EQ(commit.TotalNs(), commit.span_ns);
      }
    }
    int64_t stats_ns = 0;
    for (const ftx_dc::RuntimeStats& stats : result.per_process) {
      stats_ns += stats.commit_time.nanos();
    }
    const ftx_obs::Histogram* histogram = computation->metrics().GetHistogram("dc.commit_ns");
    EXPECT_EQ(histogram->count(), result.total_commits);
    EXPECT_EQ(static_cast<int64_t>(commits.size()), result.total_commits);
    EXPECT_EQ(histogram->sum(), computation->metrics().Snapshot().TotalCounter("dc.commit_ns"));
    EXPECT_EQ(histogram->sum(), stats_ns);
    EXPECT_EQ(histogram->sum(), audited_ns);
  }
}

// --- pinned reports ---

// A run's audit report (findings, incidents and their flight dumps) as its
// CRC-32, and the dumps themselves.
struct PinnedReport {
  uint32_t crc = 0;
  std::string dumps;  // every retained incident's dump, concatenated
};

PinnedReport RunAndPin(ftx::Computation& computation) {
  computation.Run();
  const ftx_obs::Json report = computation.audit()->ToJson();
  const std::string text = report.Dump();
  PinnedReport pinned;
  pinned.crc = ftx::Crc32(text.data(), text.size());
  for (const ftx_obs::Json& incident : report.Find("incidents")->items()) {
    pinned.dumps += incident.Find("dump")->str();
  }
  return pinned;
}

// A fleet whose two servers log under cbndvs-log and whose four clients
// run the commit-too-little rule: the clients' findings dump the messages
// and logged receives of several processes.
std::unique_ptr<ftx::Computation> BuildBrokenFleetRun() {
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 4;
  config.requests_per_client = 3;
  ftx::ComputationOptions options;
  options.seed = 5;
  options.audit = true;
  options.protocol_factory = [built = 0]() mutable -> std::unique_ptr<ftx_proto::Protocol> {
    if (built++ < 2) {
      return ftx_proto::MakeProtocolByName("cbndvs-log");
    }
    return std::make_unique<ftx_proto::Protocol>(kCommitTooLittle);
  };
  return std::make_unique<ftx::Computation>(std::move(options), ftx_apps::MakeFleetApps(config));
}

// A postgres run under CPVS, built as the fault study builds one, whose heap
// bit flip is always detected late: a commit saves the corruption first, so
// the process crashes again after each recovery until its recovery is
// abandoned, and the later crash dumps hold the recovery notes.
std::unique_ptr<ftx::Computation> BuildRecrashingRun() {
  constexpr uint64_t kSeed = 1;
  ftx_apps::WorkloadSetup setup =
      ftx_apps::MakeWorkload("postgres", /*scale=*/600, kSeed, /*interactive=*/false);
  ftx_fault::FaultSpec spec;
  spec.type = ftx_fault::FaultType::kHeapBitFlip;
  spec.activation_step = 60;
  spec.slow_detection_probability = 1.0;
  spec.continue_probability = 0.8;
  spec.seed = kSeed;
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::make_unique<ftx_fault::FaultyApp>(std::move(setup.apps[0]), spec));
  ftx::ComputationOptions options;
  options.seed = kSeed;
  options.protocol = "cpvs";
  options.recovery_delay = ftx::Milliseconds(5);
  options.max_recovery_attempts = 2;
  options.audit = true;
  auto computation = std::make_unique<ftx::Computation>(std::move(options), std::move(apps));
  computation->SetInputScript(0, setup.scripts[0]);
  return computation;
}

TEST(CausalAuditIntegration, AuditReportsPinned) {
  // Every byte of three audit reports. Between them their flight dumps
  // render every line form: a '*' mark on a chain whose focus is still in
  // the ring, a logged event, a message, an atomic group, a label, a
  // commit's costs, a clock and a recovery note.
  const PinnedReport nvi = RunAndPin(*BuildBrokenProtocolRun(/*seed=*/7));
  const PinnedReport fleet = RunAndPin(*BuildBrokenFleetRun());
  const PinnedReport crash = RunAndPin(*BuildRecrashingRun());
  EXPECT_EQ(nvi.crc, 0xece9aa78u);
  EXPECT_EQ(fleet.crc, 0x9d3329bau);
  EXPECT_EQ(crash.crc, 0x0484e54fu);
  const std::string dumps = nvi.dumps + fleet.dumps + crash.dumps;
  for (const char* form :
       {"\n* [", "(logged)", " msg=", " group=", " \"", " cost{", " clock=", " note "}) {
    EXPECT_NE(dumps.find(form), std::string::npos) << form;
  }
}

}  // namespace
