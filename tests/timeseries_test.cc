// Tests for the sim-time telemetry engine (src/obs/tsdb/) and the causal
// critical-path tracker (src/obs/causal/critical_path.h): cadence boundary
// semantics and the closing sample, ring eviction, collation-independent
// column order, taint propagation with per-phase attribution, and the two
// end-to-end contracts — the exported JSONL is byte-identical for any
// shard layout, and enabling telemetry never moves a simulated quantity.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/fleet.h"
#include "src/core/computation.h"
#include "src/core/experiment.h"
#include "src/obs/causal/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/tsdb/tsdb.h"

namespace {

using ftx_causal::CriticalPathTracker;
using ftx_causal::RecoveryPhases;
using ftx_obs::TimeSeriesDb;
using ftx_obs::TimeSeriesOptions;
using ftx_sm::EventKind;
using ftx_sm::EventRef;
using ftx_sm::TraceEvent;

// --- tsdb: sampling semantics ---

TEST(TimeSeriesDb, SamplesEveryCrossedBoundaryWithPriorState) {
  TimeSeriesOptions options;
  options.cadence_ns = 100;
  TimeSeriesDb db(options);
  int64_t value = 0;
  db.AddCounter("v", [&value]() { return value; });

  // Event at t=0: boundary 0 not yet crossed (a boundary is sampled only
  // once some event lies strictly after it).
  db.OnSimTime(0);
  EXPECT_EQ(db.samples_taken(), 0);
  value = 1;
  // Event at t=250 crosses boundaries 0, 100, 200; the current state (the
  // state after every event < 250) is what each of them sees.
  db.OnSimTime(250);
  EXPECT_EQ(db.samples_taken(), 3);
  value = 2;
  db.OnSimTime(250);  // same time again: no new boundary
  EXPECT_EQ(db.samples_taken(), 3);
  db.Finalize(320);  // boundary 300, then the closing sample at 320
  EXPECT_EQ(db.samples_taken(), 5);

  std::vector<int64_t> times;
  std::vector<int64_t> values;
  db.ForEachSample([&](const TimeSeriesDb::Sample& s) {
    times.push_back(s.t_ns);
    values.push_back(s.counters[0]);
  });
  EXPECT_EQ(times, (std::vector<int64_t>{0, 100, 200, 300, 320}));
  EXPECT_EQ(values, (std::vector<int64_t>{1, 1, 1, 2, 2}));
}

TEST(TimeSeriesDb, FinalizeOnBoundaryEmitsNoDuplicateAndIsIdempotent) {
  TimeSeriesOptions options;
  options.cadence_ns = 100;
  TimeSeriesDb db(options);
  db.AddGauge("g", []() { return 1.5; });
  db.OnSimTime(150);  // boundaries 0, 100
  db.Finalize(200);   // boundary 200 is itself the closing time: no duplicate
  EXPECT_EQ(db.samples_taken(), 3);
  db.Finalize(200);
  EXPECT_EQ(db.samples_taken(), 3);
  std::vector<int64_t> times;
  db.ForEachSample([&](const TimeSeriesDb::Sample& s) { times.push_back(s.t_ns); });
  EXPECT_EQ(times, (std::vector<int64_t>{0, 100, 200}));
}

TEST(TimeSeriesDb, RingEvictsOldestButCountsAll) {
  TimeSeriesOptions options;
  options.cadence_ns = 10;
  options.capacity = 4;
  TimeSeriesDb db(options);
  int64_t t = 0;
  db.AddCounter("t", [&t]() { return t; });
  t = 95;
  db.OnSimTime(95);  // boundaries 0..90: 10 samples
  EXPECT_EQ(db.samples_taken(), 10);
  EXPECT_EQ(db.samples_retained(), 4);
  EXPECT_EQ(db.samples_dropped(), 6);
  std::vector<int64_t> times;
  db.ForEachSample([&](const TimeSeriesDb::Sample& s) { times.push_back(s.t_ns); });
  EXPECT_EQ(times, (std::vector<int64_t>{60, 70, 80, 90}));  // oldest evicted
  // The header records both counts.
  const std::string jsonl = db.ToJsonl();
  EXPECT_NE(jsonl.find("\"samples\":4"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"dropped\":6"), std::string::npos) << jsonl;
}

TEST(TimeSeriesDb, ColumnsOrderedBytewiseRegardlessOfRegistration) {
  TimeSeriesDb db;
  // Registration order is scrambled and mixes kinds; the export must order
  // by ordinal byte value (so "Z" < "a", and '.' < '0' < 'z').
  db.AddGauge("net.rate", []() { return 0.0; });
  db.AddCounter("Zeta", []() { return 0; });
  db.AddCounter("dc.commits", []() { return 0; });
  db.AddGauge("dc.down", []() { return 0.0; });
  db.OnSimTime(1);
  db.Finalize(1);
  const std::string jsonl = db.ToJsonl();
  const size_t zeta = jsonl.find("\"Zeta\"");
  const size_t commits = jsonl.find("\"dc.commits\"");
  const size_t down = jsonl.find("\"dc.down\"");
  const size_t rate = jsonl.find("\"net.rate\"");
  ASSERT_NE(zeta, std::string::npos);
  ASSERT_NE(rate, std::string::npos);
  EXPECT_LT(zeta, commits);
  EXPECT_LT(commits, down);
  EXPECT_LT(down, rate);
  // Same order MetricNameLess itself reports — the registry snapshot and
  // the tsdb header can never disagree on collation.
  ftx_obs::MetricNameLess less;
  EXPECT_TRUE(less("Zeta", "dc.commits"));
  EXPECT_TRUE(less("dc.commits", "dc.down"));
  EXPECT_TRUE(less("dc.down", "net.rate"));
}

TEST(TimeSeriesDbDeathTest, DuplicateNameAborts) {
  TimeSeriesDb db;
  db.AddCounter("x", []() { return 0; });
  EXPECT_DEATH(db.AddGauge("x", []() { return 0.0; }), "duplicate");
}

TEST(TimeSeriesDbDeathTest, RegistrationAfterSealAborts) {
  TimeSeriesDb db;
  db.AddCounter("x", []() { return 0; });
  db.OnSimTime(1);  // seals
  EXPECT_DEATH(db.AddCounter("y", []() { return 0; }), "after first sample");
}

// --- critical path: synthetic taint chains ---

TEST(CriticalPath, NoCrashMeansNoPath) {
  int64_t now = 0;
  CriticalPathTracker tracker(2, [&now]() { return now; });
  now = 50;
  tracker.OnTraceEvent(EventRef{0, 0}, TraceEvent{.process = 0, .kind = EventKind::kCommit});
  auto path = tracker.Extract();
  EXPECT_FALSE(path.found);
  EXPECT_EQ(tracker.crashes(), 0);
}

TEST(CriticalPath, TaintPropagatesThroughMessageToLastDependentCommit) {
  int64_t now = 0;
  CriticalPathTracker tracker(3, [&now]() { return now; });

  // p2 commits before the crash: untainted, must not end the path.
  now = 40;
  tracker.OnTraceEvent(EventRef{2, 0}, TraceEvent{.process = 2, .kind = EventKind::kCommit});

  now = 100;
  tracker.OnCrash(0);  // stop failure: no kCrash trace event
  tracker.OnRecovery(0, /*start_ns=*/150, /*end_ns=*/250,
                     RecoveryPhases{.log_scan_ns = 60, .page_install_ns = 40});
  now = 300;
  tracker.OnTraceEvent(EventRef{0, 0}, TraceEvent{.process = 0, .kind = EventKind::kSend,
                                                  .message_id = 7});
  // An untainted process's send must not taint anything.
  now = 310;
  tracker.OnTraceEvent(EventRef{2, 1}, TraceEvent{.process = 2, .kind = EventKind::kSend,
                                                  .message_id = 8});
  now = 400;
  tracker.OnTraceEvent(EventRef{1, 0}, TraceEvent{.process = 1, .kind = EventKind::kReceive,
                                                  .message_id = 7});
  now = 600;
  tracker.OnTraceEvent(EventRef{1, 1}, TraceEvent{.process = 1, .kind = EventKind::kCommit});

  EXPECT_EQ(tracker.crashes(), 1);
  EXPECT_EQ(tracker.tainted_processes(), 2);  // p0 and p1
  EXPECT_EQ(tracker.tainted_messages(), 1);   // message 7 only

  auto path = tracker.Extract();
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.root_pid, 0);
  EXPECT_EQ(path.root_crash_ns, 100);
  EXPECT_EQ(path.last_pid, 1);
  EXPECT_EQ(path.last_commit_ns, 600);
  EXPECT_EQ(path.span_ns, 500);

  // Hops tile [100, 600] exactly: detection 100-150, log_scan 150-210,
  // page_install 210-250, re_execution 250-300, message 300-400,
  // re_execution 400-600.
  ASSERT_EQ(path.hops.size(), 6u);
  int64_t cursor = path.root_crash_ns;
  for (const auto& hop : path.hops) {
    EXPECT_EQ(hop.start_ns, cursor) << hop.phase;
    cursor += hop.dur_ns;
  }
  EXPECT_EQ(cursor, path.last_commit_ns);
  EXPECT_EQ(path.hops[0].phase, "detection");
  EXPECT_EQ(path.hops[0].dur_ns, 50);
  EXPECT_EQ(path.hops[1].phase, "log_scan");
  EXPECT_EQ(path.hops[1].dur_ns, 60);
  EXPECT_EQ(path.hops[2].phase, "page_install");
  EXPECT_EQ(path.hops[2].dur_ns, 40);
  EXPECT_EQ(path.hops[4].phase, "message");
  EXPECT_EQ(path.hops[4].dur_ns, 100);

  // Binding: the longest single span is p1's 200 ns re-execution.
  EXPECT_EQ(path.binding_pid, 1);
  EXPECT_EQ(path.binding_phase, "re_execution");
  EXPECT_EQ(path.binding_ns, 200);
  EXPECT_EQ(path.totals_ns["message"], 100);
  EXPECT_EQ(path.totals_ns["re_execution"], 250);

  // The embedded report carries the same verdict.
  const std::string report = tracker.ToJson().Dump();
  EXPECT_NE(report.find("\"found\":true"), std::string::npos) << report;
  EXPECT_NE(report.find("\"re_execution\""), std::string::npos) << report;
}

TEST(CriticalPath, PropagationCrashEventCountsExactlyOnce) {
  int64_t now = 0;
  CriticalPathTracker tracker(2, [&now]() { return now; });
  now = 10;
  tracker.OnTraceEvent(EventRef{0, 0}, TraceEvent{.process = 0, .kind = EventKind::kCrash});
  now = 90;
  tracker.OnTraceEvent(EventRef{0, 1}, TraceEvent{.process = 0, .kind = EventKind::kCommit});
  EXPECT_EQ(tracker.crashes(), 1);
  auto path = tracker.Extract();
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.root_pid, 0);
  EXPECT_EQ(path.root_crash_ns, 10);
  // No completed recovery was reported: the whole gap is detection.
  ASSERT_EQ(path.hops.size(), 1u);
  EXPECT_EQ(path.hops[0].phase, "detection");
  EXPECT_EQ(path.hops[0].dur_ns, 80);
}

TEST(CriticalPath, FirstTaintWins) {
  int64_t now = 0;
  CriticalPathTracker tracker(2, [&now]() { return now; });
  now = 100;
  tracker.OnCrash(1);
  now = 200;
  tracker.OnCrash(1);  // second crash of an already-tainted process
  now = 300;
  tracker.OnTraceEvent(EventRef{1, 0}, TraceEvent{.process = 1, .kind = EventKind::kCommit});
  EXPECT_EQ(tracker.crashes(), 2);
  auto path = tracker.Extract();
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.root_crash_ns, 100);  // rooted at the first taint
  EXPECT_EQ(path.span_ns, 200);
}

// --- end-to-end: shard-layout byte-identity and neutrality ---

ftx_apps::FleetConfig SmallFleet() {
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 6;
  config.requests_per_client = 3;
  return config;
}

ftx::ComputationOptions FleetOptions(int shards) {
  ftx::ComputationOptions options;
  options.seed = 4242;
  options.protocol = "cpv-2pc";
  options.store = ftx::StoreKind::kRio;
  options.shards = shards;
  options.lean_trace = true;
  options.recovery_delay = ftx::Microseconds(200);
  return options;
}

struct FleetRun {
  std::string jsonl;
  std::string critical_path;
  int64_t commits = 0;
  int64_t rollbacks = 0;
  int64_t end_ns = 0;
};

FleetRun RunCrashedFleet(int shards, bool telemetry) {
  ftx::ComputationOptions options = FleetOptions(shards);
  options.timeseries = telemetry;
  options.timeseries_options.cadence_ns = 100000;  // 100 us
  options.critical_path = telemetry;
  ftx::Computation computation(options, ftx_apps::MakeFleetApps(SmallFleet()));
  computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(1),
                                  ftx::Microseconds(200));
  ftx::ComputationResult result = computation.Run();
  FleetRun run;
  run.commits = result.total_commits;
  run.rollbacks = result.total_rollbacks;
  run.end_ns = (result.end_time - ftx::TimePoint()).nanos();
  if (telemetry) {
    run.jsonl = computation.timeseries()->ToJsonl();
    run.critical_path = computation.critical_path()->ToJson().Dump();
  }
  return run;
}

TEST(TimeSeriesEndToEnd, ExportByteIdenticalAcrossShardLayouts) {
  FleetRun s1 = RunCrashedFleet(/*shards=*/1, /*telemetry=*/true);
  FleetRun s4 = RunCrashedFleet(/*shards=*/4, /*telemetry=*/true);
  EXPECT_GT(s1.jsonl.size(), 0u);
  EXPECT_EQ(s1.jsonl, s4.jsonl);
  EXPECT_EQ(s1.critical_path, s4.critical_path);
  // The run really exercised the machinery being compared.
  EXPECT_GT(s1.rollbacks, 0);
  EXPECT_NE(s1.critical_path.find("\"found\":true"), std::string::npos) << s1.critical_path;
}

TEST(TimeSeriesEndToEnd, TelemetryNeverMovesSimulatedQuantities) {
  FleetRun on = RunCrashedFleet(/*shards=*/2, /*telemetry=*/true);
  FleetRun off = RunCrashedFleet(/*shards=*/2, /*telemetry=*/false);
  EXPECT_EQ(on.commits, off.commits);
  EXPECT_EQ(on.rollbacks, off.rollbacks);
  EXPECT_EQ(on.end_ns, off.end_ns);
}

// MeasureOverhead hands the telemetry file to the recoverable run only, so
// the baseline half can never race it (satellite pin for the bench wiring).
TEST(TimeSeriesEndToEnd, MeasureOverheadSamplesRecoverableRunOnly) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 2;
  spec.seed = 7;
  spec.timeseries_path = "";  // no file: nothing written from this test
  ftx::OverheadRow row = ftx::MeasureOverhead(spec, nullptr);
  EXPECT_GT(row.checkpoints, 0);
}

}  // namespace
