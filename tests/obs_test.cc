// Tests for the observability layer: Json document model, the metrics
// registry (owned + probe-backed instruments), the simulated-timeline
// tracer and its Chrome trace_event export, the results emitter, and the
// end-to-end guarantees the layer makes about real computations (registry
// never diverges from RuntimeStats; crashed processes leave commit and
// recovery spans on the timeline).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/fleet.h"
#include "src/apps/workloads.h"
#include "src/common/crc32.h"
#include "src/core/computation.h"
#include "src/core/experiment.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/results.h"
#include "src/obs/trace_event.h"

namespace {

using ftx_obs::Json;

TEST(JsonTest, ScalarDumpAndTypes) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(-7).Dump(), "-7");
  EXPECT_EQ(Json(std::string("hi")).Dump(), "\"hi\"");
  EXPECT_TRUE(Json(1.5).is_number());
}

TEST(JsonTest, Int64Exactness) {
  // Values above 2^53 are written exactly, without double rounding.
  const int64_t big = (int64_t{1} << 60) + 3;
  Json doc = Json::Object();
  doc.Set("big", big);
  EXPECT_EQ(doc.Dump(), R"({"big":1152921504606846979})");
}

TEST(JsonTest, StringEscaping) {
  Json doc = Json::Object();
  doc.Set("s", "a\"b\\c\n\t\x01");
  EXPECT_EQ(doc.Dump(), R"({"s":"a\"b\\c\n\t\u0001"})");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json doc = Json::Object();
  doc.Set("zebra", 1).Set("alpha", 2).Set("mid", 3);
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "zebra");
  EXPECT_EQ(doc.members()[1].first, "alpha");
  EXPECT_EQ(doc.members()[2].first, "mid");
  // Set on an existing key overwrites in place.
  doc.Set("alpha", 9);
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.Find("alpha")->integer(), 9);
}

TEST(JsonTest, ParseRoundTripsNestedDocument) {
  Json doc = Json::Object();
  doc.Set("list", Json::Array().Push(1).Push(2.5).Push("three").Push(Json()));
  doc.Set("nested", Json::Object().Set("ok", true));
  EXPECT_EQ(doc.Dump(), R"({"list":[1,2.5,"three",null],"nested":{"ok":true}})");
  EXPECT_EQ(doc.Dump(2), R"({
  "list": [
    1,
    2.5,
    "three",
    null
  ],
  "nested": {
    "ok": true
  }
})");
}

TEST(MetricsTest, HistogramBucketsAndStats) {
  ftx_obs::Histogram h({10, 100, 1000});
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.Observe(5);     // bucket 0 (<= 10)
  h.Observe(10);    // bucket 0 (bounds are inclusive upper limits)
  h.Observe(99);    // bucket 1
  h.Observe(5000);  // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 5114);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 5000);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2);
  EXPECT_EQ(h.bucket_counts()[1], 1);
  EXPECT_EQ(h.bucket_counts()[2], 0);
  EXPECT_EQ(h.bucket_counts()[3], 1);
}

TEST(MetricsTest, HistogramQuantileInterpolation) {
  // Bucket-interpolated quantiles, pinned: two observations per bucket of
  // {(-inf,10], (10,100], (100,1000], (1000,inf)} with min=4 and max=4000.
  ftx_obs::Histogram h({10, 100, 1000});
  for (int64_t v : {4, 6, 20, 80, 200, 600, 2000, 4000}) {
    h.Observe(v);
  }
  // p50: rank 4.0 lands at the end of bucket 1, interpolated to its upper
  // bound; p90/p99 land in the overflow bucket, whose upper edge clamps to
  // the observed max.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 2800.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 3880.0);
  // The extremes clamp to the true min/max, not the bucket edges.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4000.0);
}

TEST(MetricsTest, HistogramQuantileDegenerateCases) {
  ftx_obs::Histogram empty({10});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  // All observations equal: every quantile is that value (the bucket's
  // nominal [min, bound] range clamps to [7, 7]).
  ftx_obs::Histogram point({10});
  point.Observe(7);
  point.Observe(7);
  point.Observe(7);
  EXPECT_DOUBLE_EQ(point.Quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(point.Quantile(0.99), 7.0);
}

TEST(MetricsTest, SnapshotJsonCarriesQuantiles) {
  ftx_obs::Registry registry;
  ftx_obs::Histogram* h = registry.GetHistogram("q.latency_ns", {10, 100, 1000});
  for (int64_t v : {4, 6, 20, 80, 200, 600, 2000, 4000}) {
    h->Observe(v);
  }
  Json doc = registry.Snapshot().ToJson();
  const Json* hist = doc.Find("q.latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("p50")->number(), h->Quantile(0.5));
  EXPECT_DOUBLE_EQ(hist->Find("p90")->number(), h->Quantile(0.9));
  EXPECT_DOUBLE_EQ(hist->Find("p99")->number(), h->Quantile(0.99));
  // Monotone: min <= p50 <= p90 <= p99 <= max (the JSON validator gates
  // the same ordering on every bench results file).
  EXPECT_LE(static_cast<double>(hist->Find("min")->integer()), hist->Find("p50")->number());
  EXPECT_LE(hist->Find("p50")->number(), hist->Find("p90")->number());
  EXPECT_LE(hist->Find("p90")->number(), hist->Find("p99")->number());
  EXPECT_LE(hist->Find("p99")->number(), static_cast<double>(hist->Find("max")->integer()));
}

TEST(MetricsTest, RegistryGetOrCreateReturnsSameInstrument) {
  ftx_obs::Registry registry;
  ftx_obs::Histogram* a = registry.GetHistogram("x.latency_ns");
  ftx_obs::Histogram* b = registry.GetHistogram("x.latency_ns");
  EXPECT_EQ(a, b);
  a->Observe(5);
  EXPECT_EQ(registry.GetHistogram("x.latency_ns")->count(), 1);
  EXPECT_TRUE(registry.Contains("x.latency_ns"));
  EXPECT_FALSE(registry.Contains("x.other"));
}

TEST(MetricsTest, ProbesAreEvaluatedAtSnapshotTime) {
  ftx_obs::Registry registry;
  int64_t backing = 7;
  registry.RegisterCounterProbe("probe.count", [&backing]() { return backing; });
  EXPECT_EQ(registry.Snapshot().Find("probe.count")->counter, 7);
  backing = 19;  // no re-registration needed: the closure reads live state
  EXPECT_EQ(registry.Snapshot().Find("probe.count")->counter, 19);
}

TEST(MetricsTest, SnapshotTotalCounterAggregatesPerProcessNames) {
  ftx_obs::Registry registry;
  registry.RegisterCounterProbe("p0.dc.commits", []() { return int64_t{3}; });
  registry.RegisterCounterProbe("p1.dc.commits", []() { return int64_t{4}; });
  registry.RegisterCounterProbe("p1.dc.rollbacks", []() { return int64_t{100}; });
  EXPECT_EQ(registry.Snapshot().TotalCounter("dc.commits"), 7);
}

TEST(MetricsTest, ProcessProbesReadAsPrefixedNamesInOrdinalOrder) {
  EXPECT_EQ(ftx_obs::ProcessMetricName(12, "dc.commits"), "p12.dc.commits");
  // The same counters registered per process and under their full names
  // read identically: names, order, values, JSON text, size and Contains.
  // The pids span one, two and three digits, registered out of order, and
  // the computation-wide names include ones that start with "p" but are
  // not a process's.
  ftx_obs::Registry per_process;
  ftx_obs::Registry spelled;
  for (const char* name : {"dc.commit_ns", "kernel.syscalls", "p", "p.x", "p01.x", "p5x.y",
                           "pa.z", "probe.count", "sim.now_s"}) {
    per_process.RegisterCounterProbe(name, []() { return int64_t{1}; });
    spelled.RegisterCounterProbe(name, []() { return int64_t{1}; });
  }
  const std::vector<std::string> names = {"redo.records", "dc.commits", "faults.activations",
                                          "dc.commit_ns", "disk.sync_writes"};
  for (int pid : {120, 3, 0, 11, 1, 100, 2, 10, 99, 101, 12}) {
    for (size_t i = 0; i < names.size(); ++i) {
      if ((static_cast<size_t>(pid) + i) % 4 == 0) {
        continue;  // not every process registers every name
      }
      const int64_t value = pid * 100 + static_cast<int64_t>(i);
      per_process.RegisterCounterProbe(pid, names[i], [value]() { return value; });
      spelled.RegisterCounterProbe(ftx_obs::ProcessMetricName(pid, names[i]),
                                   [value]() { return value; });
    }
  }
  const ftx_obs::MetricsSnapshot got = per_process.Snapshot();
  const ftx_obs::MetricsSnapshot want = spelled.Snapshot();
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t i = 0; i < want.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].first, want.entries[i].first) << "entry " << i;
    EXPECT_EQ(got.entries[i].second.counter, want.entries[i].second.counter)
        << want.entries[i].first;
    EXPECT_TRUE(per_process.Contains(want.entries[i].first)) << want.entries[i].first;
  }
  EXPECT_EQ(got.ToJson().Dump(), want.ToJson().Dump());
  EXPECT_EQ(per_process.size(), spelled.size());
  EXPECT_EQ(per_process.ToJsonString(), spelled.ToJsonString());
  EXPECT_TRUE(per_process.Contains("p3.redo.records"));
  for (const char* absent : {"p03.redo.records", "p3.dc.commits", "p3.dc.none", "p9999.dc.commits",
                             "p-1.dc.commits", "p4.dc.commits", "dc.commits", "p3."}) {
    EXPECT_FALSE(per_process.Contains(absent)) << absent;
  }
}

TEST(MetricsTest, ReregisteringAProcessProbeReplacesIt) {
  ftx_obs::Registry registry;
  registry.RegisterCounterProbe(3, "dc.commits", []() { return int64_t{1}; });
  registry.RegisterCounterProbe(3, "dc.commits", []() { return int64_t{2}; });
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Snapshot().Find("p3.dc.commits")->counter, 2);
}

TEST(MetricsDeathTest, ProcessNameSpelledComputationWideAborts) {
  // Either registration order fails, so a snapshot never holds one name
  // twice.
  EXPECT_DEATH(
      {
        ftx_obs::Registry registry;
        registry.RegisterCounterProbe(0, "dc.commits", []() { return int64_t{1}; });
        registry.RegisterCounterProbe("p0.dc.commits", []() { return int64_t{2}; });
      },
      "p0.dc.commits is already registered as a per-process probe");
  EXPECT_DEATH(
      {
        ftx_obs::Registry registry;
        registry.RegisterCounterProbe("p0.dc.commits", []() { return int64_t{2}; });
        registry.RegisterCounterProbe(0, "dc.commits", []() { return int64_t{1}; });
      },
      "p0.dc.commits is already registered computation-wide");
  // A spelled name of another pid or quantity is not a collision.
  ftx_obs::Registry registry;
  registry.RegisterCounterProbe("p1.dc.commits", []() { return int64_t{4}; });
  registry.RegisterCounterProbe("p0.dc.rollbacks", []() { return int64_t{0}; });
  registry.RegisterCounterProbe(0, "dc.commits", []() { return int64_t{3}; });
  EXPECT_EQ(registry.Snapshot().TotalCounter("dc.commits"), 7);
}

TEST(MetricsDeathTest, SnapshotJsonRefusesUnorderedEntries) {
  ftx_obs::MetricsSnapshot snapshot;
  snapshot.entries.emplace_back("b.count", ftx_obs::MetricValue());
  snapshot.entries.emplace_back("a.count", ftx_obs::MetricValue());
  EXPECT_DEATH(snapshot.ToJson(), "snapshot entry a.count is out of order");
  snapshot.entries[1].first = "b.count";
  EXPECT_DEATH(snapshot.ToJson(), "snapshot entry b.count is out of order");
}

TEST(MetricsTest, SnapshotJsonRoundTrip) {
  ftx_obs::Registry registry;
  registry.RegisterCounterProbe("a.count", []() { return int64_t{5}; });
  registry.RegisterGaugeProbe("b.level", []() { return 2.25; });
  registry.GetHistogram("c.latency_ns", {100, 1000})->Observe(50);
  registry.GetHistogram("c.latency_ns")->Observe(700);

  Json doc = registry.Snapshot().ToJson();
  EXPECT_EQ(doc.Find("a.count")->integer(), 5);
  EXPECT_DOUBLE_EQ(doc.Find("b.level")->number(), 2.25);
  const Json* hist = doc.Find("c.latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->integer(), 2);
  EXPECT_EQ(hist->Find("sum")->integer(), 750);
  EXPECT_EQ(hist->Find("min")->integer(), 50);
  EXPECT_EQ(hist->Find("max")->integer(), 700);
  ASSERT_EQ(hist->Find("buckets")->size(), 3u);
  EXPECT_EQ(hist->Find("buckets")->at(0).integer(), 1);
  EXPECT_EQ(hist->Find("buckets")->at(1).integer(), 1);
}

// --- tracer ---

ftx::TimePoint AtNs(int64_t ns) { return ftx::TimePoint() + ftx::Nanoseconds(ns); }

// Asserts the Chrome export invariants every consumer relies on:
// timestamps are monotone in array order, and B/E events are balanced
// (never negative depth, zero depth at the end) per (pid, tid) track.
void CheckChromeTraceWellFormed(const ftx_obs::Tracer& tracer) {
  Json doc = tracer.ToChromeTrace();
  const Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  double last_ts = -1;
  std::map<std::pair<int64_t, int64_t>, int> depth;
  for (const Json& event : events->items()) {
    const std::string& phase = event.Find("ph")->str();
    if (phase == "M") {
      continue;  // metadata events carry no timestamp ordering obligation
    }
    double ts = event.Find("ts")->number();
    EXPECT_GE(ts, last_ts) << "timestamps must be sorted for Perfetto";
    last_ts = ts;
    auto track = std::make_pair(event.Find("pid")->integer(), event.Find("tid")->integer());
    if (phase == "B") {
      ++depth[track];
    } else if (phase == "E") {
      --depth[track];
      EXPECT_GE(depth[track], 0) << "E without matching B on a track";
    }
  }
  for (const auto& [track, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced B/E on pid=" << track.first << " tid=" << track.second;
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  ftx_obs::Tracer tracer;
  tracer.Span(0, ftx_obs::TraceLane::kStep, "app", "step", AtNs(0), AtNs(10));
  tracer.Instant(0, ftx_obs::TraceLane::kRecovery, "dc", "crash", AtNs(5));
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, SpanAndInstantExport) {
  ftx_obs::Tracer tracer;
  tracer.SetEnabled(true);
  tracer.Span(0, ftx_obs::TraceLane::kStep, "app", "step", AtNs(1000), AtNs(3000));
  tracer.Span(1, ftx_obs::TraceLane::kStorage, "dc", "commit", AtNs(2000), AtNs(2000));
  tracer.Instant(0, ftx_obs::TraceLane::kRecovery, "dc", "crash", AtNs(2500));
  CheckChromeTraceWellFormed(tracer);

  Json doc = tracer.ToChromeTrace();
  int begins = 0, ends = 0, instants = 0;
  for (const Json& event : doc.Find("traceEvents")->items()) {
    const std::string& phase = event.Find("ph")->str();
    begins += phase == "B";
    ends += phase == "E";
    instants += phase == "i";
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);
  EXPECT_EQ(instants, 1);
}

TEST(TracerTest, OverlappingSpansOnOneLaneStayBalanced) {
  // The runtime computes span times from caller-supplied costs; if two
  // overlap on the same (pid, lane) the exporter must repair them so the
  // B/E stream stays balanced rather than emitting interleaved pairs.
  ftx_obs::Tracer tracer;
  tracer.SetEnabled(true);
  tracer.Span(0, ftx_obs::TraceLane::kStorage, "dc", "commit", AtNs(100), AtNs(300));
  tracer.Span(0, ftx_obs::TraceLane::kStorage, "dc", "commit", AtNs(200), AtNs(400));
  tracer.Span(0, ftx_obs::TraceLane::kStorage, "dc", "flush", AtNs(250), AtNs(260));
  CheckChromeTraceWellFormed(tracer);
}

TEST(TracerTest, LaneMetadataNamesEveryTrackInUse) {
  ftx_obs::Tracer tracer;
  tracer.SetEnabled(true);
  tracer.Span(2, ftx_obs::TraceLane::kCoordination, "dc", "2pc-round(3)", AtNs(0), AtNs(50));
  Json doc = tracer.ToChromeTrace();
  bool found_thread_name = false;
  for (const Json& event : doc.Find("traceEvents")->items()) {
    if (event.Find("ph")->str() == "M" && event.Find("name")->str() == "thread_name") {
      found_thread_name = true;
      EXPECT_EQ(event.Find("pid")->integer(), 2);
    }
  }
  EXPECT_TRUE(found_thread_name);
}

TEST(TracerTest, FlowEventsPairOnCategoryNameAndId) {
  ftx_obs::Tracer tracer;
  tracer.SetEnabled(true);
  tracer.FlowStart(0, ftx_obs::TraceLane::kStep, "causal", "msg", AtNs(100), /*flow_id=*/7);
  tracer.FlowFinish(1, ftx_obs::TraceLane::kStep, "causal", "msg", AtNs(300), /*flow_id=*/7);
  CheckChromeTraceWellFormed(tracer);

  Json doc = tracer.ToChromeTrace();
  const Json* start = nullptr;
  const Json* finish = nullptr;
  for (const Json& event : doc.Find("traceEvents")->items()) {
    const std::string& phase = event.Find("ph")->str();
    if (phase == "s") {
      start = &event;
    } else if (phase == "f") {
      finish = &event;
    }
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(finish, nullptr);
  // The two ends pair on (cat, name, id)...
  EXPECT_EQ(start->Find("cat")->str(), finish->Find("cat")->str());
  EXPECT_EQ(start->Find("name")->str(), finish->Find("name")->str());
  EXPECT_EQ(start->Find("id")->integer(), 7);
  EXPECT_EQ(finish->Find("id")->integer(), 7);
  // ...the finish binds to its enclosing slice, and the arrow points
  // forward in time across tracks.
  EXPECT_EQ(finish->Find("bp")->str(), "e");
  EXPECT_LT(start->Find("ts")->number(), finish->Find("ts")->number());
  EXPECT_NE(start->Find("pid")->integer(), finish->Find("pid")->integer());
}

TEST(TracerTest, CounterSampleExportsArgsSeries) {
  ftx_obs::Tracer tracer;
  tracer.SetEnabled(true);
  tracer.CounterSample(2, "dc", "commit cost (ns)", AtNs(500),
                       {{"fixed", 40.0}, {"persist", 160.0}});
  CheckChromeTraceWellFormed(tracer);

  Json doc = tracer.ToChromeTrace();
  const Json* counter = nullptr;
  for (const Json& event : doc.Find("traceEvents")->items()) {
    if (event.Find("ph")->str() == "C") {
      counter = &event;
    }
  }
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Find("name")->str(), "commit cost (ns)");
  const Json* args = counter->Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->Find("fixed")->number(), 40.0);
  EXPECT_DOUBLE_EQ(args->Find("persist")->number(), 160.0);
}

TEST(TracerTest, DisabledTracerIgnoresFlowsAndCounters) {
  ftx_obs::Tracer tracer;
  tracer.FlowStart(0, ftx_obs::TraceLane::kStep, "causal", "msg", AtNs(0), 1);
  tracer.FlowFinish(0, ftx_obs::TraceLane::kStep, "causal", "msg", AtNs(1), 1);
  tracer.CounterSample(0, "dc", "x", AtNs(2), {{"a", 1.0}});
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, AuditedTracedRunEmitsCausalFlowsAndCostTracks) {
  // End-to-end: an audited run with tracing on exports send->receive and
  // nd->commit flow arrows plus per-commit cost-attribution counters, and
  // the whole document still satisfies every Chrome-export invariant.
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.protocol = "cpvs";
  spec.scale = 3;
  spec.audit = true;
  auto computation = ftx::BuildComputation(spec);
  computation->tracer().SetEnabled(true);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  CheckChromeTraceWellFormed(computation->tracer());

  Json doc = computation->tracer().ToChromeTrace();
  int msg_starts = 0, msg_finishes = 0, nd_flows = 0, cost_samples = 0;
  for (const Json& event : doc.Find("traceEvents")->items()) {
    const std::string& phase = event.Find("ph")->str();
    const std::string& name = event.Find("name")->str();
    if (phase == "s" && name == "msg") {
      ++msg_starts;
    } else if (phase == "f" && name == "msg") {
      ++msg_finishes;
      EXPECT_EQ(event.Find("bp")->str(), "e");
    } else if ((phase == "s" || phase == "f") && name == "nd->commit") {
      ++nd_flows;
    } else if (phase == "C" && name == "commit cost (ns)") {
      ++cost_samples;
      EXPECT_NE(event.Find("args")->Find("fixed"), nullptr);
      EXPECT_NE(event.Find("args")->Find("persist"), nullptr);
    }
  }
  EXPECT_GT(msg_starts, 0);
  // Every received message's arrow has both ends (sends whose delivery was
  // still in flight at the end may leave unpaired starts).
  EXPECT_GT(msg_finishes, 0);
  EXPECT_LE(msg_finishes, msg_starts);
  EXPECT_GT(nd_flows, 0);
  EXPECT_GT(cost_samples, 0);
}

// --- results emitter ---

TEST(ResultsTest, EnvelopeShape) {
  ftx_obs::ResultsFile results("unit_test_bench");
  results.SetFullScale(true);
  results.SetMeta("seed", 7);
  results.AddRow(Json::Object().Set("workload", "nvi").Set("checkpoints", 12));

  ftx_obs::Registry registry;
  registry.RegisterCounterProbe("p0.dc.commits", []() { return int64_t{12}; });
  results.AttachMetricsToLastRow(registry.Snapshot());

  Json doc = results.ToJson();
  EXPECT_EQ(doc.Find("schema")->str(), ftx_obs::kResultsSchemaName);
  EXPECT_EQ(doc.Find("schema_version")->integer(), ftx_obs::kResultsSchemaVersion);
  EXPECT_EQ(doc.Find("bench")->str(), "unit_test_bench");
  EXPECT_TRUE(doc.Find("full_scale")->boolean());
  EXPECT_EQ(doc.Find("meta")->Find("seed")->integer(), 7);
  ASSERT_EQ(doc.Find("rows")->size(), 1u);
  const Json& row = doc.Find("rows")->at(0);
  EXPECT_EQ(row.Find("checkpoints")->integer(), 12);
  EXPECT_EQ(row.Find("metrics")->Find("p0.dc.commits")->integer(), 12);
}

// --- integration with real computations ---

TEST(ObsIntegrationTest, RegistryNeverDivergesFromRuntimeStats) {
  // The per-process probes read the same RuntimeStats memory stats()
  // reports, so after a full run (including a crash and recovery) every
  // probed field must match the struct exactly.
  ftx::RunSpec spec;
  spec.workload = "magic";
  spec.scale = 80;
  spec.seed = 5;
  spec.protocol = "cpvs";
  auto computation = ftx::BuildComputation(spec);
  computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(20),
                                   ftx::Milliseconds(1));
  ftx::ComputationResult result = computation->Run();
  ASSERT_TRUE(result.all_done);

  ftx_obs::MetricsSnapshot snapshot = computation->metrics().Snapshot();
  for (int pid = 0; pid < computation->num_processes(); ++pid) {
    const ftx_dc::RuntimeStats& stats = result.per_process[static_cast<size_t>(pid)];
    auto probed = [&](const std::string& name) {
      const std::string full = ftx_obs::ProcessMetricName(pid, name);
      const ftx_obs::MetricValue* value = snapshot.Find(full);
      EXPECT_NE(value, nullptr) << full;
      return value == nullptr ? int64_t{-1} : value->counter;
    };
    EXPECT_EQ(probed("dc.commits"), stats.commits);
    EXPECT_EQ(probed("dc.coordinated_commits"), stats.coordinated_commits);
    EXPECT_EQ(probed("dc.commit_ns"), stats.commit_time.nanos());
    EXPECT_EQ(probed("dc.pages_committed"), stats.pages_committed);
    EXPECT_EQ(probed("dc.bytes_persisted"), stats.bytes_persisted);
    EXPECT_EQ(probed("dc.events"), stats.events);
    EXPECT_EQ(probed("dc.nd_events"), stats.nd_events);
    EXPECT_EQ(probed("dc.visible_events"), stats.visible_events);
    EXPECT_EQ(probed("dc.sends"), stats.sends);
    EXPECT_EQ(probed("dc.receives"), stats.receives);
    EXPECT_EQ(probed("dc.logged_events"), stats.logged_events);
    EXPECT_EQ(probed("dc.rollbacks"), stats.rollbacks);
    EXPECT_EQ(probed("dc.recovery_ns"), stats.recovery_time.nanos());
    EXPECT_EQ(probed("dc.crash_events"), stats.crash_events);
    EXPECT_EQ(probed("faults.activations"), stats.fault_activations);
    EXPECT_EQ(probed("dc.ndlog_flushes"), stats.ndlog_flushes);
  }

  // Computation-wide instruments exist and saw traffic.
  EXPECT_GT(snapshot.Find("sim.events_executed")->counter, 0);
  EXPECT_GT(snapshot.Find("kernel.syscalls")->counter, 0);
  EXPECT_EQ(snapshot.TotalCounter("dc.rollbacks"), result.total_rollbacks);
  EXPECT_EQ(snapshot.TotalCounter("dc.commits"), result.total_commits);
}

TEST(ObsIntegrationTest, SnapshotOrderPinnedPastTenProcesses) {
  // Per-process names sort by their "p<pid>." text, so p10 and p11 fall
  // between p1 and p2, and each process's disk., faults. and redo. names
  // follow its dc. names in ordinal order. A DC-disk fleet of 12 processes
  // (2 servers x 10 clients) with one stop failure pins that order, and the
  // CRC-32 of the snapshot's JSON text pins its values.
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 10;
  config.requests_per_client = 2;
  ftx::ComputationOptions options;
  options.seed = 11;
  options.protocol = "cpv-2pc";
  options.store = ftx::StoreKind::kDisk;
  options.recovery_delay = ftx::Microseconds(100);
  ftx::Computation computation(options, ftx_apps::MakeFleetApps(config));
  computation.ScheduleStopFailure(10, ftx::TimePoint() + ftx::Microseconds(200),
                                  ftx::Microseconds(100));
  ASSERT_TRUE(computation.Run().all_done);

  // The names in ordinal order: the computation-wide names around one
  // block per process, with the blocks in the order of their pid's text.
  std::vector<std::string> expected = {"dc.2pc_rounds", "dc.commit_ns", "dc.recovery_ns",
                                       "kernel.disk_blocks_free", "kernel.reconstructions",
                                       "kernel.syscalls"};
  for (const char* pid : {"0", "1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"}) {
    for (const char* name :
         {"dc.bytes_persisted", "dc.commit_ns", "dc.commits", "dc.coordinated_commits",
          "dc.crash_events", "dc.events", "dc.logged_events", "dc.nd_events",
          "dc.ndlog_flushes", "dc.pages_committed", "dc.receives", "dc.recovery_ns",
          "dc.rollbacks", "dc.sends", "dc.visible_events", "disk.bytes_written",
          "disk.sync_writes", "faults.activations", "redo.bytes_written", "redo.records"}) {
      expected.push_back(std::string("p") + pid + "." + name);
    }
  }
  for (const char* name : {"sim.bytes_sent", "sim.events_executed", "sim.events_scheduled",
                           "sim.messages_delivered", "sim.messages_requeued",
                           "sim.messages_sent", "sim.now_s"}) {
    expected.push_back(name);
  }

  const ftx_obs::MetricsSnapshot snapshot = computation.metrics().Snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snapshot.entries) {
    names.push_back(name);
  }
  EXPECT_EQ(names, expected);
  EXPECT_EQ(snapshot.Find("p10.dc.rollbacks")->counter, 1);
  const std::string text = snapshot.ToJson().Dump();
  EXPECT_EQ(ftx::Crc32(text.data(), text.size()), 0x46cfac2eu);
}

// CRC-32 of each observer's output after one run with every observer on.
struct ObserverCrcs {
  uint32_t audit = 0;
  uint32_t critical_path = 0;
  uint32_t timeseries = 0;
  uint32_t chrome_trace = 0;
  uint32_t metrics = 0;
};

ObserverCrcs RunWithEveryObserver(ftx::ComputationOptions options,
                                  std::vector<std::unique_ptr<ftx_dc::App>> apps,
                                  const std::function<void(ftx::Computation&)>& prepare) {
  options.audit = true;
  options.critical_path = true;
  options.timeseries = true;
  options.timeseries_options.cadence_ns = 100000;  // 100 us of simulated time
  ftx::Computation computation(std::move(options), std::move(apps));
  computation.tracer().SetEnabled(true);
  prepare(computation);
  EXPECT_TRUE(computation.Run().all_done);
  EXPECT_TRUE(computation.critical_path()->Extract().found);
  auto crc = [](const std::string& text) { return ftx::Crc32(text.data(), text.size()); };
  return ObserverCrcs{
      .audit = crc(computation.audit()->ToJson().Dump()),
      .critical_path = crc(computation.critical_path()->ToJson().Dump()),
      .timeseries = crc(computation.timeseries()->ToJsonl()),
      .chrome_trace = crc(computation.tracer().ToChromeTrace().Dump()),
      .metrics = crc(computation.metrics().Snapshot().ToJson().Dump()),
  };
}

TEST(ObsIntegrationTest, ObserverOutputsPinned) {
  // Every observer's output, byte for byte, on two runs with the audit, the
  // critical path, the tsdb and the tracer on: a cpv-2pc fleet on Rio with
  // one server stop-failed (2PC rounds, a recovery, tainted messages), and
  // nvi on the volatile store through an OS crash (the restart path).
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 6;
  config.requests_per_client = 3;
  ftx::ComputationOptions fleet;
  fleet.seed = 5;
  fleet.protocol = "cpv-2pc";
  fleet.store = ftx::StoreKind::kRio;
  fleet.recovery_delay = ftx::Microseconds(100);
  const ObserverCrcs fleet_crcs =
      RunWithEveryObserver(fleet, ftx_apps::MakeFleetApps(config), [](ftx::Computation& c) {
        c.ScheduleStopFailure(1, ftx::TimePoint() + ftx::Microseconds(300),
                              ftx::Microseconds(100));
      });
  EXPECT_EQ(fleet_crcs.audit, 0xf0f79474u);
  EXPECT_EQ(fleet_crcs.critical_path, 0x417db958u);
  EXPECT_EQ(fleet_crcs.timeseries, 0x69606bd9u);
  EXPECT_EQ(fleet_crcs.chrome_trace, 0xd6972d40u);
  EXPECT_EQ(fleet_crcs.metrics, 0xcb810e3bu);

  ftx_apps::WorkloadSetup nvi =
      ftx_apps::MakeWorkload("nvi", /*scale=*/30, /*seed=*/3, /*interactive=*/false);
  ftx::ComputationOptions volatile_store;
  volatile_store.seed = 3;
  volatile_store.protocol = "cand";
  volatile_store.store = ftx::StoreKind::kVolatileMemory;
  const ObserverCrcs nvi_crcs =
      RunWithEveryObserver(volatile_store, std::move(nvi.apps), [&nvi](ftx::Computation& c) {
        c.SetInputScript(0, nvi.scripts[0]);
        c.ScheduleOsStopFailure(ftx::TimePoint() + ftx::Milliseconds(2), ftx::Milliseconds(1));
      });
  EXPECT_EQ(nvi_crcs.audit, 0xcfe72bffu);
  EXPECT_EQ(nvi_crcs.critical_path, 0xe63931eau);
  EXPECT_EQ(nvi_crcs.timeseries, 0xab644519u);
  EXPECT_EQ(nvi_crcs.chrome_trace, 0x60297c83u);
  EXPECT_EQ(nvi_crcs.metrics, 0xd9bc582bu);
}

TEST(ObsIntegrationTest, CrashedProcessLeavesCommitAndRecoverySpans) {
  // Acceptance criterion: a recoverable run with a mid-run failure exports
  // a Chrome trace containing at least one commit span and at least one
  // recovery span for every crashed process.
  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.scale = 200;
  spec.seed = 3;
  spec.protocol = "cpvs";
  auto computation = ftx::BuildComputation(spec);
  computation->tracer().SetEnabled(true);
  const int kCrashedPid = 0;
  computation->ScheduleStopFailure(kCrashedPid, ftx::TimePoint() + ftx::Milliseconds(30),
                                   ftx::Milliseconds(1));
  ftx::ComputationResult result = computation->Run();
  ASSERT_TRUE(result.all_done);

  CheckChromeTraceWellFormed(computation->tracer());

  Json doc = computation->tracer().ToChromeTrace();
  int commit_spans = 0;
  int recovery_spans = 0;
  for (const Json& event : doc.Find("traceEvents")->items()) {
    if (event.Find("ph")->str() != "B" || event.Find("pid")->integer() != kCrashedPid) {
      continue;
    }
    const std::string& name = event.Find("name")->str();
    commit_spans += name.rfind("commit", 0) == 0;
    recovery_spans += name == "recover" || name == "restart";
  }
  EXPECT_GE(commit_spans, 1);
  EXPECT_GE(recovery_spans, 1);
}

TEST(ObsIntegrationTest, BaselineModeRegistersMetricsButNoSpans) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 30;
  spec.seed = 2;
  spec.mode = ftx_dc::RuntimeMode::kBaseline;
  auto computation = ftx::BuildComputation(spec);
  computation->tracer().SetEnabled(true);
  ftx::ComputationResult result = computation->Run();
  ASSERT_TRUE(result.all_done);
  ftx_obs::MetricsSnapshot snapshot = computation->metrics().Snapshot();
  EXPECT_EQ(snapshot.TotalCounter("dc.commits"), 0);
  // Per-process probes are registered even in baseline mode (baseline runs
  // skip event accounting, so the values stay zero but the names exist).
  EXPECT_NE(snapshot.Find("p0.dc.events"), nullptr);
  EXPECT_GT(snapshot.Find("sim.events_executed")->counter, 0);
  // Baseline runs never commit or recover; only step spans may appear.
  for (const ftx_obs::TraceEvent& event : computation->tracer().events()) {
    EXPECT_EQ(event.lane, ftx_obs::TraceLane::kStep);
  }
}

TEST(ObsIntegrationTest, RunOutputCarriesMetricsSnapshot) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 30;
  spec.seed = 2;
  spec.protocol = "cand";
  ftx::RunOutput output = ftx::RunExperiment(spec);
  EXPECT_EQ(output.metrics.TotalCounter("dc.commits"), output.checkpoints);
}

}  // namespace
