// The benchmark's own tests: span self-time arithmetic, the tail-percentile
// rule, the name pattern, and the fingerprint-mismatch path.

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

TEST(SpanRecorder, SelfTimeSubtractsDirectChildrenOnly) {
  SpanRecorder spans;
  spans.BeginAt("root", 0);
  spans.BeginAt("a", 10);
  spans.BeginAt("a.inner", 20);
  spans.EndAt(30);
  spans.EndAt(40);
  spans.BeginAt("b", 50);
  spans.EndAt(70);
  spans.EndAt(100);

  const auto totals = spans.Totals();
  EXPECT_EQ(totals.at("root").total_ns, 100);
  EXPECT_EQ(totals.at("root").self_ns, 50);  // 100 - a(30) - b(20)
  EXPECT_EQ(totals.at("a").self_ns, 20);     // 30 - inner(10)
  EXPECT_EQ(totals.at("a.inner").self_ns, 10);
  EXPECT_EQ(totals.at("b").self_ns, 20);
  // Self times tile the root.
  EXPECT_EQ(spans.TotalSelfNs(), 100);
}

TEST(SpanRecorder, SpansDeeperThanKeepDepthOnlyFeedTotals) {
  static_assert(SpanRecorder::kKeepDepth == 2);
  SpanRecorder spans;
  spans.BeginAt("iteration", 0);
  spans.BeginAt("run", 5);
  for (int i = 0; i < 3; ++i) {
    spans.BeginAt("step", 10 * i + 10);  // depth 2: not kept
    spans.BeginAt("call", 10 * i + 11);  // depth 3: not kept
    spans.EndAt(10 * i + 13);
    spans.EndAt(10 * i + 14);
  }
  spans.EndAt(45);
  spans.EndAt(50);

  const auto totals = spans.Totals();
  EXPECT_EQ(totals.at("step").count, 3);
  EXPECT_EQ(totals.at("step").self_ns, 6);  // 3 x (4 - 2)
  EXPECT_EQ(totals.at("call").self_ns, 6);
  EXPECT_EQ(totals.at("run").self_ns, 28);  // 40 - 3 x 4
  EXPECT_EQ(totals.at("iteration").self_ns, 10);
  EXPECT_EQ(spans.TotalSelfNs(), 50);
  ASSERT_EQ(spans.spans().size(), 2u);  // iteration and run
  EXPECT_EQ(spans.spans()[0].parent, -1);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_EQ(spans.spans()[1].end_ns, 45);
}

TEST(Percentile, ReportsHighestPercentileWithTenSamplesBeyond) {
  auto ramp = [](int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) {
      v.push_back(i);
    }
    return v;
  };
  TailPercentile tail = HighestResolvedPercentile(ramp(100));
  EXPECT_EQ(tail.pct, 90.0);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.samples, 100);

  tail = HighestResolvedPercentile(ramp(1000));
  EXPECT_EQ(tail.pct, 99.0);
  EXPECT_EQ(tail.value, 990.0);

  tail = HighestResolvedPercentile(ramp(99));  // p90 has only 9.9 beyond
  EXPECT_EQ(tail.pct, 50.0);
  EXPECT_EQ(tail.value, 50.0);

  tail = HighestResolvedPercentile(ramp(5));  // too few for any tail
  EXPECT_EQ(tail.pct, 50.0);
  EXPECT_EQ(tail.samples, 5);

  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Names, PatternAcceptsOnlyTheMetricAlphabet) {
  EXPECT_TRUE(ValidName("fleet-2pc"));
  EXPECT_TRUE(ValidName("checkpoint.recover.log_scan_s"));
  EXPECT_TRUE(ValidName("0x"));
  EXPECT_FALSE(ValidName(""));
  EXPECT_FALSE(ValidName(".hidden"));
  EXPECT_FALSE(ValidName("_x"));
  EXPECT_FALSE(ValidName("a b"));
  EXPECT_FALSE(ValidName("a/b"));
  EXPECT_FALSE(ValidName(std::string(65, 'a')));
  EXPECT_TRUE(ValidName(std::string(64, 'a')));
}

TEST(Names, EveryWorkloadAndLayerMetricIsValidAndUnique) {
  std::set<std::string> seen;
  for (const std::string& name : WorkloadNames()) {
    EXPECT_TRUE(ValidName(name)) << name;
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
  for (const MetricSpec& metric : LayerMetrics()) {
    EXPECT_TRUE(ValidName(metric.name)) << metric.name;
    EXPECT_TRUE(seen.insert(metric.name).second) << metric.name;
  }
  EXPECT_EQ(MakeBenchWorkload("no-such-workload", 1), nullptr);
}

TEST(Fingerprint, MismatchFailsEveryAttemptedOperation) {
  const uint64_t pinned = Fingerprint({1, 2, 3});
  const uint64_t observed = Fingerprint({1, 2, 4});
  ASSERT_NE(pinned, observed);
  const int64_t attempted = 30016;
  const int64_t failed = FailedOps(attempted, /*failed=*/0, /*fingerprint_ok=*/pinned == observed);
  EXPECT_EQ(failed, attempted);  // failed_frac = 1
  EXPECT_EQ(static_cast<double>(failed) / static_cast<double>(attempted), 1.0);

  EXPECT_EQ(FailedOps(attempted, 0, true), 0);
  EXPECT_EQ(FailedOps(attempted, 3, true), 3);
  EXPECT_EQ(FailedOps(10, 50, true), 10);  // capped at attempted
}

}  // namespace
}  // namespace perfbench
