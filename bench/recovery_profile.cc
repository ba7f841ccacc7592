// Recovery MTTR: per-phase host-time attribution of the recovery path.
//
// Every other bench measures *simulated* time; this one asks where the
// reproduction itself spends its cycles recovering, phase by phase (log
// scan, CRC validate, page install, reprotect, ND replay, kernel replay,
// application rebuild), using the ftx::prof scoped profiler. Three sweeps:
//
//   protocol         all seven measured protocols on treadmarks (DC-disk),
//                    one mid-run stop failure each — how the Save-work
//                    protocol shapes the recovery profile;
//   log_size         nvi/cpvs with the crash at 25% / 50% / 80% of the run —
//                    the redo chain grows with the crash point, so the
//                    simulated log scan scales with it, while host-side CRC
//                    validation and page installs scale with the records
//                    that still hold pages;
//   commit_interval  nvi under eager CAND vs lazy CAND-LOG — rare commits
//                    shrink the redo chain but shift recovery work into ND
//                    replay during re-execution.
//
// Simulated quantities in each row (MTTR histogram stats, replay counts,
// consistency verdicts, scope counts) are deterministic; the host phase_*_ns
// fields are wall-clock and vary run to run, so this bench has no golden
// snapshot — scripts/bench_history.py keeps a host-keyed ledger instead.
// --repeat N reruns the recoverable half and reports min/median host times.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/obs/prof/prof.h"
#include "src/protocol/protocol.h"
#include "src/recovery/consistency.h"

namespace {

struct SweepPoint {
  const char* section;
  const char* workload;
  const char* protocol;
  double crash_fraction;  // of the failure-free run's elapsed simulated time
  uint64_t seed;
};

// Recovery phases reported per row: profiler scope -> JSON field stem.
constexpr struct {
  const char* scope;
  const char* field;
} kPhases[] = {
    {"recover.log_scan", "log_scan"},
    {"recover.crc_validate", "crc_validate"},
    {"recover.page_install", "page_install"},
    {"recover.reprotect", "reprotect"},
    {"recover.nd_replay", "nd_replay"},
    {"recover.kernel_replay", "kernel_replay"},
    {"recover.app_rebuild", "app_rebuild"},
};

double PhasePct(int64_t phase_ns, int64_t total_ns) {
  return total_ns > 0 ? 100.0 * static_cast<double>(phase_ns) / static_cast<double>(total_ns)
                      : 0.0;
}

ftx_bench::RowResult RunPoint(ftx_bench::RowContext& ctx, const SweepPoint& pt, int scale) {
  const int repeat = ctx.options->repeat;

  ftx::RunSpec spec;
  spec.workload = pt.workload;
  spec.protocol = pt.protocol;
  spec.scale = scale;
  spec.seed = ctx.SeedOr(pt.seed);
  spec.store = ftx::StoreKind::kDisk;
  spec.audit = ctx.options->audit;

  // Failure-free baseline: the consistency reference, and the run length
  // the crash point is placed against.
  ftx::RunSpec reference_spec = spec;
  reference_spec.mode = ftx_dc::RuntimeMode::kBaseline;
  reference_spec.audit = false;
  ftx::RunOutput reference = ftx::RunExperiment(reference_spec);
  const ftx::Duration crash_at = ftx::Nanoseconds(
      static_cast<int64_t>(static_cast<double>(reference.elapsed.nanos()) * pt.crash_fraction));
  FTX_CHECK_GT(crash_at.nanos(), 0);

  // Recoverable run(s) with one stop failure at the crash point, each under
  // its own profiler. The simulation is seeded, so every repeat replays the
  // same recovery — only the host-side wall times differ.
  std::map<std::string, std::vector<double>> wall_samples;
  ftx_prof::Profile profile;  // repeat 0's merge (counts are identical)
  ftx::RunOutput recovered;
  ftx_rec::ConsistencyResult consistency;
  bool completed = false;
  int64_t redo_records = 0;  // records the crashed process's recovery read
  // --timeseries: only repeat 0 samples and writes the JSONL; the later
  // repeats run telemetry-off, so the FTX_CHECK_EQs below double as a
  // neutrality assertion (sampling must not move simulated quantities).
  spec.timeseries_path = ctx.timeseries_path;
  for (int rep = 0; rep < repeat; ++rep) {
    if (rep == 1) {
      spec.timeseries_path.clear();
    }
    std::unique_ptr<ftx::Computation> computation = ftx::BuildComputation(spec);
    computation->ScheduleStopFailure(0, ftx::TimePoint() + crash_at, ftx::Milliseconds(50));
    ftx_prof::Profiler profiler;
    ftx::ComputationResult result;
    {
      ftx_prof::Activation prof_on(&profiler);
      result = computation->Run();
    }
    ftx::RunOutput out = ftx::Collect(*computation, result);
    ftx_prof::Profile merged = profiler.Merge();
    wall_samples["recover"].push_back(static_cast<double>(merged.LeafTotalNs("recover")));
    for (const auto& phase : kPhases) {
      wall_samples[phase.scope].push_back(static_cast<double>(merged.LeafTotalNs(phase.scope)));
    }
    if (rep == 0) {
      profile = std::move(merged);
      consistency = ftx_rec::CheckConsistentRecovery(reference.outputs, out.outputs,
                                                     computation->num_processes(),
                                                     /*require_complete=*/true);
      completed = result.all_done;
      redo_records = computation->runtime(0).last_recovery().records;
      recovered = std::move(out);
    } else {
      // The repeats exist only to stabilize host times; the simulation must
      // not notice them.
      FTX_CHECK_EQ(out.result.total_rollbacks, recovered.result.total_rollbacks);
      FTX_CHECK_EQ(out.checkpoints, recovered.checkpoints);
    }
  }

  const int64_t replays = recovered.result.total_rollbacks;
  const bool ok = consistency.consistent && completed;
  const int64_t recover_wall_ns = static_cast<int64_t>(ftx_bench::MinOf(wall_samples["recover"]));

  ftx_obs::Json row = ftx_obs::Json::Object();
  row.Set("section", pt.section);
  row.Set("workload", pt.workload);
  row.Set("protocol", pt.protocol);
  row.Set("store", "disk");
  row.Set("scale", scale);
  row.Set("crash_fraction", pt.crash_fraction);
  row.Set("repeats", repeat);
  row.Set("ok", ok);
  row.Set("violations", ok ? 0 : 1);
  row.Set("duplicates_tolerated", consistency.duplicates_tolerated);
  row.Set("replays", replays);
  // Every record recovery read; the crc_validate and page_install counts
  // cover only the records that still held pages.
  row.Set("redo_records", redo_records);
  // Simulated MTTR distribution (deterministic; the figure's quantity).
  const ftx_obs::MetricValue* mttr = recovered.metrics.Find("dc.recovery_ns");
  FTX_CHECK(mttr != nullptr);
  row.Set("mttr_count", mttr->count);
  row.Set("mttr_sim_ns_mean",
          mttr->count > 0 ? static_cast<double>(mttr->sum) / static_cast<double>(mttr->count)
                          : 0.0);
  row.Set("mttr_sim_ns_p50", mttr->p50);
  row.Set("mttr_sim_ns_p90", mttr->p90);
  row.Set("mttr_sim_ns_p99", mttr->p99);
  // Host-time recovery breakdown (nondeterministic; min over --repeat, with
  // the median alongside; counts are deterministic).
  row.Set("recover_wall_ns", recover_wall_ns);
  row.Set("recover_wall_ns_median",
          static_cast<int64_t>(ftx_bench::MedianOf(wall_samples["recover"])));
  for (const auto& phase : kPhases) {
    const std::string stem = std::string("phase_") + phase.field;
    row.Set(stem + "_ns", static_cast<int64_t>(ftx_bench::MinOf(wall_samples[phase.scope])));
    row.Set(stem + "_ns_median",
            static_cast<int64_t>(ftx_bench::MedianOf(wall_samples[phase.scope])));
    row.Set(stem + "_count", profile.LeafCount(phase.scope));
  }
  if (recovered.audited) {
    row.Set("audit", recovered.audit_report);
  }

  ftx_bench::RowResult result;
  result.console = ftx_bench::Sprintf(
      "%-16s %-11s %-11s %4lld %6lld %9.2f ms  "
      "scan %3.0f%% crc %3.0f%% inst %3.0f%% reprot %3.0f%% nd %3.0f%%\n",
      pt.section, pt.workload, pt.protocol, static_cast<long long>(replays),
      static_cast<long long>(redo_records), mttr->p50 / 1e6,
      PhasePct(static_cast<int64_t>(ftx_bench::MinOf(wall_samples["recover.log_scan"])),
               recover_wall_ns),
      PhasePct(static_cast<int64_t>(ftx_bench::MinOf(wall_samples["recover.crc_validate"])),
               recover_wall_ns),
      PhasePct(static_cast<int64_t>(ftx_bench::MinOf(wall_samples["recover.page_install"])),
               recover_wall_ns),
      PhasePct(static_cast<int64_t>(ftx_bench::MinOf(wall_samples["recover.reprotect"])),
               recover_wall_ns),
      PhasePct(static_cast<int64_t>(ftx_bench::MinOf(wall_samples["recover.nd_replay"])),
               recover_wall_ns));
  result.values.push_back(ok ? 0.0 : 1.0);
  result.values.push_back(static_cast<double>(replays));
  result.json.push_back(std::move(row));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options = ftx_bench::ParseBenchOptions(argc, argv);

  std::vector<SweepPoint> points;
  int i = 0;
  for (const std::string& protocol : ftx_proto::MeasuredProtocolNames()) {
    points.push_back(
        {"protocol", "treadmarks", protocol.c_str(), 0.5, 6100 + static_cast<uint64_t>(i++)});
  }
  for (double fraction : {0.25, 0.5, 0.8}) {
    points.push_back(
        {"log_size", "nvi", "cpvs", fraction, 6200 + static_cast<uint64_t>(fraction * 100)});
  }
  points.push_back({"commit_interval", "nvi", "cand", 0.5, 6301});
  points.push_back({"commit_interval", "nvi", "cand-log", 0.5, 6302});

  ftx_bench::Suite suite("recovery_profile", options);
  suite.SetMeta("host", ftx_prof::HostMetaJson());
  suite.SetMeta("repeat", options.repeat);
  suite.SetMeta("store", "disk");
  suite.SetMeta("sections", ftx_obs::Json::Array()
                                .Push("protocol")
                                .Push("log_size")
                                .Push("commit_interval"));

  suite.Text(ftx_bench::Sprintf(
      "================================================================\n"
      "Recovery MTTR: per-phase host-time attribution (ftx::prof)\n"
      "%-16s %-11s %-11s %4s %6s %12s  %s\n"
      "----------------------------------------------------------------\n",
      "sweep", "workload", "protocol", "rpl", "recs", "sim MTTR p50", "host recovery split"));

  for (const SweepPoint& pt : points) {
    const int scale = ftx_bench::ResolveScale(pt.workload, options);
    suite.AddRow([pt, scale](ftx_bench::RowContext& ctx) { return RunPoint(ctx, pt, scale); });
  }

  suite.Summarize([](const std::vector<ftx_bench::RowResult>& rows) {
    double violations = 0;
    double replays = 0;
    for (const ftx_bench::RowResult& row : rows) {
      violations += row.values[0];
      replays += row.values[1];
    }
    return ftx_bench::Sprintf(
        "----------------------------------------------------------------\n"
        "%zu sweep points, %.0f recoveries replayed, %.0f consistency "
        "violations\n",
        rows.size(), replays, violations);
  });
  return suite.Run();
}
