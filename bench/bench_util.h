// Shared helpers for the paper-reproduction bench binaries, on top of the
// declarative suite in bench/suite.h (options, pool, rendering, JSON).

#ifndef FTX_BENCH_BENCH_UTIL_H_
#define FTX_BENCH_BENCH_UTIL_H_

#include <string>
#include <utility>

#include "bench/suite.h"
#include "src/apps/workloads.h"
#include "src/core/experiment.h"

namespace ftx_bench {

inline int ResolveScale(const std::string& workload, const BenchOptions& options) {
  return options.scale_override > 0 ? options.scale_override
                                    : ftx_apps::DefaultScale(workload, options.full_scale);
}

// Runs one Fig. 8 cell: workload × protocol × {rio, dc-disk}. The four
// underlying simulations (two baselines, two recoverable runs) fan out
// across `pool`; only the rio recoverable run writes `trace_path` and
// `timeseries_path`.
struct Fig8Cell {
  int64_t checkpoints = 0;
  double ckps_per_sec = 0.0;
  double rio_overhead_pct = 0.0;
  double disk_overhead_pct = 0.0;
  double rio_fps = 0.0;
  double disk_fps = 0.0;
  // Registry snapshots of the two recoverable runs.
  ftx_obs::MetricsSnapshot rio_metrics;
  ftx_obs::MetricsSnapshot disk_metrics;
  // --audit: the causal-audit reports of the two recoverable runs.
  bool audited = false;
  ftx_obs::Json rio_audit;
  ftx_obs::Json disk_audit;
};

inline Fig8Cell RunFig8Cell(const std::string& workload, const std::string& protocol, int scale,
                            uint64_t seed, ftx::TrialPool* pool,
                            const std::string& trace_path = "", bool audit = false,
                            int64_t batch = 0, const std::string& timeseries_path = "") {
  ftx::RunSpec spec;
  spec.workload = workload;
  spec.protocol = protocol;
  spec.scale = scale;
  spec.seed = seed;
  spec.audit = audit;
  if (batch > 1) {
    // --batch: DC-disk runs persist whole windows of staged commits under
    // one sync pair.
    spec.tweak_options = [batch](ftx::ComputationOptions* o) {
      o->group_commit.max_records = batch;
    };
  }

  spec.store = ftx::StoreKind::kRio;
  spec.trace_path = trace_path;  // only the recoverable rio run writes it
  spec.timeseries_path = timeseries_path;  // ditto for the telemetry JSONL
  ftx::OverheadRow rio = ftx::MeasureOverhead(spec, pool);
  spec.store = ftx::StoreKind::kDisk;
  spec.trace_path.clear();
  spec.timeseries_path.clear();
  ftx::OverheadRow disk = ftx::MeasureOverhead(spec, pool);

  Fig8Cell cell;
  cell.checkpoints = rio.checkpoints;
  cell.ckps_per_sec = rio.checkpoints_per_second;
  cell.rio_overhead_pct = rio.overhead_percent;
  cell.disk_overhead_pct = disk.overhead_percent;
  cell.rio_fps = rio.recoverable_fps;
  cell.disk_fps = disk.recoverable_fps;
  cell.rio_metrics = std::move(rio.recoverable_metrics);
  cell.disk_metrics = std::move(disk.recoverable_metrics);
  cell.audited = rio.audited && disk.audited;
  cell.rio_audit = std::move(rio.audit_report);
  cell.disk_audit = std::move(disk.audit_report);
  return cell;
}

// The Fig. 8 results row shared by all four workload benches, carrying the
// rio recoverable run's registry snapshot under "metrics".
inline ftx_obs::Json Fig8RowJson(const std::string& workload, const std::string& protocol,
                                 int scale, const Fig8Cell& cell, int64_t batch = 0) {
  ftx_obs::Json row = ftx_obs::Json::Object();
  row.Set("workload", workload);
  row.Set("protocol", protocol);
  row.Set("scale", scale);
  if (batch > 1) {
    // Only batched rows carry the field: unbatched goldens stay byte-stable.
    row.Set("batch", batch);
  }
  row.Set("checkpoints", cell.checkpoints);
  row.Set("checkpoints_per_second", cell.ckps_per_sec);
  row.Set("rio_overhead_pct", cell.rio_overhead_pct);
  row.Set("disk_overhead_pct", cell.disk_overhead_pct);
  row.Set("rio_fps", cell.rio_fps);
  row.Set("disk_fps", cell.disk_fps);
  row.Set("metrics", cell.rio_metrics.ToJson());
  if (cell.audited) {
    // Causal-audit reports of the two recoverable runs (the gate:
    // audit.violations == 0; scripts/check_bench_json.py enforces it).
    row.Set("audit", cell.rio_audit);
    row.Set("audit_disk", cell.disk_audit);
  }
  return row;
}

inline std::string Fig8Header(const char* figure, const char* workload, int scale,
                              bool fps_mode) {
  std::string text;
  text += "================================================================\n";
  text += Sprintf("%s: %s (scale=%d)\n", figure, workload, scale);
  text += "Fig. 8 reproduction: commit counts and overhead per protocol.\n";
  if (fps_mode) {
    text += Sprintf("%-12s %10s %14s %14s\n", "protocol", "ckpts/s", "DC fps", "DC-disk fps");
  } else {
    text += Sprintf("%-12s %10s %14s %14s\n", "protocol", "ckpts", "DC overhead", "DC-disk ovh");
  }
  text += "----------------------------------------------------------------\n";
  return text;
}

// One Fig. 8 protocol row for the suite: runs the cell and renders the
// standard console line and JSON row. `seed` is the bench's built-in seed
// (--seed still overrides through the context).
inline void AddFig8Row(Suite& suite, const std::string& workload, const std::string& protocol,
                       int scale, uint64_t seed, bool fps_mode) {
  suite.AddRow([workload, protocol, scale, seed, fps_mode](RowContext& ctx) {
    const int64_t batch = ctx.options->batch;
    Fig8Cell cell = RunFig8Cell(workload, protocol, scale, ctx.SeedOr(seed), ctx.pool,
                                ctx.trace_path, ctx.options->audit, batch, ctx.timeseries_path);
    RowResult result;
    if (fps_mode) {
      result.console = Sprintf("%-12s %10.0f %11.1f fps %11.1f fps\n", protocol.c_str(),
                               cell.ckps_per_sec, cell.rio_fps, cell.disk_fps);
    } else {
      result.console = Sprintf("%-12s %10lld %13.1f%% %13.1f%%\n", protocol.c_str(),
                               static_cast<long long>(cell.checkpoints), cell.rio_overhead_pct,
                               cell.disk_overhead_pct);
    }
    result.json.push_back(Fig8RowJson(workload, protocol, scale, cell, batch));
    return result;
  });
}

}  // namespace ftx_bench

#endif  // FTX_BENCH_BENCH_UTIL_H_
