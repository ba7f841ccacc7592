// One-call experiment drivers used by the benches, examples, and
// integration tests: run a named workload under a protocol/store
// combination, measure commits and overhead against the unrecoverable
// baseline, and verify consistent recovery across injected failures.

#ifndef FTX_SRC_CORE_EXPERIMENT_H_
#define FTX_SRC_CORE_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>

#include "src/core/computation.h"
#include "src/core/parallel.h"
#include "src/recovery/consistency.h"

namespace ftx {

struct RunSpec {
  std::string workload = "nvi";
  int scale = 0;  // 0 = DefaultScale(workload, /*full_scale=*/false)
  uint64_t seed = 1;
  std::string protocol = "cpvs";
  StoreKind store = StoreKind::kRio;
  ftx_dc::RuntimeMode mode = ftx_dc::RuntimeMode::kRecoverable;
  // Non-empty: enable simulated-timeline tracing and write a Chrome
  // trace_event JSON file here when the run finishes.
  std::string trace_path;
  // Non-empty: enable sim-time telemetry sampling (src/obs/tsdb/) and write
  // the ftx.timeseries JSONL here when the run finishes. Like trace_path,
  // MeasureOverhead gives this to the recoverable run only.
  std::string timeseries_path;
  // Live causal audit (recoverable runs only; see ComputationOptions::audit).
  bool audit = false;
  // Optional hook to adjust computation options (failure schedules are
  // installed by the caller on the returned computation instead).
  std::function<void(ComputationOptions*)> tweak_options;
};

// A completed run with everything the measurements need.
struct RunOutput {
  ComputationResult result;
  ftx_rec::OutputRecorder outputs;
  Duration elapsed;
  int64_t checkpoints = 0;      // total commits across processes
  int64_t max_process_commits = 0;
  double min_client_fps = 0.0;  // xpilot only: slowest client's frame rate
  // Every instrument the computation's registry held at the end of the run
  // (simulator/network/kernel activity, per-process runtime stats, disk and
  // redo-log I/O). Serializes via MetricsSnapshot::ToJson.
  ftx_obs::MetricsSnapshot metrics;
  // When the run was audited: the causal-audit report (CausalAudit::ToJson)
  // and its Save-work violation count; audit_report is a JSON null
  // otherwise.
  bool audited = false;
  int64_t audit_violations = 0;
  ftx_obs::Json audit_report;
};

// Builds the computation for a spec (callers may schedule failures before
// running).
std::unique_ptr<Computation> BuildComputation(const RunSpec& spec);

// Extracts measurements from a finished computation.
RunOutput Collect(Computation& computation, const ComputationResult& result);

// Builds + runs in one call.
RunOutput RunExperiment(const RunSpec& spec);

// Fig. 8 row: run the baseline and the recoverable version, compute
// overhead.
struct OverheadRow {
  std::string workload;
  std::string protocol;
  StoreKind store = StoreKind::kRio;
  int64_t checkpoints = 0;
  double checkpoints_per_second = 0.0;
  Duration baseline;
  Duration recoverable;
  double overhead_percent = 0.0;
  double baseline_fps = 0.0;     // xpilot
  double recoverable_fps = 0.0;  // xpilot
  // Snapshot of the recoverable run's registry (the run the figures
  // measure); carried into the per-row "metrics" object of --json output.
  ftx_obs::MetricsSnapshot recoverable_metrics;
  // Causal audit of the recoverable run when spec.audit was set (the
  // baseline half is never audited — it has no trace).
  bool audited = false;
  int64_t audit_violations = 0;
  ftx_obs::Json audit_report;
};
OverheadRow MeasureOverhead(const RunSpec& spec);

// Same measurement with the baseline and recoverable runs fanned across
// `pool` (they are independent simulations). The baseline run never writes a
// trace — only the recoverable run, the one the figures measure, honours
// spec.trace_path — so the emitted row and trace are identical to the serial
// overload's for any pool size. pool == nullptr falls back to serial.
OverheadRow MeasureOverhead(const RunSpec& spec, TrialPool* pool);

// Runs the workload twice — failure-free baseline as the reference, then
// the recoverable version with `schedule_failures` applied — and checks
// consistent recovery of the visible output.
struct RecoveryCheck {
  bool consistent = false;
  bool completed = false;
  int duplicates_tolerated = 0;
  int64_t rollbacks = 0;
  std::string diagnostic;
};
RecoveryCheck VerifyConsistentRecovery(
    const RunSpec& spec, const std::function<void(Computation&)>& schedule_failures);

}  // namespace ftx

#endif  // FTX_SRC_CORE_EXPERIMENT_H_
