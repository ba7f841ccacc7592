#include "src/core/experiment.h"

#include <algorithm>
#include <utility>

#include "src/apps/workloads.h"
#include "src/apps/xpilot.h"
#include "src/common/check.h"

namespace ftx {

std::unique_ptr<Computation> BuildComputation(const RunSpec& spec) {
  int scale = spec.scale > 0 ? spec.scale
                             : ftx_apps::DefaultScale(spec.workload, /*full_scale=*/false);
  ftx_apps::WorkloadSetup setup = ftx_apps::MakeWorkload(spec.workload, scale, spec.seed);

  ComputationOptions options;
  options.seed = spec.seed;
  options.protocol = spec.protocol;
  options.store = spec.store;
  options.mode = spec.mode;
  options.trace_path = spec.trace_path;
  options.timeseries_path = spec.timeseries_path;
  options.audit = spec.audit;
  if (spec.tweak_options) {
    spec.tweak_options(&options);
  }

  auto computation = std::make_unique<Computation>(options, std::move(setup.apps));
  for (int pid = 0; pid < computation->num_processes(); ++pid) {
    if (pid < static_cast<int>(setup.scripts.size()) &&
        !setup.scripts[static_cast<size_t>(pid)].empty()) {
      computation->SetInputScript(pid, setup.scripts[static_cast<size_t>(pid)]);
    }
  }
  return computation;
}

RunOutput Collect(Computation& computation, const ComputationResult& result) {
  RunOutput output;
  output.result = result;
  output.outputs = computation.recorder();
  output.elapsed = result.end_time - TimePoint();
  output.metrics = computation.metrics().Snapshot();
  if (computation.audit() != nullptr) {
    output.audited = true;
    output.audit_violations = computation.audit()->violations();
    output.audit_report = computation.audit()->ToJson();
  }
  for (const auto& stats : result.per_process) {
    output.checkpoints += stats.commits;
    output.max_process_commits = std::max(output.max_process_commits, stats.commits);
  }
  // xpilot: sustained frame rate of the slowest client.
  if (computation.num_processes() > 1 &&
      computation.app(0).name() == std::string_view("xpilot-server")) {
    double min_fps = 1e9;
    for (int pid = 1; pid < computation.num_processes(); ++pid) {
      int64_t frames = ftx_apps::XpilotClient::FramesRendered(computation.runtime(pid));
      TimePoint done = result.done_times[static_cast<size_t>(pid)];
      double seconds = (done == TimePoint() ? output.elapsed : done - TimePoint()).seconds();
      if (seconds > 0) {
        min_fps = std::min(min_fps, static_cast<double>(frames) / seconds);
      }
    }
    output.min_client_fps = min_fps >= 1e9 ? 0.0 : min_fps;
  }
  return output;
}

RunOutput RunExperiment(const RunSpec& spec) {
  std::unique_ptr<Computation> computation = BuildComputation(spec);
  ComputationResult result = computation->Run();
  return Collect(*computation, result);
}

OverheadRow MeasureOverhead(const RunSpec& spec) { return MeasureOverhead(spec, nullptr); }

OverheadRow MeasureOverhead(const RunSpec& spec, TrialPool* pool) {
  RunSpec baseline_spec = spec;
  baseline_spec.mode = ftx_dc::RuntimeMode::kBaseline;
  // Only the recoverable run — the one the figures measure — writes the
  // trace. (Serially the baseline's file was immediately overwritten; in
  // parallel the two runs would race on it.)
  baseline_spec.trace_path.clear();
  baseline_spec.timeseries_path.clear();  // recoverable run owns the telemetry file too
  baseline_spec.audit = false;  // nothing to audit without a trace

  RunSpec recoverable_spec = spec;
  recoverable_spec.mode = ftx_dc::RuntimeMode::kRecoverable;

  RunOutput baseline;
  RunOutput recoverable;
  auto run_half = [&](int64_t i) {
    if (i == 0) {
      baseline = RunExperiment(baseline_spec);
    } else {
      recoverable = RunExperiment(recoverable_spec);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(2, run_half);
  } else {
    run_half(0);
    run_half(1);
  }

  OverheadRow row;
  row.workload = spec.workload;
  row.protocol = spec.protocol;
  row.store = spec.store;
  row.checkpoints = recoverable.checkpoints;
  row.baseline = baseline.elapsed;
  row.recoverable = recoverable.elapsed;
  if (recoverable.elapsed.seconds() > 0) {
    row.checkpoints_per_second =
        static_cast<double>(recoverable.max_process_commits) / recoverable.elapsed.seconds();
  }
  if (baseline.elapsed.nanos() > 0) {
    row.overhead_percent = 100.0 *
                           static_cast<double>((recoverable.elapsed - baseline.elapsed).nanos()) /
                           static_cast<double>(baseline.elapsed.nanos());
  }
  row.baseline_fps = baseline.min_client_fps;
  row.recoverable_fps = recoverable.min_client_fps;
  row.recoverable_metrics = std::move(recoverable.metrics);
  row.audited = recoverable.audited;
  row.audit_violations = recoverable.audit_violations;
  row.audit_report = std::move(recoverable.audit_report);
  return row;
}

RecoveryCheck VerifyConsistentRecovery(
    const RunSpec& spec, const std::function<void(Computation&)>& schedule_failures) {
  // Reference: the same workload, failure-free, in baseline mode (identical
  // inputs → identical visible stream).
  RunSpec reference_spec = spec;
  reference_spec.mode = ftx_dc::RuntimeMode::kBaseline;
  RunOutput reference = RunExperiment(reference_spec);

  RunSpec failed_spec = spec;
  failed_spec.mode = ftx_dc::RuntimeMode::kRecoverable;
  std::unique_ptr<Computation> computation = BuildComputation(failed_spec);
  schedule_failures(*computation);
  ComputationResult result = computation->Run();
  RunOutput recovered = Collect(*computation, result);

  ftx_rec::ConsistencyResult consistency = ftx_rec::CheckConsistentRecovery(
      reference.outputs, recovered.outputs, computation->num_processes(),
      /*require_complete=*/true);

  RecoveryCheck check;
  check.consistent = consistency.consistent;
  check.completed = result.all_done;
  check.duplicates_tolerated = consistency.duplicates_tolerated;
  check.rollbacks = result.total_rollbacks;
  check.diagnostic = consistency.diagnostic;
  return check;
}

}  // namespace ftx
