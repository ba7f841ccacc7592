// Figures 3 and 4: the protocol space.
//
// Plots every protocol's position on the two axes (effort to
// identify/convert non-determinism vs effort to commit only visible
// events), prints the Fig. 4 design-variable trends derived from each
// position, and then validates the space empirically: the same reference
// workload is run under every protocol and the measured commit
// frequency must fall with radial distance from the origin — the paper's
// headline observation about the space.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/protocol/protocol_space.h"
#include "src/protocol/script_replay.h"
#include "src/statemachine/optimal_commits.h"
#include "src/statemachine/random_model.h"

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options = ftx_bench::ParseBenchOptions(argc, argv);

  ftx_bench::Suite suite("fig3_protocol_space", options);

  suite.Text(ftx_bench::Sprintf("%s\n", ftx_proto::RenderProtocolSpaceAscii().c_str()));

  suite.Text(ftx_bench::Sprintf(
      "Fig. 4 design variables by position:\n"
      "%-26s %6s %6s %12s %10s %10s\n"
      "--------------------------------------------------------------------------\n",
      "protocol", "x", "y", "commit-freq", "recov-cost", "prop-surv"));
  for (const ftx_proto::ProtocolRule& rule : ftx_proto::ProtocolRules()) {
    suite.AddRow([rule](ftx_bench::RowContext&) {
      auto vars = ftx_proto::DeriveDesignVariables(rule.point);
      const std::string name(rule.name);
      ftx_bench::RowResult result;
      result.console = ftx_bench::Sprintf(
          "%-26s %6.2f %6.2f %12.2f %10.2f %10.2f\n", name.c_str(), rule.point.nd_effort,
          rule.point.visible_effort, vars.relative_commit_frequency, vars.recovery_constraint,
          vars.propagation_survival);
      ftx_obs::Json json_row = ftx_obs::Json::Object();
      json_row.Set("section", "design_variables");
      json_row.Set("protocol", name);
      json_row.Set("nd_effort", rule.point.nd_effort);
      json_row.Set("visible_effort", rule.point.visible_effort);
      json_row.Set("commit_frequency", vars.relative_commit_frequency);
      json_row.Set("recovery_constraint", vars.recovery_constraint);
      json_row.Set("propagation_survival", vars.propagation_survival);
      result.json.push_back(std::move(json_row));
      return result;
    });
  }

  // Empirical check on the reference workload (magic: has every event
  // class). The 2PC/coordinated points degrade to local commits on a
  // single-process workload, which is itself instructive. Radius is a
  // static property of each entry, so the rows are declared (and therefore
  // rendered) in radial order.
  suite.Text(ftx_bench::Sprintf(
      "\nMeasured commits on the magic workload (radial distance should "
      "reduce commits):\n"
      "%-18s %8s %10s\n",
      "protocol", "radius", "ckpts"));
  std::vector<ftx_proto::ProtocolRule> by_radius(ftx_proto::ProtocolRules().begin(),
                                                 ftx_proto::ProtocolRules().end());
  auto radius_of = [](const ftx_proto::ProtocolRule& rule) {
    return std::sqrt(rule.point.nd_effort * rule.point.nd_effort +
                     rule.point.visible_effort * rule.point.visible_effort);
  };
  std::sort(by_radius.begin(), by_radius.end(),
            [&radius_of](const auto& a, const auto& b) { return radius_of(a) < radius_of(b); });
  for (const auto& rule : by_radius) {
    double radius = radius_of(rule);
    suite.AddRow([name = std::string(rule.name), radius](ftx_bench::RowContext& ctx) {
      ftx::RunSpec spec;
      spec.workload = "magic";
      spec.scale = 60;
      spec.seed = ctx.SeedOr(7);
      spec.protocol = name;
      ftx::RunOutput out = ftx::RunExperiment(spec);
      ftx_bench::RowResult result;
      result.console = ftx_bench::Sprintf("%-18s %8.2f %10lld\n", name.c_str(), radius,
                                          static_cast<long long>(out.checkpoints));
      ftx_obs::Json json_row = ftx_obs::Json::Object();
      json_row.Set("section", "measured_commits");
      json_row.Set("workload", "magic");
      json_row.Set("protocol", name);
      json_row.Set("radius", radius);
      json_row.Set("checkpoints", out.checkpoints);
      result.json.push_back(std::move(json_row));
      return result;
    });
  }

  // Fig. 4's third trend, measured: recovery time (the run-time expansion a
  // mid-run failure causes) grows with distance along the non-determinism
  // axis, because further-out protocols roll back further and replay more.
  suite.Text(ftx_bench::Sprintf(
      "\nMeasured failure expansion (postgres, one stop failure at "
      "t=120ms):\n"
      "%-18s %8s %16s\n",
      "protocol", "x", "replay cost"));
  for (const char* name : {"cpvs", "cbndvs", "cand", "sbl", "cand-log", "targon32",
                           "optimistic-log", "hypervisor"}) {
    suite.AddRow([name](ftx_bench::RowContext& ctx) {
      ftx::RunSpec spec;
      spec.workload = "postgres";
      spec.scale = 400;
      spec.seed = ctx.SeedOr(9);
      spec.protocol = name;

      ftx::RunOutput clean = ftx::RunExperiment(spec);
      auto computation = ftx::BuildComputation(spec);
      computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(120),
                                       ftx::Milliseconds(1));
      auto failed = computation->Run();
      ftx::Duration expansion = (failed.end_time - ftx::TimePoint()) - clean.elapsed;
      double x = ftx_proto::FindProtocolRule(name)->point.nd_effort;
      ftx_bench::RowResult result;
      result.console =
          ftx_bench::Sprintf("%-18s %8.2f %16s\n", name, x, expansion.ToString().c_str());
      ftx_obs::Json json_row = ftx_obs::Json::Object();
      json_row.Set("section", "failure_expansion");
      json_row.Set("workload", "postgres");
      json_row.Set("protocol", name);
      json_row.Set("nd_effort", x);
      json_row.Set("expansion_ns", expansion.nanos());
      result.json.push_back(std::move(json_row));
      return result;
    });
  }
  suite.Text(
      "\nHypervisor never commits: one failure replays the entire "
      "history. CPVS\nreplays at most one event. Fig. 4's "
      "recovery-time axis, measured.\n");

  // The floor of the protocol space: with hindsight, how few commits would
  // Save-work have needed? Averaged over random 3-process computations.
  // The shared scripts are built once here and read (never written) by the
  // replay rows below.
  suite.Text(ftx_bench::Sprintf(
      "\nOnline protocols vs the offline (hindsight) floor, averaged "
      "over 20 random\n3-process computations of 120 events:\n"
      "%-18s %14s\n",
      "protocol", "avg commits"));
  const int kTrials = 20;
  static std::vector<std::vector<ftx_sm::ScriptedEvent>> scripts;
  double floor_sum = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    ftx::Rng rng(1000 + static_cast<uint64_t>(trial));
    ftx_sm::RandomTraceOptions trace_options;
    trace_options.num_processes = 3;
    trace_options.events_per_process = 40;
    scripts.push_back(ftx_sm::MakeRandomScript(&rng, trace_options));
    ftx_sm::Trace raw(trace_options.num_processes);
    for (const auto& ev : scripts.back()) {
      raw.Append(ev.process, ev.kind, ev.message_id, ev.logged);
    }
    floor_sum += static_cast<double>(ftx_sm::ComputeOfflineCommits(raw).total_commits);
  }
  for (const char* name : {"commit-all", "cand", "cpvs", "cbndvs", "cand-log", "cbndvs-log",
                           "cpv-2pc", "cbndv-2pc", "coordinated-ckpt"}) {
    suite.AddRow([name](ftx_bench::RowContext&) {
      double sum = 0;
      for (const auto& script : scripts) {
        sum += static_cast<double>(ftx_proto::ReplayScript(script, 3, name).total_commits);
      }
      ftx_bench::RowResult result;
      result.console = ftx_bench::Sprintf("%-18s %14.1f\n", name, sum / kTrials);
      ftx_obs::Json json_row = ftx_obs::Json::Object();
      json_row.Set("section", "offline_floor");
      json_row.Set("protocol", name);
      json_row.Set("avg_commits", sum / kTrials);
      result.json.push_back(std::move(json_row));
      return result;
    });
  }
  suite.AddRow([floor_sum](ftx_bench::RowContext&) {
    ftx_bench::RowResult result;
    result.console = ftx_bench::Sprintf("%-18s %14.1f   <- floor for commit-ONLY strategies\n",
                                        "offline floor", floor_sum / kTrials);
    ftx_obs::Json json_row = ftx_obs::Json::Object();
    json_row.Set("section", "offline_floor");
    json_row.Set("protocol", "offline-floor");
    json_row.Set("avg_commits", floor_sum / kTrials);
    result.json.push_back(std::move(json_row));
    return result;
  });
  suite.Text(
      "\nThe -log protocols dip below the commit floor because logging is "
      "an escape\nhatch the floor does not use: rendering ND events "
      "deterministic removes the\nSave-work obligation instead of paying "
      "it — the x axis of the space in one row.\n");
  return suite.Run();
}
