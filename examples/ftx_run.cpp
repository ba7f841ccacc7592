// ftx_run: command-line driver for the failure-transparency library.
//
// Run any workload under any protocol and store, optionally injecting stop
// failures, and get a full report: commits, overhead vs. the unrecoverable
// baseline, rollbacks, recovery time, Save-work verification, and output
// consistency against a failure-free reference.
//
//   ftx_run [--workload nvi|magic|xpilot|treadmarks|postgres]
//           [--protocol <name>] [--store rio|disk|volatile]
//           [--scale N] [--seed N]
//           [--fail-at-ms T]... [--fail-pid P]
//           [--check-save-work] [--list-protocols]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/workloads.h"
#include "src/common/flag_value.h"
#include "src/core/computation.h"
#include "src/core/experiment.h"
#include "src/protocol/protocol.h"
#include "src/recovery/consistency.h"
#include "src/statemachine/invariants.h"
#include "src/statemachine/trace_format.h"

namespace {

struct Args {
  std::string workload = "nvi";
  std::string protocol = "cpvs";
  std::string store = "rio";
  int scale = 0;
  uint64_t seed = 1;
  std::vector<int64_t> fail_at_ms;
  int fail_pid = 0;
  bool check_save_work = false;
  bool list_protocols = false;
  bool summarize_trace = false;
  int64_t dump_trace = 0;  // first N non-internal events per process
  std::string trace_path;    // Chrome trace_event JSON of the recoverable run
  std::string metrics_path;  // metrics-registry snapshot as JSON
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args->workload = next();
    } else if (flag == "--protocol") {
      args->protocol = next();
    } else if (flag == "--store") {
      args->store = next();
    } else if (flag == "--scale") {
      args->scale = ftx::ParseIntegerFlag<int>("--scale", next());
    } else if (flag == "--seed") {
      args->seed = ftx::ParseIntegerFlag<uint64_t>("--seed", next());
    } else if (flag == "--fail-at-ms") {
      args->fail_at_ms.push_back(ftx::ParseIntegerFlag<int64_t>("--fail-at-ms", next()));
    } else if (flag == "--fail-pid") {
      args->fail_pid = ftx::ParseIntegerFlag<int>("--fail-pid", next());
    } else if (flag == "--check-save-work") {
      args->check_save_work = true;
    } else if (flag == "--list-protocols") {
      args->list_protocols = true;
    } else if (flag == "--summarize-trace") {
      args->summarize_trace = true;
    } else if (flag == "--dump-trace") {
      args->dump_trace = ftx::ParseIntegerFlag<int64_t>("--dump-trace", next());
    } else if (flag == "--trace") {
      args->trace_path = next();
    } else if (flag == "--metrics") {
      args->metrics_path = next();
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// True when `value` is one of `valid`; otherwise names the valid values on
// stderr.
bool OneOf(const char* flag, const std::string& value, const std::vector<std::string>& valid) {
  if (std::find(valid.begin(), valid.end(), value) != valid.end()) {
    return true;
  }
  std::string list;
  for (const std::string& v : valid) {
    list += list.empty() ? v : ", " + v;
  }
  std::fprintf(stderr, "unknown %s: %s (one of: %s)\n", flag, value.c_str(), list.c_str());
  return false;
}

void Usage() {
  std::printf(
      "usage: ftx_run [--workload nvi|magic|xpilot|treadmarks|postgres]\n"
      "               [--protocol <name>] [--store rio|disk|volatile]\n"
      "               [--scale N] [--seed N]\n"
      "               [--fail-at-ms T]... [--fail-pid P]\n"
      "               [--check-save-work] [--list-protocols]\n"
      "               [--summarize-trace] [--dump-trace N]\n"
      "               [--trace FILE.json] [--metrics FILE.json]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    Usage();
    return 2;
  }

  if (args.list_protocols) {
    std::printf("%-18s %6s %6s  %s\n", "protocol", "x", "y", "description");
    for (const ftx_proto::ProtocolRule& rule : ftx_proto::ProtocolRules()) {
      std::printf("%-18s %6.2f %6.2f  %s\n", std::string(rule.name).c_str(),
                  rule.point.nd_effort, rule.point.visible_effort,
                  std::string(rule.notes).c_str());
    }
    return 0;
  }

  std::vector<std::string> protocols;
  for (const ftx_proto::ProtocolRule& rule : ftx_proto::ProtocolRules()) {
    protocols.emplace_back(rule.name);
  }
  if (!OneOf("--workload", args.workload, ftx_apps::WorkloadNames()) ||
      !OneOf("--protocol", args.protocol, protocols) ||
      !OneOf("--store", args.store, {"rio", "disk", "volatile"})) {
    return 2;
  }

  ftx::RunSpec spec;
  spec.workload = args.workload;
  spec.protocol = args.protocol;
  spec.scale = args.scale;
  spec.seed = args.seed;
  spec.store = args.store == "disk"       ? ftx::StoreKind::kDisk
               : args.store == "volatile" ? ftx::StoreKind::kVolatileMemory
                                          : ftx::StoreKind::kRio;

  // Baseline (unrecoverable) run: reference output + reference time.
  ftx::RunSpec baseline_spec = spec;
  baseline_spec.mode = ftx_dc::RuntimeMode::kBaseline;
  ftx::RunOutput baseline = ftx::RunExperiment(baseline_spec);

  // The recoverable run with the requested failures.
  spec.trace_path = args.trace_path;
  auto computation = ftx::BuildComputation(spec);
  if (args.fail_pid < 0 || args.fail_pid >= computation->num_processes()) {
    std::fprintf(stderr, "--fail-pid %d: %s runs processes 0..%d\n", args.fail_pid,
                 args.workload.c_str(), computation->num_processes() - 1);
    return 2;
  }
  for (int64_t at_ms : args.fail_at_ms) {
    computation->ScheduleStopFailure(args.fail_pid, ftx::TimePoint() + ftx::Milliseconds(at_ms));
  }
  ftx::ComputationResult result = computation->Run();
  ftx::RunOutput run = ftx::Collect(*computation, result);

  std::printf("workload   : %s (scale %d, seed %llu, %d process%s)\n", args.workload.c_str(),
              spec.scale > 0 ? spec.scale : ftx_apps::DefaultScale(args.workload, false),
              static_cast<unsigned long long>(args.seed), computation->num_processes(),
              computation->num_processes() == 1 ? "" : "es");
  std::printf("protocol   : %s on %s\n", args.protocol.c_str(), args.store.c_str());
  std::printf("completed  : %s\n", result.all_done ? "yes" : "NO");
  std::printf("sim time   : %s (baseline %s, overhead %+.2f%%)\n",
              run.elapsed.ToString().c_str(), baseline.elapsed.ToString().c_str(),
              baseline.elapsed.nanos() > 0
                  ? 100.0 * static_cast<double>((run.elapsed - baseline.elapsed).nanos()) /
                        static_cast<double>(baseline.elapsed.nanos())
                  : 0.0);
  std::printf("commits    : %lld total", static_cast<long long>(run.checkpoints));
  if (run.elapsed.seconds() > 0) {
    std::printf(" (%.1f/s peak process)",
                static_cast<double>(run.max_process_commits) / run.elapsed.seconds());
  }
  std::printf("\n");
  int64_t logged = 0;
  ftx::Duration recovery_time;
  for (const auto& stats : result.per_process) {
    logged += stats.logged_events;
    recovery_time += stats.recovery_time;
  }
  std::printf("logged ND  : %lld events\n", static_cast<long long>(logged));
  std::printf("rollbacks  : %lld (recovery latency %s)\n",
              static_cast<long long>(result.total_rollbacks), recovery_time.ToString().c_str());
  if (run.min_client_fps > 0) {
    std::printf("frame rate : %.1f fps (slowest client)\n", run.min_client_fps);
  }

  if (!args.fail_at_ms.empty() && args.workload != "xpilot") {
    ftx_rec::ConsistencyResult consistency = ftx_rec::CheckConsistentRecovery(
        baseline.outputs, run.outputs, computation->num_processes());
    std::printf("consistency: %s (%d duplicates tolerated)\n",
                consistency.consistent ? "CONSISTENT" : "INCONSISTENT",
                consistency.duplicates_tolerated);
    if (!consistency.consistent) {
      std::printf("             %s\n", consistency.diagnostic.c_str());
    }
  }

  if (args.check_save_work) {
    ftx_sm::SaveWorkReport report = ftx_sm::CheckSaveWork(computation->trace());
    std::printf("save-work  : %s", report.ok() ? "UPHELD" : "VIOLATED");
    if (!report.ok()) {
      std::printf(" (%zu violations; first: %s)", report.violations.size(),
                  report.violations[0].ToString(computation->trace()).c_str());
    }
    std::printf("\n");
  }
  if (args.summarize_trace) {
    std::printf("\ntrace summary:\n%s", ftx_sm::SummarizeTrace(computation->trace()).c_str());
  }
  if (!args.metrics_path.empty()) {
    std::FILE* f = std::fopen(args.metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n", args.metrics_path.c_str());
    } else {
      std::string json = computation->metrics().ToJsonString();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("metrics    : wrote %zu entries to %s\n",
                  computation->metrics().Snapshot().entries.size(), args.metrics_path.c_str());
    }
  }
  if (args.dump_trace > 0) {
    ftx_sm::TraceFormatOptions format;
    format.include_internal = false;
    format.max_events = args.dump_trace;
    std::printf("\ntrace (first %lld non-internal events):\n%s",
                static_cast<long long>(args.dump_trace),
                ftx_sm::FormatTrace(computation->trace(), format).c_str());
  }
  return result.all_done ? 0 : 1;
}
