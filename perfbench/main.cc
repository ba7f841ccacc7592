// ftx_perfbench: runs one benchmark workload and prints its metrics.
//
//   ftx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans-out PATH]
//   ftx_perfbench --host-meta            host/build description (JSON)
//
// Untraced (--trace 0): whole iterations (set-up + timed phase), each in a
// child process of its own, until S seconds have passed, at least four;
// reports the end-to-end metrics as medians over the iterations.
//
// Traced (--trace 1): rounds of one untraced and one traced iteration
// (fleet: plus one without the critical-path tracker) until S seconds have
// passed. The traced iteration decorates every app, proxies
// every runtime call, and activates the library's existing ftx_prof scopes;
// isolated replays then price the trace append and event dispatch. Reports
// the per-layer metrics (0 for, and a list of, those the workload does not
// exercise) and writes the spans to --spans-out.
//
// Either way the last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the exit code is 0 only when every run's simulated outputs are right.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/obs/prof/prof.h"

namespace {

using perfbench::Iteration;
using perfbench::IterationConfig;
using perfbench::Median;

struct Args {
  std::string workload;
  uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  bool host_meta = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ftx_perfbench: %s\n"
               "usage: ftx_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n"
               "       ftx_perfbench --host-meta\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--host-meta") {
      args.host_meta = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.trace != 0 && args.trace != 1) {
    Usage("--trace must be 0 or 1");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    Usage("--seconds must be in (0, 600]");
  }
  return args;
}

// Pins the calling thread to each CPU it may run on, in turn. On a shared
// VM the vCPUs run at very different speeds (up to 2x on the host the
// bounds were set on) and a thread can stay on one of them for a whole run;
// visiting every CPU alike keeps one run's median comparable with the next
// one's. Restores the start-up affinity when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&initial_);
    if (sched_getaffinity(0, sizeof(initial_), &initial_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &initial_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof(initial_), &initial_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinNext() {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
 private:
  cpu_set_t initial_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Largest peak resident set of the iteration processes waited for so far.
double PeakChildRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Runs one untraced iteration in a child process, so that every iteration
// starts, as a user's run of the workload does, from a fresh heap and the
// allocator's default state, not from the pages and thresholds an earlier
// iteration left behind. Null when the child fails.
std::optional<Iteration> RunInChild(perfbench::Workload& workload) {
  // What the child reports (the fields an untraced run uses).
  struct Wire {
    double setup_s, run_s;
    int64_t attempted, failed, ops, commits;
    uint64_t fingerprint;
  };
  int fds[2];
  if (pipe(fds) != 0) {
    return std::nullopt;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const Iteration it = workload.Run(IterationConfig{});
    const Wire wire{it.setup_s, it.run_s, it.attempted, it.failed,
                    it.ops,     it.commits, it.fingerprint};
    const bool sent = write(fds[1], &wire, sizeof(wire)) == static_cast<ssize_t>(sizeof(wire));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Wire wire;
  ssize_t got = -1;
  if (pid > 0) {
    do {
      got = read(fds[0], &wire, sizeof(wire));
    } while (got < 0 && errno == EINTR);
  }
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got != static_cast<ssize_t>(sizeof(wire))) {
    return std::nullopt;
  }
  Iteration it;
  it.setup_s = wire.setup_s;
  it.run_s = wire.run_s;
  it.attempted = wire.attempted;
  it.failed = wire.failed;
  it.ops = wire.ops;
  it.commits = wire.commits;
  it.fingerprint = wire.fingerprint;
  return it;
}

// Shortest representation that reads back as the same double.
std::string Num(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Fingerprint verdict over a run's iterations: every iteration agrees, and
// with the pinned value when there is one.
bool FingerprintsOk(const std::vector<Iteration>& iterations, const std::string& workload,
                    uint64_t seed) {
  const uint64_t first = iterations.front().fingerprint;
  bool ok = true;
  for (const Iteration& it : iterations) {
    ok = ok && it.fingerprint == first;
  }
  const std::optional<uint64_t> pinned = perfbench::PinnedFingerprint(workload, seed);
  std::printf("fingerprint %016llx (%s)%s\n", static_cast<unsigned long long>(first),
              pinned ? (*pinned == first ? "matches pin" : "PIN MISMATCH") : "no pin for this seed",
              ok ? "" : " ITERATIONS DISAGREE");
  return ok && (!pinned || *pinned == first);
}

int Tally(const std::vector<Iteration>& iterations, bool fingerprint_ok, int64_t* attempted,
          int64_t* failed) {
  *attempted = 0;
  *failed = 0;
  for (const Iteration& it : iterations) {
    *attempted += it.attempted;
    *failed += perfbench::FailedOps(it.attempted, it.failed, fingerprint_ok);
  }
  return fingerprint_ok && *failed == 0 ? 0 : 1;
}

int RunUntraced(const Args& args, perfbench::Workload& workload) {
  const int64_t start = perfbench::NowNs();
  const auto budget_ns = static_cast<int64_t>(args.seconds * 1e9);

  std::vector<Iteration> iterations;
  CpuRotation rotation;
  while (iterations.size() < 4 || perfbench::NowNs() - start < budget_ns) {
    if (workload.single_threaded()) {
      rotation.PinNext();  // the child inherits the affinity
    }
    std::optional<Iteration> it = RunInChild(workload);
    if (!it) {
      std::fprintf(stderr, "ftx_perfbench: iteration %zu failed to run\n", iterations.size() + 1);
      return 1;
    }
    iterations.push_back(*it);
    std::printf("iteration %zu: setup %.6f s, run %.6f s\n", iterations.size(),
                iterations.back().setup_s, iterations.back().run_s);
  }

  std::vector<double> setup;
  std::vector<double> run_s;
  std::vector<double> ops_rate;
  std::vector<double> commit_rate;
  for (const Iteration& it : iterations) {
    setup.push_back(it.setup_s);
    run_s.push_back(it.run_s);
    ops_rate.push_back(static_cast<double>(it.ops) / it.run_s);
    commit_rate.push_back(static_cast<double>(it.commits) / it.run_s);
  }
  const bool fingerprint_ok = FingerprintsOk(iterations, args.workload, args.seed);
  int64_t attempted = 0;
  int64_t failed = 0;
  const int status = Tally(iterations, fingerprint_ok, &attempted, &failed);
  std::printf("%zu iterations, attempted %lld, failed %lld\n", iterations.size(),
              static_cast<long long>(attempted), static_cast<long long>(failed));
  PrintResult(status == 0, attempted, failed,
              {{"setup_s", Median(setup), "s"},
               {"wall_s", Median(run_s), "s"},
               {"peak_rss_mb", PeakChildRssMb(), "MB"},
               {"ops_per_s", Median(ops_rate), "1/s"},
               {"commits_per_s", Median(commit_rate), "1/s"}});
  return status;
}

int RunTraced(const Args& args, perfbench::Workload& workload) {
  const int64_t start = perfbench::NowNs();
  const auto budget_ns = static_cast<int64_t>(args.seconds * 1e9);

  perfbench::SpanRecorder spans;
  ftx_prof::Profiler profiler;
  std::vector<Iteration> iterations;  // untraced and traced alike
  std::vector<double> untraced_run_s;
  std::vector<double> traced_run_s;
  std::vector<double> no_critical_path_run_s;
  std::vector<std::map<std::string, double>> layer_samples;
  CpuRotation rotation;
  do {
    if (workload.single_threaded()) {
      rotation.PinNext();  // every iteration of a round on one CPU
    }
    iterations.push_back(workload.Run(IterationConfig{}));
    untraced_run_s.push_back(iterations.back().run_s);
    if (workload.has_critical_path()) {
      IterationConfig off;
      off.critical_path = false;
      iterations.push_back(workload.Run(off));
      no_critical_path_run_s.push_back(iterations.back().run_s);
    }

    spans.set_run_id(static_cast<int>(traced_run_s.size()));
    IterationConfig traced_config;
    traced_config.spans = &spans;
    {
      ftx_prof::Activation activation(&profiler);
      iterations.push_back(workload.Run(traced_config));
    }
    traced_run_s.push_back(iterations.back().run_s);
    std::map<std::string, double> layers = iterations.back().layers;
    workload.MeasureIsolated(&layers);
    layer_samples.push_back(std::move(layers));
  } while (perfbench::NowNs() - start < budget_ns);

  // Only what the workload exercised goes into `layers`; the rest is
  // reported as 0 and named on the "not measured" line.
  std::map<std::string, double> layers;
  for (const perfbench::MetricSpec& spec : perfbench::LayerMetrics()) {
    std::vector<double> values;
    for (const auto& sample : layer_samples) {
      auto it = sample.find(spec.name);
      if (it != sample.end()) {
        values.push_back(it->second);
      }
    }
    if (!values.empty()) {
      layers[spec.name] = Median(values);
    }
  }

  // Span totals and profile leaves, per traced iteration.
  const auto traced = static_cast<double>(traced_run_s.size());
  const std::map<std::string, perfbench::SpanTotals> totals = spans.Totals();
  auto span_of = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? perfbench::SpanTotals{} : it->second;
  };
  auto self_s = [&](const char* name) { return span_of(name).self_ns / 1e9 / traced; };
  auto total_s = [&](const char* name) { return span_of(name).total_ns / 1e9 / traced; };
  auto calls = [&](const char* name) { return static_cast<double>(span_of(name).count) / traced; };
  auto from_span = [&](const std::string& metric, const char* span, double value) {
    if (totals.count(span) != 0) {
      layers[metric] = value;
    }
  };
  from_span("core.make_apps_s", "core.make_apps", total_s("core.make_apps"));
  from_span("core.construct_s", "core.construct", total_s("core.construct"));
  from_span("core.run_s", "core.run", total_s("core.run"));
  from_span("core.outside_app_s", "core.run", self_s("core.run"));
  from_span("apps.steps", perfbench::kStepSpan, calls(perfbench::kStepSpan));
  from_span("apps.step_self_s", perfbench::kStepSpan, self_s(perfbench::kStepSpan));
  if (totals.count(perfbench::kStepSpan) != 0) {
    // With the apps decorated, a call class no app made was measured as 0.
    for (const char* span : {perfbench::kPrintSpan, perfbench::kSendSpan,
                             perfbench::kReceiveSpan, perfbench::kInputSpan,
                             perfbench::kNdOtherSpan, perfbench::kComputeSpan}) {
      layers[std::string(span) + "_s"] = self_s(span);
      layers[std::string(span) + "_calls"] = calls(span);
    }
  }
  if (const std::vector<double>* prints = spans.Samples(perfbench::kPrintSpan)) {
    const perfbench::TailPercentile tail = perfbench::HighestResolvedPercentile(*prints);
    layers["checkpoint.print_us_p50"] = perfbench::Percentile(*prints, 50.0);
    layers["checkpoint.print_us_tail"] = tail.value;
    layers["checkpoint.print_tail_pct"] = tail.pct;
  }
  const perfbench::SpanTotals iteration = span_of("bench.iteration");
  layers["obs.unattributed_frac"] =
      iteration.total_ns > 0 ? static_cast<double>(iteration.self_ns) / iteration.total_ns : 0.0;
  layers["obs.trace_overhead_frac"] = Median(traced_run_s) / Median(untraced_run_s) - 1.0;

  // The library's existing host-time scopes, reported under their names
  // when they ran.
  const ftx_prof::Profile profile = profiler.Merge();
  auto from_scope = [&](const std::string& metric, const std::string& leaf) {
    if (profile.LeafCount(leaf) > 0) {
      layers[metric] = profile.LeafTotalNs(leaf) / 1e9 / traced;
    }
  };
  from_scope("checkpoint.recover_s", "recover");
  for (const char* phase : {"log_scan", "crc_validate", "page_install", "undo_rollback",
                            "kernel_replay", "nd_replay", "app_rebuild"}) {
    from_scope(std::string("checkpoint.recover.") + phase + "_s",
               std::string("recover.") + phase);
  }
  from_scope("vista.first_touch_s", "barrier.first_touch");
  from_scope("storage.commit_s", "commit");
  from_scope("storage.serialize_crc_s", "commit.serialize_crc");
  from_scope("storage.persist_s", "commit.persist");
  from_scope("storage.logimage_decode_s", "logimage.decode");
  from_scope("torture.image_check_s", "torture.image_check");

  if (workload.has_critical_path()) {
    layers["obs.critical_path_overhead_frac"] =
        Median(untraced_run_s) / Median(no_critical_path_run_s) - 1.0;
  }

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << spans.ToJson();
    if (!out) {
      std::fprintf(stderr, "ftx_perfbench: cannot write %s\n", args.spans_out.c_str());
    }
  }

  const bool fingerprint_ok = FingerprintsOk(iterations, args.workload, args.seed);
  int64_t attempted = 0;
  int64_t failed = 0;
  const int status = Tally(iterations, fingerprint_ok, &attempted, &failed);
  std::printf("%zu untraced + %zu traced iterations, self times cover %.4f of traced wall\n",
              untraced_run_s.size(), traced_run_s.size(),
              1.0 - layers["obs.unattributed_frac"]);
  std::vector<Metric> metrics;
  std::string not_measured;
  for (const perfbench::MetricSpec& spec : perfbench::LayerMetrics()) {
    auto it = layers.find(spec.name);
    if (it == layers.end()) {
      not_measured += std::string(" ") + spec.name;
    }
    metrics.push_back({spec.name, it == layers.end() ? 0.0 : it->second, spec.unit});
  }
  std::printf("not measured on %s (reported as 0):%s\n", args.workload.c_str(),
              not_measured.empty() ? " none" : not_measured.c_str());
  PrintResult(status == 0, attempted, failed, metrics);
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.host_meta) {
    std::printf("%s\n", ftx_prof::HostMetaJson().Dump().c_str());
    return 0;
  }
  if (!perfbench::ValidName(args.workload)) {
    Usage("--workload needs a name of [A-Za-z0-9_.-]");
  }
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeBenchWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  return args.trace == 1 ? RunTraced(args, *workload) : RunUntraced(args, *workload);
}
