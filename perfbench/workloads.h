// The benchmark's workloads. Each builds its inputs from the seed alone,
// runs one iteration at a time (set-up, then the timed phase), checks the
// simulated outputs, and, on traced iterations, reads the per-layer counts
// the library exposes after the run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

// The seed whose simulated fingerprints are pinned in workloads.cc.
inline constexpr uint64_t kDefaultSeed = 1;

const std::vector<std::string>& WorkloadNames();

struct IterationConfig {
  // Non-null on traced iterations: the apps are decorated and the
  // iteration's phases are recorded as spans.
  SpanRecorder* spans = nullptr;
  // Fleet only: the causal critical-path tracker (on in every measured
  // run, as in bench/fleet_faults; off only to price the tracker).
  bool critical_path = true;
};

// What one iteration measured and produced.
struct Iteration {
  double setup_s = 0.0;  // what the timed phase starts from: inputs + engine
  double run_s = 0.0;    // the timed phase
  int64_t attempted = 0;
  int64_t failed = 0;    // invariant failures (exactly-once, torture)
  int64_t ops = 0;       // useful work completed in the timed phase
  int64_t commits = 0;
  uint64_t fingerprint = 0;
  // Per-layer counts read after a traced iteration.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One full iteration.
  virtual Iteration Run(const IterationConfig& config) = 0;
  // Layer measurements made apart from the traced iteration (isolated
  // replays of its trace and event schedule, the decode-only torture
  // pass). Call after a traced Run(); adds to `layers`.
  virtual void MeasureIsolated(std::map<std::string, double>* layers) = 0;
  // True when IterationConfig::critical_path changes what runs.
  virtual bool has_critical_path() const { return false; }
  // False when an iteration starts worker threads.
  virtual bool single_threaded() const { return true; }
};

// Null for an unknown name.
std::unique_ptr<Workload> MakeBenchWorkload(std::string_view name, uint64_t seed);

// The fingerprint pinned for (workload, seed), if any.
std::optional<uint64_t> PinnedFingerprint(std::string_view workload, uint64_t seed);

// Every per-layer metric with its unit. A traced run reports each one on
// every workload; one the workload does not exercise reads 0 and is named
// on the run's "not measured" line.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& LayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
