// ftx::obs::tsdb — a deterministic simulated-time time-series engine.
//
// Every observability layer before this one (results JSON, metrics
// registry, causal audit, MTTR profiler) reports end-of-run aggregates.
// The tsdb adds the time axis: registered counters and gauges are sampled
// on a fixed simulated-time cadence into a bounded ring of samples, so a
// run can show *when* a fault storm dented throughput, how the
// Dwork-Halpern-Waarts efficiency curve evolved, and how long the fleet
// stayed degraded — not just where it ended.
//
// Determinism contract (the property every test battery pins):
//
//  * Sampling is keyed to SIMULATED time only. Computation::Run drives the
//    engine: before it executes each event, it passes the event's time t
//    (Simulator::NextEventTime) to OnSimTime, and every cadence boundary
//    B < t that has not been sampled yet is emitted with the CURRENT
//    state — which at that moment is exactly the state after all events at
//    time <= B, because no event in (prev_event_time, t) exists. A sample
//    at boundary B therefore means "state after every event at or before
//    B", a pure function of the event sequence.
//  * The simulator's merge front replays the identical global event order
//    for any shard count, and trial parallelism (--jobs) never enters a
//    single computation, so the sampled series — and the exported JSONL —
//    are byte-identical for any --jobs/--shards combination, provided no
//    layout-dependent column (shard count, cross-shard traffic)
//    is registered.
//  * Probes only read state. Sampling costs one null check per event when
//    no tsdb is installed and never schedules simulator work, charges
//    simulated time, or perturbs the RNG: all simulated quantities are
//    byte-identical with telemetry on or off (CTest-asserted).
//
// Export: JSON Lines. Line 1 is a header object carrying the schema name,
// cadence, column table (name + kind, ordered by MetricNameLess so the
// order is identical on every platform), and caller meta; each following
// line is one sample as a compact array [t_ns, v0, v1, ...]. Counters are
// emitted as integers, gauges as JSON numbers with the same shortest-
// round-trip formatting as every other ftx_obs emitter.

#ifndef FTX_SRC_OBS_TSDB_TSDB_H_
#define FTX_SRC_OBS_TSDB_TSDB_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/obs/json.h"

namespace ftx_obs {

// The ftx.timeseries JSONL schema version (scripts/check_bench_json.py
// --timeseries validates it).
inline constexpr int kTimeSeriesSchemaVersion = 1;

struct TimeSeriesOptions {
  // Simulated nanoseconds between samples. A sample lands at every multiple
  // of the cadence the run's event times cross (boundary 0 is the state
  // after initialization events at t=0).
  int64_t cadence_ns = 1000000;  // 1 ms of simulated time
  // Bounded ring: at most this many samples are retained; older samples
  // are evicted (totals keep counting so the export can say how many were
  // dropped). Eviction depends only on sample count — still deterministic.
  int64_t capacity = 65536;
};

class TimeSeriesDb {
 public:
  explicit TimeSeriesDb(TimeSeriesOptions options = {});

  TimeSeriesDb(const TimeSeriesDb&) = delete;
  TimeSeriesDb& operator=(const TimeSeriesDb&) = delete;

  const TimeSeriesOptions& options() const { return options_; }

  // --- registration (before the first sample) ---

  // Counters are int64 and expected nondecreasing (the checker gates this);
  // gauges are doubles free to move both ways. Registering after the first
  // sample, or registering a duplicate name, aborts. Columns are ordered by
  // MetricNameLess at seal time regardless of registration order.
  void AddCounter(std::string name, std::function<int64_t()> probe);
  void AddGauge(std::string name, std::function<double()> probe);

  // Header metadata ("protocol", "workload", ...). Keep layout knobs
  // (shards, jobs) out of it — the determinism battery byte-compares the
  // export across those.
  void SetMeta(std::string key, Json value);

  // --- sampling (driven by Computation::Run) ---

  // The next event will execute at `next_event_ns`.
  // Emits one sample for every unsampled cadence boundary B < next_event_ns
  // (the current state is exactly the state as of each such B). The first
  // call seals the column set.
  void OnSimTime(int64_t next_event_ns);

  // Emits the remaining boundaries <= end_ns, plus a final closing sample
  // at end_ns itself when the last boundary fell short of it, so the series
  // always ends with the end-of-run state (the sample the checker compares
  // against the end-of-run report). Idempotent for the same end_ns.
  void Finalize(int64_t end_ns);

  // --- inspection / export ---

  int64_t samples_taken() const { return samples_taken_; }
  int64_t samples_retained() const;
  int64_t samples_dropped() const { return samples_taken_ - samples_retained(); }
  size_t num_columns() const { return columns_.size(); }

  struct Sample {
    int64_t t_ns = 0;
    std::vector<int64_t> counters;  // parallel to counter columns
    std::vector<double> gauges;     // parallel to gauge columns
  };

  // Oldest-to-newest walk over the retained ring.
  void ForEachSample(const std::function<void(const Sample&)>& fn) const;

  // The full JSONL document (header line + one line per retained sample).
  std::string ToJsonl() const;
  ftx::Status WriteJsonl(const std::string& path) const;

 private:
  struct Column {
    std::string name;
    bool is_counter = true;
    int slot = 0;  // index into Sample::counters or Sample::gauges
    std::function<int64_t()> counter_probe;
    std::function<double()> gauge_probe;
  };

  void Seal();            // orders columns, assigns slots
  void TakeSample(int64_t t_ns);

  TimeSeriesOptions options_;
  std::vector<Column> columns_;
  std::vector<std::pair<std::string, Json>> meta_;
  bool sealed_ = false;
  int num_counters_ = 0;
  int num_gauges_ = 0;
  int64_t next_boundary_ns_ = 0;
  int64_t samples_taken_ = 0;
  int64_t last_sample_ns_ = -1;
  bool finalized_ = false;
  std::vector<Sample> ring_;  // slot = sample_index % capacity
};

}  // namespace ftx_obs

#endif  // FTX_SRC_OBS_TSDB_TSDB_H_
