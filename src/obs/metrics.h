// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Every measured quantity the paper's figures rest on — commit counts,
// bytes persisted, recovery latencies, simulator/network/disk activity — is
// exposed through one Registry per Computation instead of ad-hoc structs.
// Two backing modes keep the hot paths free:
//
//  * histograms allocated by the registry, observed through stable
//    pointers;
//  * counters and gauges are probes registered over existing state (a
//    closure reading a struct field), so accounting like
//    Runtime::RuntimeStats keeps its single source of truth and the
//    registry view can never diverge from it.
//
// Per-process counters are probes too, registered under a pid and a name
// ("dc.commits") and read everywhere as "p<pid>.<name>" ("p0.dc.commits").
// The registry keeps one slot per pid indexed by each name's column, so a
// registration builds no per-process string; the "p<pid>." prefix is
// spelled only when a snapshot is taken.
//
// Snapshot() materializes every instrument into an ordered, value-semantic
// MetricsSnapshot that serializes to JSON for the results emitter.
//
// Thread-safety: a Registry is deliberately unsynchronized. Its confinement
// contract — one Registry per Computation, every instrument and probe owned
// by that computation's subsystems — is what lets the parallel trial engine
// (ftx::TrialPool) run whole computations on worker threads without locks:
// no instrument is ever shared across trials, and each trial's Snapshot()
// is taken on the thread that ran it. Snapshots are value-semantic and the
// results emitter merges them in trial-index order, so emitted JSON is
// identical for any --jobs value.
//
// Ownership rule (the audited contract; see tests/parallel_test.cc for the
// TSan-covered regression): a Registry, every histogram pointer handed out
// by it, and every probe closure registered with it are confined to one
// trial — created, written, snapshotted, and destroyed on whichever pool
// thread runs that trial's computation, with the pool's ParallelFor join
// providing the ordering edge before the caller reads merged snapshots.
// Never cache an instrument pointer across trials, share a Registry between
// two computations, or register a probe over state another trial mutates;
// any of those reintroduces the data race this design exists to avoid. Code
// that genuinely needs cross-trial aggregation must merge MetricsSnapshot
// values after the join, not share instruments.
//
// Naming scheme (see docs/OBSERVABILITY.md): dot-separated lowercase paths,
// `<subsystem>.<quantity>` for computation-wide instruments
// ("sim.messages_delivered", "dc.commit_ns") and `p<pid>.` prefixes for
// per-process ones ("p0.dc.commits", "p2.disk.sync_writes",
// "p1.faults.activations").

#ifndef FTX_SRC_OBS_METRICS_H_
#define FTX_SRC_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace ftx_obs {

// The one ordering every emitted metric/series name obeys: plain unsigned
// byte-wise (ordinal) comparison, independent of the process locale. Dotted
// names ("p2.dc.commits", "sim.events_executed") therefore sort identically
// on every platform — "p10." before "p2.", '.' (0x2E) after '-' (0x2D) —
// which is what keeps Registry snapshots, bench JSON, and the tsdb JSONL
// column order byte-stable across hosts. Never substitute a collation-aware
// comparison (strcoll, std::locale) here: locales reorder punctuation and
// digits, and the golden byte-compares would see it.
struct MetricNameLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
      const unsigned char ca = static_cast<unsigned char>(a[i]);
      const unsigned char cb = static_cast<unsigned char>(b[i]);
      if (ca != cb) {
        return ca < cb;
      }
    }
    return a.size() < b.size();
  }
};

// Distribution over fixed inclusive bucket upper bounds (in the observed
// unit, typically nanoseconds of simulated time): bucket i counts values
// <= bounds[i] that no earlier bucket counted. The last implicit bucket is
// +inf. Bounds are set at creation and never change.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  void Observe(int64_t value);

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return min_; }
  int64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_); }
  const std::vector<int64_t>& bounds() const { return bounds_; }
  // bucket_counts().size() == bounds().size() + 1 (overflow bucket last).
  const std::vector<int64_t>& bucket_counts() const { return buckets_; }

  // Bucket-interpolated quantile estimate for q in [0, 1]: the continuous
  // rank q*count is located in the cumulative bucket counts and linearly
  // interpolated across the containing bucket's [lower, upper] bound range,
  // clamped to the observed [min, max] (so the first and overflow buckets
  // use the true extremes rather than -inf/+inf). Returns 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<int64_t> bounds_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

// Default latency bucket bounds: 1-2-5 decades from 1 us to 100 s, in ns.
std::vector<int64_t> DefaultLatencyBoundsNs();

// One materialized instrument value.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  int64_t counter = 0;
  double gauge = 0.0;
  // Histogram payload (empty unless kind == kHistogram).
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  double p50 = 0.0;  // bucket-interpolated summary quantiles
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<int64_t> bounds;
  std::vector<int64_t> bucket_counts;
};

// "p<pid>.<name>": the name every read sees for a per-process probe.
std::string ProcessMetricName(int pid, std::string_view name);

// Ordered, value-semantic copy of a registry's state: distinct names in
// MetricNameLess order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, MetricValue>> entries;

  const MetricValue* Find(std::string_view name) const;
  // Sum of every counter whose name ends with `.suffix` (aggregates
  // per-process instruments: TotalCounter("dc.commits") sums p*.dc.commits).
  int64_t TotalCounter(std::string_view suffix) const;

  // {"name": value, ...} with histograms as
  // {"count":..,"sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..,
  //  "bounds":[..],"buckets":[..]}. Linear in the number of entries; aborts
  // if the entries are not in strictly increasing name order.
  Json ToJson() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Owned histogram: get-or-create by name. The pointer remains valid for
  // the registry's lifetime. Re-requesting a name returns the same
  // histogram; requesting a probe's name aborts.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> bounds = DefaultLatencyBoundsNs());

  // Probe-backed instruments: the closure is evaluated at Snapshot() time.
  // The owner of the probed state must outlive every Snapshot() of the
  // registry. Registering an existing name replaces the probe.
  void RegisterCounterProbe(const std::string& name, std::function<int64_t()> probe);
  void RegisterGaugeProbe(const std::string& name, std::function<double()> probe);

  // Per-process counter probe, read as ProcessMetricName(pid, name). Stored
  // under `name` in the pid's slot. A per-process name that is also a
  // computation-wide one (RegisterCounterProbe("p0.dc.commits", ...) next
  // to RegisterCounterProbe(0, "dc.commits", ...)) aborts, whichever comes
  // first.
  void RegisterCounterProbe(int pid, std::string_view name, std::function<int64_t()> probe);

  // Contains() and size() count per-process probes under their
  // "p<pid>.<name>" names, like computation-wide instruments.
  bool Contains(std::string_view name) const;
  size_t size() const { return entries_.size() + process_probe_count_; }

  MetricsSnapshot Snapshot() const;
  // Snapshot().ToJson().Dump(indent) convenience.
  std::string ToJsonString(int indent = 2) const;

 private:
  struct Entry {
    MetricValue::Kind kind = MetricValue::Kind::kCounter;
    Histogram* histogram = nullptr;    // owned (histograms_ element) or null
    std::function<int64_t()> counter_probe;
    std::function<double()> gauge_probe;
  };

  // Inserts an empty entry under a name not yet registered computation-wide;
  // aborts if the name is a per-process probe's.
  Entry& NewEntry(const std::string& name);
  // The column of a per-process name, or process_names_.size().
  size_t ProcessColumn(std::string_view name) const;
  // Whether a per-process probe is read as "p<pid>.<name>".
  bool HasProcessProbe(int pid, std::string_view name) const;

  // std::map keeps snapshots sorted by name, which makes emitted JSON
  // stable and diffable across runs. The comparator is the explicit ordinal
  // (locale-independent) one so the order is also stable across platforms.
  std::map<std::string, Entry, MetricNameLess> entries_;
  std::deque<Histogram> histograms_;

  // Per-process probes: process_names_[column] is a per-process name, in
  // first-registration order; process_probes_[pid][column] is that
  // process's probe, empty where it registered none.
  std::vector<std::string> process_names_;
  std::vector<std::vector<std::function<int64_t()>>> process_probes_;
  size_t process_probe_count_ = 0;
  // The column after the last one registered. Every process registers its
  // names in the same order, so this is usually the next name's column and
  // a registration compares one name instead of searching.
  size_t next_column_ = 0;
  // Whether some computation-wide name is spelled "p<pid>.<name>".
  bool has_process_spelled_entries_ = false;
};

}  // namespace ftx_obs

#endif  // FTX_SRC_OBS_METRICS_H_
