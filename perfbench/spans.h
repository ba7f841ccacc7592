// Span recording and the small pieces of arithmetic the benchmark reports
// with: self time of nested spans, the tail-percentile rule, metric-name
// validation, simulated fingerprints and the failed-operation count.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Host monotonic clock (steady_clock) in nanoseconds.
int64_t NowNs();

// One finished span. `parent` indexes the recorder's span list (-1 for a
// root); spans of one workload iteration share a `run_id`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run_id = 0;
};

// Per-name aggregate over every span of that name.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;  // inclusive
  int64_t self_ns = 0;   // duration minus the direct children it encloses
};

// Stack of open spans. Every span feeds the per-name totals as it ends; the
// span itself is kept in memory only while its depth is below kKeepDepth
// (the iteration and its phases), because the per-step and per-call spans
// of a fleet run number in the millions and only their totals are reported.
class SpanRecorder {
 public:
  static constexpr int kKeepDepth = 2;

  void set_run_id(int run_id) { run_id_ = run_id; }

  // `name` must have static storage duration (call sites use literals).
  void Begin(const char* name) { BeginAt(name, NowNs()); }
  void End() { EndAt(NowNs()); }
  // Clock-free variants, so tests can drive exact intervals.
  void BeginAt(const char* name, int64_t now_ns);
  void EndAt(int64_t now_ns);

  int depth() const { return static_cast<int>(open_.size()); }
  const std::vector<Span>& spans() const { return spans_; }
  // Totals merged by name (including the spans that were not kept).
  std::map<std::string, SpanTotals> Totals() const;
  // Sum of self time over every span: equals the summed duration of the
  // roots, which is what makes self times tile a traced iteration.
  int64_t TotalSelfNs() const;

  // Latency samples (microseconds) a caller attaches to a span name.
  void AddSample(const char* name, double value) { samples_[name].push_back(value); }
  const std::vector<double>* Samples(const char* name) const;

  // {"spans":[{name,start_ns,end_ns,parent,run_id}...],"totals":{...}}.
  std::string ToJson() const;

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int kept_index;  // index into spans_, or -1
  };
  int run_id_ = 0;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  std::map<const char*, SpanTotals> totals_;
  std::map<const char*, std::vector<double>> samples_;
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
    if (recorder_ != nullptr) {
      recorder_->Begin(name);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

// Nearest-rank percentile of unsorted samples (0 when empty).
double Percentile(std::vector<double> samples, double pct);
double Median(std::vector<double> samples);

// The tail rule: among p50, p90, p99, p99.9, p99.99 and p99.999, the
// highest percentile that still has at least ten samples beyond it (p50
// when even that has fewer), with its value and the sample count.
struct TailPercentile {
  double pct = 50.0;
  double value = 0.0;
  int64_t samples = 0;
};
TailPercentile HighestResolvedPercentile(const std::vector<double>& samples);

// Metric and workload names: 1 to 64 of [A-Za-z0-9_.-], starting with a
// letter or digit.
bool ValidName(std::string_view name);

// FNV-1a over the little-endian bytes of each value.
uint64_t Fingerprint(std::initializer_list<int64_t> values);

// Failed operations of one run: every attempted one when the simulated
// fingerprint is wrong, else the counted failures (capped at attempted).
int64_t FailedOps(int64_t attempted, int64_t failed, bool fingerprint_ok);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
