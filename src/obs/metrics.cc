#include "src/obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <numeric>

#include "src/common/check.h"

namespace ftx_obs {
namespace {

// Splits "p<pid>.<name>" into pid and name; false for any other spelling,
// including a pid with a sign or a leading zero, which ProcessMetricName
// never writes.
bool SplitProcessMetricName(std::string_view full, int* pid, std::string_view* name) {
  if (full.size() < 2 || full[0] != 'p' || full[1] < '0' || full[1] > '9') {
    return false;
  }
  const char* end = full.data() + full.size();
  const auto [dot, error] = std::from_chars(full.data() + 1, end, *pid);
  if (error != std::errc() || dot == end || *dot != '.' ||
      (full[1] == '0' && dot != full.data() + 2)) {
    return false;
  }
  *name = std::string_view(dot + 1, static_cast<size_t>(end - dot - 1));
  return true;
}

// Appends `pid` and then every pid in [0, n) whose decimal text extends
// pid's, each in the ordinal order of its text: 1, 10, 100, 101, ..., 11, ...
void AppendInTextOrder(int pid, int n, std::vector<int>* out) {
  out->push_back(pid);
  const int64_t first_child = int64_t{pid} * 10;
  for (int64_t child = first_child; child < first_child + 10 && child < n; ++child) {
    AppendInTextOrder(static_cast<int>(child), n, out);
  }
}

// Every pid in [0, n) in the ordinal order of its decimal text, which is
// the MetricNameLess order of the "p<pid>." prefixes: a pid's text sorts
// before every extension of it because '.' sorts before every digit.
std::vector<int> PidsInTextOrder(int n) {
  std::vector<int> pids;
  pids.reserve(static_cast<size_t>(n));
  if (n > 0) {
    pids.push_back(0);
  }
  for (int lead = 1; lead <= 9 && lead < n; ++lead) {
    AppendInTextOrder(lead, n, &pids);
  }
  return pids;
}

}  // namespace

std::string ProcessMetricName(int pid, std::string_view name) {
  std::string full = "p" + std::to_string(pid) + ".";
  full += name;
  return full;
}

Histogram::Histogram(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  FTX_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be sorted");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(int64_t value) {
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  ++buckets_[bucket];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count_);
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const int64_t next = cumulative + buckets_[i];
    if (static_cast<double>(next) >= target) {
      // Bucket i spans (bounds[i-1], bounds[i]]; clamp the edges to the
      // observed extremes so the open-ended first/overflow buckets (and any
      // bucket wider than the data) interpolate over real values.
      double lo = i == 0 ? static_cast<double>(min_) : static_cast<double>(bounds_[i - 1]);
      double hi = i < bounds_.size() ? static_cast<double>(bounds_[i]) : static_cast<double>(max_);
      lo = std::max(lo, static_cast<double>(min_));
      hi = std::min(hi, static_cast<double>(max_));
      if (hi < lo) {
        hi = lo;
      }
      const double within = std::max(0.0, target - static_cast<double>(cumulative));
      return lo + (hi - lo) * within / static_cast<double>(buckets_[i]);
    }
    cumulative = next;
  }
  return static_cast<double>(max_);
}

std::vector<int64_t> DefaultLatencyBoundsNs() {
  std::vector<int64_t> bounds;
  for (int64_t decade = 1000; decade <= 100000000000LL; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2);
    bounds.push_back(decade * 5);
  }
  return bounds;  // 1us, 2us, 5us, ... 100s, 200s, 500s
}

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  for (const auto& [entry_name, value] : entries) {
    if (entry_name == name) {
      return &value;
    }
  }
  return nullptr;
}

int64_t MetricsSnapshot::TotalCounter(std::string_view suffix) const {
  int64_t total = 0;
  for (const auto& [name, value] : entries) {
    if (value.kind != MetricValue::Kind::kCounter) {
      continue;
    }
    if (name == suffix || (name.size() > suffix.size() + 1 &&
                           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
                           name[name.size() - suffix.size() - 1] == '.')) {
      total += value.counter;
    }
  }
  return total;
}

Json MetricsSnapshot::ToJson() const {
  Json out = Json::Object();
  const std::string* previous = nullptr;
  for (const auto& [name, value] : entries) {
    // Distinct, ordered names let every member be appended without Set's
    // scan of the earlier ones.
    FTX_CHECK_MSG(previous == nullptr || MetricNameLess()(*previous, name),
                  "snapshot entry %s is out of order", name.c_str());
    previous = &name;
    switch (value.kind) {
      case MetricValue::Kind::kCounter:
        out.AppendMember(name, Json(value.counter));
        break;
      case MetricValue::Kind::kGauge:
        out.AppendMember(name, Json(value.gauge));
        break;
      case MetricValue::Kind::kHistogram: {
        Json hist = Json::Object();
        hist.Set("count", Json(value.count));
        hist.Set("sum", Json(value.sum));
        hist.Set("min", Json(value.min));
        hist.Set("max", Json(value.max));
        hist.Set("p50", Json(value.p50));
        hist.Set("p90", Json(value.p90));
        hist.Set("p99", Json(value.p99));
        Json bounds = Json::Array();
        for (int64_t b : value.bounds) {
          bounds.Push(Json(b));
        }
        Json buckets = Json::Array();
        for (int64_t b : value.bucket_counts) {
          buckets.Push(Json(b));
        }
        hist.Set("bounds", std::move(bounds));
        hist.Set("buckets", std::move(buckets));
        out.AppendMember(name, std::move(hist));
        break;
      }
    }
  }
  return out;
}

Registry::Entry& Registry::NewEntry(const std::string& name) {
  int pid = 0;
  std::string_view process_name;
  if (SplitProcessMetricName(name, &pid, &process_name)) {
    FTX_CHECK_MSG(!HasProcessProbe(pid, process_name),
                  "metric %s is already registered as a per-process probe", name.c_str());
    has_process_spelled_entries_ = true;
  }
  return entries_.emplace(name, Entry()).first->second;
}

size_t Registry::ProcessColumn(std::string_view name) const {
  return static_cast<size_t>(std::find(process_names_.begin(), process_names_.end(), name) -
                             process_names_.begin());
}

bool Registry::HasProcessProbe(int pid, std::string_view name) const {
  if (pid < 0 || static_cast<size_t>(pid) >= process_probes_.size()) {
    return false;
  }
  const std::vector<std::function<int64_t()>>& probes = process_probes_[static_cast<size_t>(pid)];
  const size_t column = ProcessColumn(name);
  return column < probes.size() && probes[column] != nullptr;
}

Histogram* Registry::GetHistogram(const std::string& name, std::vector<int64_t> bounds) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    FTX_CHECK_MSG(
        it->second.kind == MetricValue::Kind::kHistogram && it->second.histogram != nullptr,
        "metric %s already registered with a different kind", name.c_str());
    return it->second.histogram;
  }
  Entry& entry = NewEntry(name);
  entry.kind = MetricValue::Kind::kHistogram;
  entry.histogram = &histograms_.emplace_back(std::move(bounds));
  return entry.histogram;
}

void Registry::RegisterCounterProbe(const std::string& name, std::function<int64_t()> probe) {
  FTX_CHECK(probe != nullptr);
  auto it = entries_.find(name);
  Entry& entry = it != entries_.end() ? it->second : NewEntry(name);
  entry = Entry();
  entry.kind = MetricValue::Kind::kCounter;
  entry.counter_probe = std::move(probe);
}

void Registry::RegisterGaugeProbe(const std::string& name, std::function<double()> probe) {
  FTX_CHECK(probe != nullptr);
  auto it = entries_.find(name);
  Entry& entry = it != entries_.end() ? it->second : NewEntry(name);
  entry = Entry();
  entry.kind = MetricValue::Kind::kGauge;
  entry.gauge_probe = std::move(probe);
}

void Registry::RegisterCounterProbe(int pid, std::string_view name,
                                    std::function<int64_t()> probe) {
  FTX_CHECK(pid >= 0);
  FTX_CHECK(probe != nullptr);
  // Only a computation-wide name spelled "p<digits>.<name>" can collide, and
  // only then is the full name built to look for it.
  FTX_CHECK_MSG(!has_process_spelled_entries_ || !entries_.contains(ProcessMetricName(pid, name)),
                "metric p%d.%.*s is already registered computation-wide", pid,
                static_cast<int>(name.size()), name.data());
  size_t column = next_column_;
  if (column >= process_names_.size() || process_names_[column] != name) {
    column = ProcessColumn(name);
    if (column == process_names_.size()) {
      process_names_.emplace_back(name);
    }
  }
  next_column_ = column + 1;
  if (static_cast<size_t>(pid) >= process_probes_.size()) {
    process_probes_.resize(static_cast<size_t>(pid) + 1);
  }
  std::vector<std::function<int64_t()>>& probes = process_probes_[static_cast<size_t>(pid)];
  if (column >= probes.size()) {
    probes.resize(process_names_.size());
  }
  std::function<int64_t()>& slot = probes[column];
  process_probe_count_ += slot == nullptr ? 1 : 0;
  slot = std::move(probe);
}

bool Registry::Contains(std::string_view name) const {
  if (entries_.find(name) != entries_.end()) {
    return true;
  }
  int pid = 0;
  std::string_view process_name;
  return SplitProcessMetricName(name, &pid, &process_name) && HasProcessProbe(pid, process_name);
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.entries.reserve(size());
  auto shared = entries_.begin();
  auto append_shared = [&snapshot, &shared]() {
    const Entry& entry = shared->second;
    MetricValue value;
    value.kind = entry.kind;
    switch (entry.kind) {
      case MetricValue::Kind::kCounter:
        value.counter = entry.counter_probe();
        break;
      case MetricValue::Kind::kGauge:
        value.gauge = entry.gauge_probe();
        break;
      case MetricValue::Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        value.count = h.count();
        value.sum = h.sum();
        value.min = h.min();
        value.max = h.max();
        value.p50 = h.Quantile(0.50);
        value.p90 = h.Quantile(0.90);
        value.p99 = h.Quantile(0.99);
        value.bounds = h.bounds();
        value.bucket_counts = h.bucket_counts();
        break;
      }
    }
    snapshot.entries.emplace_back(shared->first, std::move(value));
    ++shared;
  };
  // The per-process names are generated in order (pids in the order of
  // their text, each pid's names in the order of the few distinct names)
  // and merged with the computation-wide ones.
  std::vector<size_t> columns(process_names_.size());
  std::iota(columns.begin(), columns.end(), size_t{0});
  std::sort(columns.begin(), columns.end(), [this](size_t a, size_t b) {
    return MetricNameLess()(process_names_[a], process_names_[b]);
  });
  std::string name;
  for (int pid : PidsInTextOrder(static_cast<int>(process_probes_.size()))) {
    const std::vector<std::function<int64_t()>>& probes = process_probes_[static_cast<size_t>(pid)];
    name = ProcessMetricName(pid, "");
    const size_t prefix = name.size();
    for (size_t column : columns) {
      if (column >= probes.size() || probes[column] == nullptr) {
        continue;
      }
      name.resize(prefix);
      name += process_names_[column];
      while (shared != entries_.end() && MetricNameLess()(shared->first, name)) {
        append_shared();
      }
      MetricValue value;
      value.counter = probes[column]();
      snapshot.entries.emplace_back(name, std::move(value));
    }
  }
  while (shared != entries_.end()) {
    append_shared();
  }
  return snapshot;
}

std::string Registry::ToJsonString(int indent) const { return Snapshot().ToJson().Dump(indent); }

}  // namespace ftx_obs
