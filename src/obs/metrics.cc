#include "src/obs/metrics.h"

#include <algorithm>

#include "src/common/check.h"

namespace ftx_obs {

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
  for (const auto& [name, value] : entries) {
    switch (value.kind) {
      case MetricValue::Kind::kCounter:
        out.Set(name, Json(value.counter));
        break;
      case MetricValue::Kind::kGauge:
        out.Set(name, Json(value.gauge));
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
        out.Set(name, std::move(hist));
        break;
      }
    }
  }
  return out;
}

Counter* Registry::GetCounter(const std::string& name) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    FTX_CHECK_MSG(it->second.kind == MetricValue::Kind::kCounter && it->second.counter != nullptr,
                  "metric %s already registered with a different kind/backing", name.c_str());
    return it->second.counter;
  }
  counters_.emplace_back();
  Entry entry;
  entry.kind = MetricValue::Kind::kCounter;
  entry.counter = &counters_.back();
  entries_.emplace(name, std::move(entry));
  return &counters_.back();
}

Gauge* Registry::GetGauge(const std::string& name) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    FTX_CHECK_MSG(it->second.kind == MetricValue::Kind::kGauge && it->second.gauge != nullptr,
                  "metric %s already registered with a different kind/backing", name.c_str());
    return it->second.gauge;
  }
  gauges_.emplace_back();
  Entry entry;
  entry.kind = MetricValue::Kind::kGauge;
  entry.gauge = &gauges_.back();
  entries_.emplace(name, std::move(entry));
  return &gauges_.back();
}

Histogram* Registry::GetHistogram(const std::string& name, std::vector<int64_t> bounds) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    FTX_CHECK_MSG(
        it->second.kind == MetricValue::Kind::kHistogram && it->second.histogram != nullptr,
        "metric %s already registered with a different kind", name.c_str());
    return it->second.histogram;
  }
  histograms_.emplace_back(std::move(bounds));
  Entry entry;
  entry.kind = MetricValue::Kind::kHistogram;
  entry.histogram = &histograms_.back();
  entries_.emplace(name, std::move(entry));
  return &histograms_.back();
}

void Registry::RegisterCounterProbe(const std::string& name, std::function<int64_t()> probe) {
  FTX_CHECK(probe != nullptr);
  Entry entry;
  entry.kind = MetricValue::Kind::kCounter;
  entry.counter_probe = std::move(probe);
  entries_[name] = std::move(entry);
}

void Registry::RegisterGaugeProbe(const std::string& name, std::function<double()> probe) {
  FTX_CHECK(probe != nullptr);
  Entry entry;
  entry.kind = MetricValue::Kind::kGauge;
  entry.gauge_probe = std::move(probe);
  entries_[name] = std::move(entry);
}

bool Registry::Contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricValue value;
    value.kind = entry.kind;
    switch (entry.kind) {
      case MetricValue::Kind::kCounter:
        value.counter = entry.counter != nullptr ? entry.counter->value() : entry.counter_probe();
        break;
      case MetricValue::Kind::kGauge:
        value.gauge = entry.gauge != nullptr ? entry.gauge->value() : entry.gauge_probe();
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
    snapshot.entries.emplace_back(name, std::move(value));
  }
  return snapshot;
}

std::string Registry::ToJsonString(int indent) const { return Snapshot().ToJson().Dump(indent); }

}  // namespace ftx_obs
