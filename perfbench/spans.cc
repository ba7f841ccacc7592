#include "perfbench/spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::BeginAt(const char* name, int64_t now_ns) {
  int kept = -1;
  if (depth() < kKeepDepth) {
    kept = static_cast<int>(spans_.size());
    Span span;
    span.name = name;
    span.start_ns = now_ns;
    span.parent = open_.empty() ? -1 : open_.back().kept_index;
    span.run_id = run_id_;
    spans_.push_back(std::move(span));
  }
  open_.push_back(Open{name, now_ns, 0, kept});
}

void SpanRecorder::EndAt(int64_t now_ns) {
  FTX_CHECK_MSG(!open_.empty(), "SpanRecorder::End without a matching Begin");
  const Open top = open_.back();
  open_.pop_back();
  const int64_t duration = now_ns - top.start_ns;
  SpanTotals& totals = totals_[top.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - top.child_ns;
  if (top.kept_index >= 0) {
    spans_[static_cast<size_t>(top.kept_index)].end_ns = now_ns;
  }
  if (!open_.empty()) {
    open_.back().child_ns += duration;
  }
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  std::map<std::string, SpanTotals> merged;
  for (const auto& [name, totals] : totals_) {
    SpanTotals& into = merged[name];
    into.count += totals.count;
    into.total_ns += totals.total_ns;
    into.self_ns += totals.self_ns;
  }
  return merged;
}

int64_t SpanRecorder::TotalSelfNs() const {
  int64_t total = 0;
  for (const auto& entry : totals_) {
    total += entry.second.self_ns;
  }
  return total;
}

const std::vector<double>* SpanRecorder::Samples(const char* name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? nullptr : &it->second;
}

std::string SpanRecorder::ToJson() const {
  std::string out = "{\"spans\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                  "\"run_id\":%d}",
                  i == 0 ? "" : ",\n", s.name.c_str(), static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent, s.run_id);
    out += buf;
  }
  out += "],\n\"totals\":{";
  bool first = true;
  for (const auto& [name, t] : Totals()) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"count\":%lld,\"total_ns\":%lld,\"self_ns\":%lld}",
                  first ? "" : ",\n", name.c_str(), static_cast<long long>(t.count),
                  static_cast<long long>(t.total_ns), static_cast<long long>(t.self_ns));
    out += buf;
    first = false;
  }
  out += "}}\n";
  return out;
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: the smallest sample with at least pct% of samples at or
  // below it.
  int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

TailPercentile HighestResolvedPercentile(const std::vector<double>& samples) {
  TailPercentile tail;
  tail.samples = static_cast<int64_t>(samples.size());
  for (double pct : {99.999, 99.99, 99.9, 99.0, 90.0, 50.0}) {
    const double beyond = static_cast<double>(samples.size()) * (100.0 - pct) / 100.0;
    if (beyond >= 10.0 - 1e-9 || pct == 50.0) {
      tail.pct = pct;
      tail.value = Percentile(samples, pct);
      break;
    }
  }
  return tail;
}

bool ValidName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

uint64_t Fingerprint(std::initializer_list<int64_t> values) {
  uint64_t hash = 1469598103934665603ULL;
  for (int64_t value : values) {
    auto bits = static_cast<uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

int64_t FailedOps(int64_t attempted, int64_t failed, bool fingerprint_ok) {
  if (!fingerprint_ok) {
    return attempted;
  }
  return std::clamp<int64_t>(failed, 0, attempted);
}

}  // namespace perfbench
