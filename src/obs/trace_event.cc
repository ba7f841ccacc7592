#include "src/obs/trace_event.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ftx_obs {
namespace {

// The fields every phase sets; flow_id and counter_values keep their
// defaults for the caller to fill where the phase has them.
TraceEvent MakeEvent(char phase, int pid, TraceLane lane, const char* category, std::string name,
                     int64_t ts_ns, int64_t seq) {
  TraceEvent event;
  event.phase = phase;
  event.pid = pid;
  event.lane = lane;
  event.category = category;
  event.name = std::move(name);
  event.ts_ns = ts_ns;
  event.seq = seq;
  return event;
}

}  // namespace

const char* TraceLaneName(TraceLane lane) {
  switch (lane) {
    case TraceLane::kStep:
      return "steps";
    case TraceLane::kStorage:
      return "commits+log";
    case TraceLane::kRecovery:
      return "failures+recovery";
    case TraceLane::kCoordination:
      return "2pc";
  }
  return "?";
}

void Tracer::Span(int pid, TraceLane lane, const char* category, std::string name,
                  ftx::TimePoint begin, ftx::TimePoint end) {
  if (!enabled_) {
    return;
  }
  if (end < begin) {
    end = begin;
  }
  // Keep each (pid, lane) track overlap-free: charged costs can lag the
  // simulator clock (pending overheads are billed at the next step), so a
  // span occasionally starts before the previous one on its track ended.
  // Shifting the start preserves durations on the timeline and guarantees
  // the exported B/E events nest.
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->pid == pid && it->lane == lane && it->phase == 'E') {
      if (begin.nanos() < it->ts_ns) {
        ftx::Duration length = end - begin;
        begin = ftx::TimePoint(it->ts_ns);
        end = begin + length;
      }
      break;
    }
  }
  events_.push_back(MakeEvent('B', pid, lane, category, name, begin.nanos(), next_seq_++));
  events_.push_back(MakeEvent('E', pid, lane, category, std::move(name), end.nanos(), next_seq_++));
}

void Tracer::Instant(int pid, TraceLane lane, const char* category, std::string name,
                     ftx::TimePoint at) {
  if (!enabled_) {
    return;
  }
  events_.push_back(MakeEvent('i', pid, lane, category, std::move(name), at.nanos(), next_seq_++));
}

void Tracer::FlowStart(int pid, TraceLane lane, const char* category, std::string name,
                       ftx::TimePoint at, int64_t flow_id) {
  if (!enabled_) {
    return;
  }
  TraceEvent event = MakeEvent('s', pid, lane, category, std::move(name), at.nanos(), next_seq_++);
  event.flow_id = flow_id;
  events_.push_back(std::move(event));
}

void Tracer::FlowFinish(int pid, TraceLane lane, const char* category, std::string name,
                        ftx::TimePoint at, int64_t flow_id) {
  if (!enabled_) {
    return;
  }
  TraceEvent event = MakeEvent('f', pid, lane, category, std::move(name), at.nanos(), next_seq_++);
  event.flow_id = flow_id;
  events_.push_back(std::move(event));
}

void Tracer::CounterSample(int pid, const char* category, std::string name, ftx::TimePoint at,
                           std::vector<std::pair<std::string, double>> values) {
  if (!enabled_) {
    return;
  }
  TraceEvent event =
      MakeEvent('C', pid, TraceLane::kStorage, category, std::move(name), at.nanos(), next_seq_++);
  event.counter_values = std::move(values);
  events_.push_back(std::move(event));
}

Json Tracer::ToChromeTrace() const {
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events_.size());
  for (const TraceEvent& event : events_) {
    sorted.push_back(&event);
  }
  std::sort(sorted.begin(), sorted.end(), [](const TraceEvent* a, const TraceEvent* b) {
    if (a->ts_ns != b->ts_ns) {
      return a->ts_ns < b->ts_ns;
    }
    return a->seq < b->seq;
  });

  Json trace_events = Json::Array();

  // Thread-name metadata for every (pid, lane) in use, emitted first.
  // Counter tracks render per (pid, name) and have no thread identity.
  std::map<std::pair<int, int>, bool> lanes_in_use;
  for (const TraceEvent& event : events_) {
    if (event.phase == 'C') {
      continue;
    }
    lanes_in_use[{event.pid, static_cast<int>(event.lane)}] = true;
  }
  for (const auto& [key, unused] : lanes_in_use) {
    (void)unused;
    Json meta = Json::Object();
    meta.Set("name", Json("thread_name"));
    meta.Set("ph", Json("M"));
    meta.Set("pid", Json(key.first));
    meta.Set("tid", Json(key.second));
    Json args = Json::Object();
    args.Set("name", Json(TraceLaneName(static_cast<TraceLane>(key.second))));
    meta.Set("args", std::move(args));
    trace_events.Push(std::move(meta));
  }

  for (const TraceEvent* event : sorted) {
    Json j = Json::Object();
    j.Set("name", Json(event->name));
    j.Set("cat", Json(event->category));
    j.Set("ph", Json(std::string(1, event->phase)));
    // trace_event timestamps are microseconds; keep ns precision fractional.
    j.Set("ts", Json(static_cast<double>(event->ts_ns) / 1000.0));
    j.Set("pid", Json(event->pid));
    j.Set("tid", Json(static_cast<int>(event->lane)));
    if (event->phase == 'i') {
      j.Set("s", Json("t"));  // instant scope: thread
    }
    if (event->phase == 's' || event->phase == 'f') {
      j.Set("id", Json(event->flow_id));
      if (event->phase == 'f') {
        j.Set("bp", Json("e"));  // bind the arrow to the enclosing slice
      }
    }
    if (event->phase == 'C') {
      Json args = Json::Object();
      for (const auto& [series, value] : event->counter_values) {
        args.Set(series, Json(value));
      }
      j.Set("args", std::move(args));
    }
    trace_events.Push(std::move(j));
  }

  Json root = Json::Object();
  root.Set("traceEvents", std::move(trace_events));
  root.Set("displayTimeUnit", Json("ms"));
  return root;
}

ftx::Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteFileContents(path, ToChromeTraceJson());
}

}  // namespace ftx_obs
