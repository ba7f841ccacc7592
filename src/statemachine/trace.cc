#include "src/statemachine/trace.h"

#include <algorithm>

#include "src/common/check.h"

namespace ftx_sm {

Trace::Trace(int num_processes, TraceOptions options) : options_(options) {
  FTX_CHECK_GT(num_processes, 0);
  per_process_.resize(static_cast<size_t>(num_processes));
  clocks_.resize(static_cast<size_t>(num_processes));
  commit_indices_.resize(static_cast<size_t>(num_processes));
  if (options_.record_clocks) {
    current_clock_.assign(static_cast<size_t>(num_processes),
                          VectorClock(static_cast<size_t>(num_processes)));
  }
}

int64_t Trace::NumEvents(ProcessId p) const {
  FTX_CHECK(p >= 0 && p < num_processes());
  return static_cast<int64_t>(per_process_[static_cast<size_t>(p)].size());
}

int64_t Trace::TotalEvents() const {
  int64_t total = 0;
  for (const auto& events : per_process_) {
    total += static_cast<int64_t>(events.size());
  }
  return total;
}

EventRef Trace::Append(ProcessId p, EventKind kind, int64_t message_id, bool logged,
                       std::string_view label, int64_t atomic_group) {
  FTX_CHECK(p >= 0 && p < num_processes());
  auto sp = static_cast<size_t>(p);
  std::vector<TraceEvent>& events = per_process_[sp];

  TraceEvent ev;
  ev.process = p;
  ev.index = NarrowEventField(static_cast<int64_t>(events.size()), "event index");
  ev.kind = kind;
  ev.message_id = message_id;
  ev.logged = logged;
  ev.atomic_group = NarrowEventField(atomic_group, "atomic group");
  ev.label = Intern(label);

  if (kind == EventKind::kReceive) {
    FTX_CHECK_MSG(message_id >= 0, "receive events require a message id");
    const SendSite* send = send_of_message_.Find(message_id);
    FTX_CHECK_MSG(send != nullptr, "receive of message %lld with no recorded send",
                  static_cast<long long>(message_id));
    if (options_.record_clocks) {
      current_clock_[sp].MergeFrom(ClockOf(EventRef{send->process, send->index}));
    }
  }
  if (options_.record_clocks) {
    current_clock_[sp].Tick(p);
  }

  if (kind == EventKind::kSend) {
    FTX_CHECK_MSG(message_id >= 0, "send events require a message id");
    const bool first_send = send_of_message_.Insert(message_id, SendSite{p, ev.index});
    FTX_CHECK_MSG(first_send, "duplicate send of message %lld",
                  static_cast<long long>(message_id));
  }
  if (kind == EventKind::kCommit) {
    commit_indices_[sp].push_back(ev.index);
  }

  EventRef ref{p, ev.index};
  events.push_back(ev);
  if (options_.record_clocks) {
    clocks_[sp].push_back(current_clock_[sp]);
  }
  if (observer_) {
    observer_(ref, events.back(), options_.record_clocks ? clocks_[sp].back() : empty_clock_);
  }
  return ref;
}

Label Trace::Intern(std::string_view text) {
  if (text.empty()) {
    return Label();
  }
  if (last_label_ == text) {
    return last_label_;
  }
  auto it = labels_.find(text);
  if (it == labels_.end()) {
    it = labels_.emplace(text).first;
  }
  last_label_ = Label(&*it);
  return last_label_;
}

void Trace::MarkFaultActivation(EventRef ref) {
  FTX_CHECK(ref.valid());
  auto sp = static_cast<size_t>(ref.process);
  FTX_CHECK_LT(static_cast<size_t>(ref.index), per_process_[sp].size());
  per_process_[sp][static_cast<size_t>(ref.index)].fault_activation = true;
}

const TraceEvent& Trace::event(EventRef ref) const {
  FTX_CHECK(ref.valid());
  auto sp = static_cast<size_t>(ref.process);
  FTX_CHECK_LT(static_cast<size_t>(ref.index), per_process_[sp].size());
  return per_process_[sp][static_cast<size_t>(ref.index)];
}

const VectorClock& Trace::ClockOf(EventRef ref) const {
  FTX_CHECK_MSG(options_.record_clocks, "ClockOf on a lean trace (record_clocks off)");
  FTX_CHECK(ref.valid());
  auto sp = static_cast<size_t>(ref.process);
  FTX_CHECK_LT(static_cast<size_t>(ref.index), clocks_[sp].size());
  return clocks_[sp][static_cast<size_t>(ref.index)];
}

bool Trace::EventHappensBefore(EventRef a, EventRef b) const {
  if (a == b) {
    return false;
  }
  // a hb b iff b's clock has already absorbed a: component a.process of
  // clock(b) counts at least a.index+1 events.
  return ClockOf(b).Get(a.process) >= a.index + 1;
}

bool Trace::HappensBeforeOrEqual(EventRef a, EventRef b) const {
  return a == b || EventHappensBefore(a, b);
}

std::optional<EventRef> Trace::FirstCommitAfter(ProcessId p, int64_t index) const {
  FTX_CHECK(p >= 0 && p < num_processes());
  const auto& commits = commit_indices_[static_cast<size_t>(p)];
  auto it = std::upper_bound(commits.begin(), commits.end(), index);
  if (it == commits.end()) {
    return std::nullopt;
  }
  return EventRef{p, *it};
}

std::optional<EventRef> Trace::LastCommitAtOrBefore(ProcessId p, int64_t index) const {
  FTX_CHECK(p >= 0 && p < num_processes());
  const auto& commits = commit_indices_[static_cast<size_t>(p)];
  auto it = std::upper_bound(commits.begin(), commits.end(), index);
  if (it == commits.begin()) {
    return std::nullopt;
  }
  return EventRef{p, *(it - 1)};
}

const std::vector<TraceEvent>& Trace::ProcessEvents(ProcessId p) const {
  FTX_CHECK(p >= 0 && p < num_processes());
  return per_process_[static_cast<size_t>(p)];
}

std::optional<EventRef> Trace::SendOfMessage(int64_t message_id) const {
  const SendSite* send = send_of_message_.Find(message_id);
  if (send == nullptr) {
    return std::nullopt;
  }
  return EventRef{send->process, send->index};
}

}  // namespace ftx_sm
