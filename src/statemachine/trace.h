// Executed-event traces with happens-before.
//
// A Trace records the events a computation actually executed, per process,
// with send/receive pairing. Vector clocks are maintained online so the
// invariant checkers can answer "does event a causally precede event b?"
// exactly as the paper defines it (happens-before used as the approximation
// of causality, §2.2).
//
// Layout. Append writes every event to one log in append order: fixed-size
// chunks of kLogChunkEvents events that never move (64 KB each, below
// glibc's default mmap threshold, so they come from the heap). A
// per-process count gives the next index and NumEvents. Send pairing,
// labels and vector clocks are kept at append time, so SendOfMessage,
// ClockOf and EventHappensBefore read no view. The
// per-process views (ProcessEvents, event) and the commit positions
// (FirstCommitAfter, LastCommitAtOrBefore) are built when one of those
// reads first finds logged events: one pass in append order folds them
// into the views, reserving each empty view at its final size, and frees
// each chunk once copied, so a folded trace holds each event once. Appends
// made after a fold go back into the log and the next read folds them. A
// fleet run appends millions of events and reads none of them, so it never
// builds a view.
//
// Contract.
//  * A view reflects the appends made before the read that returned it.
//    A read after further appends may reallocate it, as a push_back would.
//  * A Trace is used by one thread at a time: a const read may fold.
//  * The append observer receives the logged event, whose address is
//    stable until the log is next folded; observers copy what they keep.

#ifndef FTX_SRC_STATEMACHINE_TRACE_H_
#define FTX_SRC_STATEMACHINE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "src/common/check.h"
#include "src/common/id_map.h"
#include "src/statemachine/event.h"
#include "src/statemachine/vector_clock.h"

namespace ftx_sm {

// Identifies one executed event: process p's index-th event (0-based).
struct EventRef {
  ProcessId process = kInvalidProcess;
  int64_t index = -1;

  bool valid() const { return process != kInvalidProcess && index >= 0; }
  bool operator==(const EventRef&) const = default;
  auto operator<=>(const EventRef&) const = default;
};

// An event label interned in the label pool of the Trace that recorded it:
// one pointer, null for the empty label. It compares by content and reads as
// a std::string_view, and it lives as long as that Trace (a moved Trace
// keeps its pool, and a Trace cannot be copied).
class Label {
 public:
  Label() = default;

  bool empty() const { return text_ == nullptr; }
  operator std::string_view() const {
    return text_ == nullptr ? std::string_view() : std::string_view(*text_);
  }

  friend bool operator==(Label a, Label b) {
    return std::string_view(a) == std::string_view(b);
  }
  friend bool operator==(Label a, std::string_view b) { return std::string_view(a) == b; }

 private:
  friend class Trace;
  explicit Label(const std::string* text) : text_(text) {}

  const std::string* text_ = nullptr;  // non-empty when set
};

// Narrows an event index or atomic-group id to the 32 bits TraceEvent stores;
// aborts naming `field` when the value does not fit.
inline int32_t NarrowEventField(int64_t value, const char* field) {
  FTX_CHECK_MSG(value >= std::numeric_limits<int32_t>::min() &&
                    value <= std::numeric_limits<int32_t>::max(),
                "%s %lld does not fit in 32 bits", field, static_cast<long long>(value));
  return static_cast<int32_t>(value);
}

// Fields are ordered for size, keeping process before kind before
// message_id: designated initializers name them in that order.
struct TraceEvent {
  ProcessId process = kInvalidProcess;
  int32_t index = -1;
  EventKind kind = EventKind::kInternal;
  // True when a non-deterministic event's result was captured in a recovery
  // log, rendering it deterministic for Save-work purposes (§2.4).
  bool logged = false;
  // Set by the fault-injection study when this event executed buggy code.
  bool fault_activation = false;
  // Commits performed as one coordinated (2PC) round share a group id and
  // are "atomic with" one another in the sense of the Save-work Theorem;
  // -1 = not part of any atomic group.
  int32_t atomic_group = -1;
  // Pairs a receive with its send; -1 for non-message events.
  int64_t message_id = -1;
  // Free-form tag for diagnostics ("keystroke", "frame", ...).
  Label label = {};
};
// Every executed event is one of these, so their size is the trace's size.
static_assert(sizeof(TraceEvent) <= 32);
static_assert(std::is_trivially_copyable_v<TraceEvent>);

struct TraceOptions {
  // Maintain per-event vector-clock snapshots (and the running clock per
  // process). Required by ClockOf/EventHappensBefore and the causal audit.
  // Fleet-scale runs turn this off: each snapshot is O(num_processes), so a
  // 10k-process trace would hold quadratic clock state. With clocks off the
  // replayable event log (kinds, message pairing, commit indices, labels)
  // is recorded exactly as before — commit replay and rollback accounting
  // are unaffected.
  bool record_clocks = true;
};

class Trace {
 public:
  // Events per log chunk: 64 KB of 32-byte events.
  static constexpr size_t kLogChunkEvents = 2048;

  explicit Trace(int num_processes, TraceOptions options = {});

  // Events' labels point into this Trace's label pool: a copy would outlive
  // the pool it points into, a move takes the pool along.
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;
  Trace(Trace&&) = default;
  Trace& operator=(Trace&&) = default;

  int num_processes() const { return static_cast<int>(counts_.size()); }
  int64_t NumEvents(ProcessId p) const;
  int64_t TotalEvents() const;

  // Appends an event for process p and returns its reference. For kReceive,
  // message_id must name a previously appended kSend, whose clock is merged
  // (the happens-before edge). The label is interned in this Trace's pool.
  EventRef Append(ProcessId p, EventKind kind, int64_t message_id = -1, bool logged = false,
                  std::string_view label = {}, int64_t atomic_group = -1);

  // Observer invoked at the end of every Append with the new event's
  // reference, the logged event, and the appending process's vector clock
  // as of that event. The live causal audit (src/obs/causal/) installs one
  // and keeps a ring of the events it is handed, with no second event
  // stream; null (the default) costs nothing.
  using AppendObserver =
      std::function<void(EventRef, const TraceEvent&, const VectorClock&)>;
  void SetAppendObserver(AppendObserver observer) { observer_ = std::move(observer); }

  // Marks an already-recorded event as the activation of an injected fault
  // (in the views, folding first).
  void MarkFaultActivation(EventRef ref);

  bool record_clocks() const { return options_.record_clocks; }

  const TraceEvent& event(EventRef ref) const;
  // Aborts when record_clocks is off (lean traces have no clock state).
  const VectorClock& ClockOf(EventRef ref) const;

  // Strict happens-before between two executed events.
  bool EventHappensBefore(EventRef a, EventRef b) const;

  // a happens-before b, or a == b.
  bool HappensBeforeOrEqual(EventRef a, EventRef b) const;

  // The paper's "causally precedes": happens-before used to convey causality.
  bool CausallyPrecedes(EventRef a, EventRef b) const { return EventHappensBefore(a, b); }

  // First commit of process p at an index strictly greater than `index`, if
  // any. Commits on a process are totally ordered, so this is the only
  // candidate the Save-work checker needs to examine (an earlier commit
  // happens-before every later event of the same process).
  std::optional<EventRef> FirstCommitAfter(ProcessId p, int64_t index) const;

  // Last commit of process p at an index <= `index` (the process's committed
  // state as of that point), if any.
  std::optional<EventRef> LastCommitAtOrBefore(ProcessId p, int64_t index) const;

  // All events of one process, in execution order.
  const std::vector<TraceEvent>& ProcessEvents(ProcessId p) const;

  // Where a message was sent from (valid after the send is recorded).
  std::optional<EventRef> SendOfMessage(int64_t message_id) const;

 private:
  // The send event of a message, as TraceEvent stores its coordinates.
  struct SendSite {
    ProcessId process;
    int32_t index;
  };
  struct LabelHash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const { return std::hash<std::string_view>()(text); }
  };

  Label Intern(std::string_view text);
  // Writes an event to the log and returns it at its stable address.
  const TraceEvent& Log(const TraceEvent& ev);
  // Folds logged events into the views. Inline, so a read of a current
  // trace pays one compare and no call.
  void SyncViews() const {
    if (!log_.empty()) {
      FoldLog();
    }
  }
  void FoldLog() const;

  TraceOptions options_;
  std::vector<int64_t> counts_;                      // events per process, logged included
  // Chunks of kLogChunkEvents events, each reserved once, so none moves.
  mutable std::vector<std::vector<TraceEvent>> log_;
  mutable std::vector<std::vector<TraceEvent>> views_;           // folded events per process
  mutable std::vector<std::vector<int32_t>> commit_indices_;     // folded commit positions
  std::vector<std::vector<VectorClock>> clocks_;     // snapshot per event (empty when lean)
  std::vector<VectorClock> current_clock_;           // running clock per process
  ftx::IdMap<SendSite> send_of_message_;
  // Node-based, so interned strings keep their addresses as the pool grows
  // and when the Trace moves.
  std::unordered_set<std::string, LabelHash, std::equal_to<>> labels_;
  Label last_label_;                                 // most appends repeat it
  VectorClock empty_clock_;                          // observer arg in lean mode
  AppendObserver observer_;
};

}  // namespace ftx_sm

#endif  // FTX_SRC_STATEMACHINE_TRACE_H_
