// Save-work protocols (§2.4).
//
// A protocol decides, from the stream of events a process executes, when the
// process must commit and which non-deterministic events to render
// deterministic by logging. All protocols here uphold the Save-work
// invariant — they differ only in commit frequency and in how much
// application knowledge (non-determinism on one axis, visibility on the
// other) they exploit. Each protocol is one ProtocolRule row of
// ProtocolRules(); one Protocol per process interprets its row, and the
// runtime (ftx_dc::Runtime) consults it before and after every application
// event.

#ifndef FTX_SRC_PROTOCOL_PROTOCOL_H_
#define FTX_SRC_PROTOCOL_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ftx_proto {

// Application-level event classification as seen by the runtime.
enum class AppEvent {
  kInternal = 0,  // deterministic computation
  kTransientNd,   // signal delivery, gettimeofday, select, scheduling
  kFixedNd,       // resource-dependent syscall results (open, write)
  kUserInput,     // fixed ND, but *loggable* (read from tty)
  kReceive,       // message receive (transient ND, loggable)
  kSignal,        // delivered signal (transient ND; the one class Targon/32
                  //   cannot convert — only a full-machine logger can)
  kSend,
  kVisible,
};

// A set of AppEvents, one bit per enumerator.
using EventMask = uint8_t;

template <typename... Events>
constexpr EventMask MaskOf(Events... events) {
  return static_cast<EventMask>(((1u << static_cast<unsigned>(events)) | ...));
}

inline constexpr EventMask kNdEvents =
    MaskOf(AppEvent::kTransientNd, AppEvent::kFixedNd, AppEvent::kUserInput, AppEvent::kReceive,
           AppEvent::kSignal);

constexpr bool IsNdEvent(AppEvent event) { return (kNdEvents & MaskOf(event)) != 0; }

// Which processes a coordinated (2PC) commit must include.
enum class CoordinationScope {
  kAll,           // every live process (CPV-2PC)
  kNdDirty,       // processes with unlogged ND since their last commit
                  //   (CBNDV-2PC)
  kCommunicated,  // transitive closure of processes communicated with since
                  //   their last commits (Coordinated Checkpointing [18])
};

// What the protocol asks the runtime to do around one event.
struct CommitDecision {
  bool commit_before = false;       // commit this process before the event
  bool commit_after = false;        // commit this process after the event
  bool coordinated = false;         // the before-commit must be a 2PC commit
                                    //   spanning other involved processes
  CoordinationScope scope = CoordinationScope::kAll;
  bool log_event = false;           // record the event's result in the ND log
  bool log_async = false;           // the log write may be deferred
                                    //   (Optimistic Logging); flushed in a
                                    //   batch at flush_log_before
  bool flush_log_before = false;    // wait for outstanding async log records
                                    //   to reach stable storage before this
                                    //   event executes
};

// Where a protocol sits in the two-axis protocol space of Fig. 3, for
// reporting and plotting. Both coordinates are in [0, 1].
struct SpacePoint {
  double nd_effort = 0.0;       // effort to identify/convert non-determinism
  double visible_effort = 0.0;  // effort to commit only visible events
};

// When a protocol commits after an event executes.
enum class CommitAfter {
  kNever,
  kUnloggedNd,  // after every ND event it does not log
  kEvery,       // after every event, knowing nothing about event types
};

// One protocol: its name, its point in the Fig. 3 space, and the two
// choices that place it there — which non-determinism it converts by
// logging, and which events force a commit.
struct ProtocolRule {
  std::string_view name;
  SpacePoint point;
  std::string_view notes;                    // Fig. 3 / Fig. 4 annotation
  EventMask log = 0;                         // events whose results it logs
  bool log_async = false;                    // those log writes are deferred
  EventMask flush_before = 0;                // events that first wait for the
                                             //   deferred records
  CommitAfter commit_after = CommitAfter::kNever;
  EventMask commit_before = 0;               // events it commits before...
  bool commit_before_only_after_nd = false;  // ...only with unlogged ND since
                                             //   its last commit
  // When set, the commit before an event is a 2PC commit over this scope.
  std::optional<CoordinationScope> coordinated = std::nullopt;
};

// Every protocol of the Fig. 3 space, measured and literature, in the
// space's plotting order.
std::span<const ProtocolRule> ProtocolRules();

// The row named `name`, or nullptr.
const ProtocolRule* FindProtocolRule(std::string_view name);

// One process's instance of a rule: the rule plus whether the process has
// executed unlogged ND since its last commit. The rule must outlive the
// protocol (ProtocolRules() rows are static).
class Protocol {
 public:
  explicit Protocol(const ProtocolRule& rule) : rule_(&rule) {}

  std::string_view name() const { return rule_->name; }

  // Consulted once per application event, before it executes. The runtime
  // performs the returned commits/logging and reports completion through
  // OnCommitted().
  CommitDecision Decide(AppEvent event);

  // Called after any commit of this process completes (whether requested by
  // this protocol, by a coordinated commit initiated remotely, or by the
  // recovery system).
  void OnCommitted() { nd_since_commit_ = false; }

  // True if this process has executed an unlogged ND event since its last
  // commit (drives CBNDVS-style decisions and 2PC participant selection).
  bool HasUncommittedNd() const { return nd_since_commit_; }

 private:
  const ProtocolRule* rule_;
  bool nd_since_commit_ = false;
};

// Defined here so that the runtime's call on every intercepted event inlines.
inline CommitDecision Protocol::Decide(AppEvent event) {
  const ProtocolRule& rule = *rule_;
  const EventMask bit = MaskOf(event);
  CommitDecision d;
  d.log_event = (rule.log & bit) != 0;
  d.log_async = d.log_event && rule.log_async;
  d.flush_log_before = (rule.flush_before & bit) != 0;
  const bool unlogged_nd = (kNdEvents & bit) != 0 && !d.log_event;
  nd_since_commit_ = nd_since_commit_ || unlogged_nd;
  d.commit_before = (rule.commit_before & bit) != 0 &&
                    (nd_since_commit_ || !rule.commit_before_only_after_nd);
  if (d.commit_before && rule.coordinated.has_value()) {
    d.coordinated = true;
    d.scope = *rule.coordinated;
  }
  d.commit_after = rule.commit_after == CommitAfter::kEvery ||
                   (rule.commit_after == CommitAfter::kUnloggedNd && unlogged_nd);
  return d;
}

// Instantiates the protocol of the ProtocolRules() row named `name`;
// aborts on an unknown name.
std::unique_ptr<Protocol> MakeProtocolByName(std::string_view name);

// Names of the seven protocols measured in the paper, in Fig. 8 order.
const std::vector<std::string>& MeasuredProtocolNames();

}  // namespace ftx_proto

#endif  // FTX_SRC_PROTOCOL_PROTOCOL_H_
