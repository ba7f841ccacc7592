#include "src/protocol/protocol.h"

#include "src/common/check.h"

namespace ftx_proto {
namespace {

// User input and receives are the loggable ND classes Discount Checking
// supports (§3: "the ability to log non-deterministic user input and message
// receive events to render them deterministic").
constexpr EventMask kInputAndReceive = MaskOf(AppEvent::kUserInput, AppEvent::kReceive);
constexpr EventMask kVisible = MaskOf(AppEvent::kVisible);
constexpr EventMask kVisibleOrSend = MaskOf(AppEvent::kVisible, AppEvent::kSend);

constexpr ProtocolRule kRules[] = {
    // Origin of the space: commits after every event, knowing nothing about
    // event types. Trivially upholds Save-work.
    {.name = "commit-all",
     .point = {0.0, 0.0},
     .notes = "origin: commits every event",
     .commit_after = CommitAfter::kEvery},
    // Commit After Non-Deterministic.
    {.name = "cand",
     .point = {0.35, 0.0},
     .notes = "distinguishes ND events",
     .commit_after = CommitAfter::kUnloggedNd},
    // Sender-Based Logging [15]: the receive's log record conceptually lives
    // in the sender's volatile memory; cost and replay are the same from the
    // receiver's side. All other ND still commits.
    {.name = "sbl",
     .point = {0.55, 0.0},
     .notes = "sender-based logging: receives logged at sender",
     .log = MaskOf(AppEvent::kReceive),
     .commit_after = CommitAfter::kUnloggedNd},
    // Targon/32 [4]: every ND class but signals becomes a logged message; a
    // delivered signal (and a fixed-ND syscall result) still commits.
    {.name = "targon32",
     .point = {0.75, 0.0},
     .notes = "all ND but signals converted to logged messages",
     .log = kInputAndReceive | MaskOf(AppEvent::kTransientNd),
     .commit_after = CommitAfter::kUnloggedNd},
    // Hypervisor [5]: a virtual machine under the OS logs every source of
    // ND, signals included; the application never commits.
    {.name = "hypervisor",
     .point = {0.95, 0.0},
     .notes = "logs all ND via virtual machine; never commits",
     .log = kNdEvents},
    // CAND plus logging of user input and receives.
    {.name = "cand-log",
     .point = {0.65, 0.0},
     .notes = "CAND plus input/receive logging",
     .log = kInputAndReceive,
     .commit_after = CommitAfter::kUnloggedNd},
    // Family-Based Logging [2]: receive records live in downstream processes'
    // memory, modelled as deferred logging made durable by piggybacking on
    // the next send (or a visible). Records after the last send are lost by
    // a crash, exactly FBL's window.
    {.name = "fbl",
     .point = {0.6, 0.1},
     .notes = "family-based logging: log entries at downstream processes",
     .log = kInputAndReceive,
     .log_async = true,
     .flush_before = kVisibleOrSend,
     .commit_after = CommitAfter::kUnloggedNd},
    // Commit Prior to Visible or Send, with no knowledge of ND.
    {.name = "cpvs",
     .point = {0.0, 0.45},
     .notes = "commits before true visible and send events",
     .commit_before = kVisibleOrSend},
    // Commit Between Non-Deterministic and Visible or Send.
    {.name = "cbndvs",
     .point = {0.35, 0.45},
     .notes = "commit only between ND and visible/send",
     .commit_before = kVisibleOrSend,
     .commit_before_only_after_nd = true},
    // CBNDVS plus logging of user input and receives: only unlogged ND arms
    // the commit.
    {.name = "cbndvs-log",
     .point = {0.65, 0.45},
     .notes = "CBNDVS plus input/receive logging",
     .log = kInputAndReceive,
     .commit_before = kVisibleOrSend,
     .commit_before_only_after_nd = true},
    // Optimistic Logging [28]: deferred log writes for all ND; a visible
    // first waits for the outstanding tail (one batched flush).
    {.name = "optimistic-log",
     .point = {0.55, 0.7},
     .notes = "async log writes; visible waits for relevant records",
     .log = kNdEvents,
     .log_async = true,
     .flush_before = kVisible},
    // Manetho [11]: an antecedence graph of all depended-on ND, modelled as
    // deferred logging flushed before visibles and carried on sends.
    {.name = "manetho",
     .point = {0.75, 0.8},
     .notes = "antecedence graph flushed before visible",
     .log = kNdEvents,
     .log_async = true,
     .flush_before = kVisibleOrSend},
    // Coordinated Checkpointing [18]: a visible forces a commit of every
    // process communicated with, directly or transitively, since its last
    // commit.
    {.name = "coordinated-ckpt",
     .point = {0.1, 0.85},
     .notes = "remote processes asked to commit before a visible",
     .commit_before = kVisible,
     .coordinated = CoordinationScope::kCommunicated},
    // Commit Prior to Visible with two-phase commit; sends need no commits.
    {.name = "cpv-2pc",
     .point = {0.0, 0.85},
     .notes = "all processes commit on any visible",
     .commit_before = kVisible,
     .coordinated = CoordinationScope::kAll},
    // CBNDVS with two-phase commit. The round runs even when this process is
    // clean — a remote process may hold ND this visible depends on — and
    // the runtime narrows it to ND-dirty processes.
    {.name = "cbndv-2pc",
     .point = {0.35, 0.85},
     .notes = "ND-dirty processes commit on any visible",
     .commit_before = kVisible,
     .coordinated = CoordinationScope::kNdDirty},
};

}  // namespace

std::span<const ProtocolRule> ProtocolRules() { return kRules; }

const ProtocolRule* FindProtocolRule(std::string_view name) {
  for (const ProtocolRule& rule : kRules) {
    if (rule.name == name) {
      return &rule;
    }
  }
  return nullptr;
}

std::unique_ptr<Protocol> MakeProtocolByName(std::string_view name) {
  const ProtocolRule* rule = FindProtocolRule(name);
  FTX_CHECK_MSG(rule != nullptr, "unknown protocol: %.*s", static_cast<int>(name.size()),
                name.data());
  return std::make_unique<Protocol>(*rule);
}

const std::vector<std::string>& MeasuredProtocolNames() {
  static const std::vector<std::string> kNames = {
      "cand", "cand-log", "cpvs", "cbndvs", "cbndvs-log", "cpv-2pc", "cbndv-2pc",
  };
  return kNames;
}

}  // namespace ftx_proto
