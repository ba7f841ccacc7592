// Online Save-work auditor.
//
// Replays the Save-work Theorem's two rules (§2.3) against the live event
// stream, incrementally, as each event is appended to the trace:
//
//   visible rule — every executed unlogged ND event that causally precedes
//     a visible event must be covered by a commit of its own process that
//     happens-before the visible (or is atomic with it, for 2PC rounds);
//   orphan rule — the same, with a commit event downstream.
//
// The offline oracle (ftx_sm::CheckSaveWork) walks the full trace after the
// run: O(ND x downstream x processes). This auditor reaches the identical
// verdict online with per-process position arithmetic. For each process it
// keeps the sorted positions (index + 1 — i.e. the event's own vector-clock
// component) of its unlogged ND events and of its commits. When a
// downstream event v with clock V arrives, component K = V.Get(p) bounds
// p's events in v's causal past; the largest commit position <= K bounds
// the hb-covered prefix; unlogged ND positions in the window
// (last_commit_pos, K] are exactly the NDs whose covering commit — the
// first commit of p after them — has not (yet) happened-before v:
//
//   * if p already has a commit past K, that commit is the cover and only
//     the atomic-group rule can still save it (a 2PC round's commits are
//     atomic with one another, and rounds are serialized, so cover.group <=
//     v.group means the cover truly precedes v even where happens-before
//     cannot see it — the same branch the offline checker takes);
//   * otherwise the verdict is *pending*: the cover will be p's next
//     commit, whenever it is appended. This is the live case the offline
//     checker never faces — during a 2PC round a participant's commit is
//     appended before the coordinator's same-group commit, so the
//     coordinator's uncovered NDs look bare for a moment. The pending
//     check resolves at p's next commit (group rule applied then) or
//     becomes a violation at Finalize() if no commit ever arrives.
//
// Violations are counted as (nd, downstream) pairs, matching CheckSaveWork
// finding-for-finding; tests/causal_audit_test.cc pins the equivalence on
// randomized traces.

#ifndef FTX_SRC_OBS_CAUSAL_AUDITOR_H_
#define FTX_SRC_OBS_CAUSAL_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/statemachine/trace.h"
#include "src/statemachine/vector_clock.h"

namespace ftx_causal {

// "p<pid>#<index>" (or "-" for an invalid ref) — the notation the offline
// checker's diagnostics use.
std::string RefToString(const ftx_sm::EventRef& ref);

struct SaveWorkFinding {
  ftx_sm::EventRef nd;
  ftx_sm::EventKind nd_kind = ftx_sm::EventKind::kInternal;
  ftx_sm::EventRef downstream;
  bool visible_rule = false;        // downstream is visible; else orphan rule
  bool resolved_at_finalize = false;  // cover never arrived before the end

  // "uncovered <kind> p0#5 causally precedes visible p1#9" — the same
  // phrasing as the offline checker's SaveWorkViolation::ToString.
  std::string ToString() const;
};

class SaveWorkAuditor {
 public:
  explicit SaveWorkAuditor(int num_processes);

  // Feed every trace event, in global append order, with the appending
  // process's clock as of the event (what Trace::Append's observer hands
  // out).
  void OnEvent(const ftx_sm::EventRef& ref, const ftx_sm::TraceEvent& ev,
               const ftx_sm::VectorClock& clock);

  // Resolves every still-pending check as uncovered (its cover commit never
  // arrived). Idempotent; further OnEvent calls are not allowed after it.
  void Finalize();

  const std::vector<SaveWorkFinding>& findings() const { return findings_; }
  int64_t violations() const { return static_cast<int64_t>(findings_.size()); }
  int64_t CountVisibleRule() const;
  int64_t CountOrphanRule() const;

  int64_t events_seen() const { return events_seen_; }
  int64_t nd_unlogged() const { return nd_unlogged_; }
  int64_t downstream_checked() const { return downstream_checked_; }
  int64_t pending_peak() const { return pending_peak_; }
  int64_t pending_resolved_at_finalize() const { return pending_resolved_at_finalize_; }
  bool finalized() const { return finalized_; }

 private:
  // A downstream event saw uncovered NDs of `process` with no candidate
  // cover yet; the process's next commit (or Finalize) decides.
  struct PendingCheck {
    ftx_sm::ProcessId nd_owner = ftx_sm::kInvalidProcess;
    std::vector<int64_t> nd_positions;          // window (last_commit, K]
    std::vector<ftx_sm::EventKind> nd_kinds;    // parallel to nd_positions
    ftx_sm::EventRef downstream;
    bool visible_rule = false;
    int64_t downstream_group = -1;
  };

  void CheckDownstream(const ftx_sm::EventRef& ref, const ftx_sm::TraceEvent& ev,
                       const ftx_sm::VectorClock& clock);
  void EmitWindow(const PendingCheck& check, bool at_finalize);

  // Positions are index + 1: event i of process p has position i+1, the
  // value component p of any clock that has absorbed it reports.
  std::vector<std::vector<int64_t>> nd_pos_;        // unlogged NDs, sorted
  std::vector<std::vector<ftx_sm::EventKind>> nd_kind_;
  std::vector<std::vector<int64_t>> commit_pos_;    // sorted
  std::vector<std::vector<int64_t>> commit_group_;  // parallel to commit_pos_
  std::vector<std::vector<PendingCheck>> pending_;  // keyed by ND owner

  std::vector<SaveWorkFinding> findings_;
  int64_t events_seen_ = 0;
  int64_t nd_unlogged_ = 0;
  int64_t downstream_checked_ = 0;
  int64_t pending_open_ = 0;
  int64_t pending_peak_ = 0;
  int64_t pending_resolved_at_finalize_ = 0;
  bool finalized_ = false;
};

}  // namespace ftx_causal

#endif  // FTX_SRC_OBS_CAUSAL_AUDITOR_H_
