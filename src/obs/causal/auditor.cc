#include "src/obs/causal/auditor.h"

#include <algorithm>

#include "src/common/check.h"

namespace ftx_causal {

std::string RefToString(const ftx_sm::EventRef& ref) {
  if (!ref.valid()) {
    return "-";
  }
  return "p" + std::to_string(ref.process) + "#" + std::to_string(ref.index);
}

std::string SaveWorkFinding::ToString() const {
  std::string out = "uncovered ";
  out += ftx_sm::EventKindName(nd_kind);
  out += " " + RefToString(nd);
  out += visible_rule ? " causally precedes visible " : " causally precedes commit ";
  out += RefToString(downstream);
  if (resolved_at_finalize) {
    out += " (no covering commit by end of run)";
  }
  return out;
}

SaveWorkAuditor::SaveWorkAuditor(int num_processes) {
  FTX_CHECK_GT(num_processes, 0);
  const auto n = static_cast<size_t>(num_processes);
  nd_pos_.resize(n);
  nd_kind_.resize(n);
  commit_pos_.resize(n);
  commit_group_.resize(n);
  pending_.resize(n);
}

void SaveWorkAuditor::OnEvent(const ftx_sm::EventRef& ref, const ftx_sm::TraceEvent& ev,
                              const ftx_sm::VectorClock& clock) {
  FTX_CHECK(!finalized_);
  FTX_CHECK(ref.valid() && static_cast<size_t>(ref.process) < nd_pos_.size());
  ++events_seen_;
  const auto p = static_cast<size_t>(ref.process);
  const int64_t pos = ref.index + 1;

  if (ev.kind == ftx_sm::EventKind::kCommit) {
    // Record the commit before the downstream scan so a commit trivially
    // covers its own process's earlier NDs (the offline cover can be the
    // downstream commit itself).
    commit_pos_[p].push_back(pos);
    commit_group_[p].push_back(ev.atomic_group);
    // This commit is the first commit after every ND a pending check on p
    // was waiting for (no earlier commit existed past the check's K), so it
    // is the cover: only the atomic-group rule can apply — being appended
    // after the downstream event, it cannot happen-before it.
    for (const PendingCheck& check : pending_[p]) {
      const bool covered = ev.atomic_group >= 0 && check.downstream_group >= 0 &&
                           ev.atomic_group <= check.downstream_group;
      if (!covered) {
        EmitWindow(check, /*at_finalize=*/false);
      }
    }
    pending_open_ -= static_cast<int64_t>(pending_[p].size());
    pending_[p].clear();
  }

  if (ftx_sm::IsNonDeterministic(ev.kind) && !ev.logged) {
    ++nd_unlogged_;
    nd_pos_[p].push_back(pos);
    nd_kind_[p].push_back(ev.kind);
  }

  if (ev.kind == ftx_sm::EventKind::kVisible || ev.kind == ftx_sm::EventKind::kCommit) {
    CheckDownstream(ref, ev, clock);
  }
}

void SaveWorkAuditor::CheckDownstream(const ftx_sm::EventRef& ref, const ftx_sm::TraceEvent& ev,
                                      const ftx_sm::VectorClock& clock) {
  ++downstream_checked_;
  const bool visible_rule = ev.kind == ftx_sm::EventKind::kVisible;
  for (size_t p = 0; p < nd_pos_.size(); ++p) {
    const int64_t k = clock.Get(static_cast<ftx_sm::ProcessId>(p));
    if (k <= 0) {
      continue;
    }
    const auto& commits = commit_pos_[p];
    auto cit = std::upper_bound(commits.begin(), commits.end(), k);
    const int64_t last_commit_pos = cit == commits.begin() ? 0 : *(cit - 1);
    const auto& nds = nd_pos_[p];
    auto lo = std::upper_bound(nds.begin(), nds.end(), last_commit_pos);
    auto hi = std::upper_bound(nds.begin(), nds.end(), k);
    if (lo == hi) {
      continue;  // every ND of p in v's past is hb-covered
    }
    PendingCheck check;
    check.nd_owner = static_cast<ftx_sm::ProcessId>(p);
    check.nd_positions.assign(lo, hi);
    check.nd_kinds.assign(nd_kind_[p].begin() + (lo - nds.begin()),
                          nd_kind_[p].begin() + (hi - nds.begin()));
    check.downstream = ref;
    check.visible_rule = visible_rule;
    check.downstream_group = ev.atomic_group;
    if (cit != commits.end()) {
      // The cover exists (first commit of p past K); it cannot
      // happen-before v (its position exceeds v's clock component), so only
      // the atomic-group rule applies — and its verdict is final.
      const int64_t cover_group = commit_group_[p][static_cast<size_t>(cit - commits.begin())];
      const bool covered = cover_group >= 0 && check.downstream_group >= 0 &&
                           cover_group <= check.downstream_group;
      if (!covered) {
        EmitWindow(check, /*at_finalize=*/false);
      }
    } else {
      pending_[p].push_back(std::move(check));
      ++pending_open_;
      pending_peak_ = std::max(pending_peak_, pending_open_);
    }
  }
}

void SaveWorkAuditor::EmitWindow(const PendingCheck& check, bool at_finalize) {
  for (size_t i = 0; i < check.nd_positions.size(); ++i) {
    SaveWorkFinding finding;
    // Positions are index + 1 on the ND owner's process; recover the ref.
    finding.nd = ftx_sm::EventRef{check.nd_owner, check.nd_positions[i] - 1};
    finding.nd_kind = check.nd_kinds[i];
    finding.downstream = check.downstream;
    finding.visible_rule = check.visible_rule;
    finding.resolved_at_finalize = at_finalize;
    findings_.push_back(std::move(finding));
  }
}

void SaveWorkAuditor::Finalize() {
  if (finalized_) {
    return;
  }
  finalized_ = true;
  for (auto& per_process : pending_) {
    for (const PendingCheck& check : per_process) {
      ++pending_resolved_at_finalize_;
      EmitWindow(check, /*at_finalize=*/true);
    }
    per_process.clear();
  }
  pending_open_ = 0;
}

int64_t SaveWorkAuditor::CountVisibleRule() const {
  int64_t n = 0;
  for (const SaveWorkFinding& f : findings_) {
    if (f.visible_rule) {
      ++n;
    }
  }
  return n;
}

int64_t SaveWorkAuditor::CountOrphanRule() const {
  return static_cast<int64_t>(findings_.size()) - CountVisibleRule();
}

}  // namespace ftx_causal
