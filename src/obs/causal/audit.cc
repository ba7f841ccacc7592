#include "src/obs/causal/audit.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/sim_time.h"

namespace ftx_causal {
namespace {

// ND->commit flow ids live in their own range, disjoint from network
// message ids (small integers) and 2PC coordination ids (>= 1e15).
constexpr int64_t kNdFlowIdBase = 2000000000000000LL;
// Findings listed in the report; the rest only count.
constexpr size_t kMaxFindingsInReport = 16;
// ND->commit flow arrows drawn per process per commit window (extras are
// counted, not drawn — a log-nothing protocol would flood the trace).
constexpr size_t kMaxPendingNdFlows = 32;

}  // namespace

CausalAudit::CausalAudit(const ftx_sm::Trace* trace, std::function<int64_t()> now_ns,
                         ftx_obs::Tracer* tracer)
    : trace_(trace),
      now_ns_(std::move(now_ns)),
      tracer_(tracer),
      auditor_(trace->num_processes()) {
  FTX_CHECK_MSG(trace_->record_clocks(), "the causal audit reads every event's clock");
  FTX_CHECK(now_ns_ != nullptr);
  ring_.reserve(kRingCapacity);
  pending_nd_flows_.resize(static_cast<size_t>(trace_->num_processes()));
}

int64_t CausalAudit::Append(Entry entry) {
  const int64_t seq = appended_++;
  const auto slot = static_cast<size_t>(seq % kRingCapacity);
  if (slot < ring_.size()) {
    ring_[slot] = std::move(entry);
  } else {
    ring_.push_back(std::move(entry));
  }
  return seq;
}

void CausalAudit::StageCommitCosts(int pid, const CommitCosts& costs) {
  staged_costs_ = std::make_pair(pid, costs);
}

void CausalAudit::OnTraceEvent(ftx_sm::EventRef ref, const ftx_sm::TraceEvent& ev,
                               const ftx_sm::VectorClock& clock) {
  FTX_CHECK_MSG(!auditor_.finalized(), "trace event after CausalAudit::Finalize");
  const int64_t now = now_ns_();
  const ftx::TimePoint at(now);
  const int pid = ref.process;

  std::optional<CommitCosts> costs;
  if (ev.kind == ftx_sm::EventKind::kCommit && staged_costs_.has_value() &&
      staged_costs_->first == pid) {
    costs = staged_costs_->second;
    staged_costs_.reset();
  }
  const int64_t seq = Append(Entry{ev, now, costs, {}});

  auditor_.OnEvent(ref, ev, clock);
  RecordFindings();
  if (ev.kind == ftx_sm::EventKind::kCrash) {
    RecordIncident("crash p" + std::to_string(pid) +
                       (ev.label.empty() ? "" : ": " + std::string(ev.label)),
                   ref);
  }

  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  if (tracing) {
    if (ev.kind == ftx_sm::EventKind::kSend && ev.message_id >= 0) {
      tracer_->FlowStart(pid, ftx_obs::TraceLane::kStep, "causal", "msg", at, ev.message_id);
    } else if (ev.kind == ftx_sm::EventKind::kReceive && ev.message_id >= 0) {
      tracer_->FlowFinish(pid, ftx_obs::TraceLane::kStep, "causal", "msg", at, ev.message_id);
    }
  }
  auto& pending_flows = pending_nd_flows_[static_cast<size_t>(pid)];
  if (ftx_sm::IsNonDeterministic(ev.kind) && !ev.logged) {
    if (tracing) {
      if (pending_flows.size() < kMaxPendingNdFlows) {
        const int64_t flow_id = kNdFlowIdBase + seq;
        tracer_->FlowStart(pid, ftx_obs::TraceLane::kStep, "causal", "nd->commit", at, flow_id);
        pending_flows.push_back(flow_id);
      } else {
        ++nd_flows_dropped_;
      }
    }
  }
  if (ev.kind == ftx_sm::EventKind::kCommit) {
    if (tracing) {
      for (int64_t flow_id : pending_flows) {
        tracer_->FlowFinish(pid, ftx_obs::TraceLane::kStorage, "causal", "nd->commit", at,
                            flow_id);
      }
      if (costs.has_value()) {
        const ftx::TimePoint sample_at(costs->end_ns);
        tracer_->CounterSample(pid, "dc", "commit cost (ns)", sample_at,
                               {{"fixed", static_cast<double>(costs->fixed_ns)},
                                {"before_image", static_cast<double>(costs->before_image_ns)},
                                {"reprotect", static_cast<double>(costs->reprotect_ns)},
                                {"persist", static_cast<double>(costs->persist_ns)}});
        tracer_->CounterSample(pid, "dc", "commit payload", sample_at,
                               {{"pages", static_cast<double>(costs->pages)},
                                {"bytes", static_cast<double>(costs->payload_bytes)}});
      }
    }
    pending_flows.clear();
  }
}

void CausalAudit::OnProtocolDecision(const ftx_proto::CommitDecision& decision) {
  ++decisions_.decides;
  decisions_.commit_before += decision.commit_before ? 1 : 0;
  decisions_.commit_after += decision.commit_after ? 1 : 0;
  decisions_.coordinated += decision.coordinated ? 1 : 0;
  decisions_.log_event += decision.log_event ? 1 : 0;
  decisions_.flush_log_before += decision.flush_log_before ? 1 : 0;
}

void CausalAudit::OnMessage(int64_t payload_bytes) {
  ++messages_;
  message_bytes_ += payload_bytes;
}

void CausalAudit::OnRecovery(int pid, const char* what, int64_t cost_ns) {
  Entry note;
  note.sim_time_ns = now_ns_();
  note.note = std::string(what) + " p" + std::to_string(pid) + " cost=" + std::to_string(cost_ns) +
              "ns";
  Append(std::move(note));
}

std::string CausalAudit::Dump(const std::string& reason,
                              const std::optional<ftx_sm::EventRef>& focus) const {
  const int64_t first = appended_ - static_cast<int64_t>(ring_.size());
  // The focus's clock, while the focus is still in the ring.
  const ftx_sm::VectorClock* focus_clock = nullptr;
  if (focus.has_value()) {
    for (const Entry& entry : ring_) {
      if (entry.note.empty() && entry.event.process == focus->process &&
          entry.event.index == focus->index) {
        focus_clock = &trace_->ClockOf(*focus);
        break;
      }
    }
  }

  std::string out = "=== flight recorder: " + reason + " ===\n";
  out += "focus=" + (focus.has_value() ? RefToString(*focus) : std::string("-"));
  out += " events=" + std::to_string(first) + ".." + std::to_string(appended_ - 1) + " of " +
         std::to_string(appended_) + "\n";
  for (int64_t seq = first; seq < appended_; ++seq) {
    const Entry& entry = ring_[static_cast<size_t>(seq % kRingCapacity)];
    const ftx_sm::TraceEvent& ev = entry.event;
    const ftx_sm::EventRef ref{ev.process, ev.index};
    // Causal-chain mark: the event precedes (or is) the focus iff the
    // focus's clock has absorbed it.
    const bool on_chain =
        focus_clock != nullptr && entry.note.empty() && focus_clock->Get(ref.process) >= ref.index + 1;
    out += on_chain ? "* " : "  ";
    out += "[" + std::to_string(seq) + "] t=" + std::to_string(entry.sim_time_ns) + "ns ";
    if (!entry.note.empty()) {
      out += "note " + entry.note;
    } else {
      out += RefToString(ref);
      out += " ";
      out += ftx_sm::EventKindName(ev.kind);
      if (ev.logged) {
        out += "(logged)";
      }
      if (ev.message_id >= 0) {
        out += " msg=" + std::to_string(ev.message_id);
      }
      if (ev.atomic_group >= 0) {
        out += " group=" + std::to_string(ev.atomic_group);
      }
      if (!ev.label.empty()) {
        out += " \"";
        out += ev.label;
        out += "\"";
      }
      if (entry.costs.has_value()) {
        const CommitCosts& costs = *entry.costs;
        out += " cost{fixed=" + std::to_string(costs.fixed_ns) +
               " before_image=" + std::to_string(costs.before_image_ns) +
               " reprotect=" + std::to_string(costs.reprotect_ns) +
               " persist=" + std::to_string(costs.persist_ns) +
               " pages=" + std::to_string(costs.pages) +
               " bytes=" + std::to_string(costs.payload_bytes) + "}";
      }
      out += " clock=" + trace_->ClockOf(ref).ToString();
    }
    out += "\n";
  }
  return out;
}

void CausalAudit::RecordIncident(const std::string& reason,
                                 const std::optional<ftx_sm::EventRef>& focus) {
  ++total_incidents_;
  if (incidents_.size() < kMaxIncidents) {
    incidents_.push_back(Incident{reason, Dump(reason, focus)});
  }
}

void CausalAudit::RecordFindings() {
  // Every fresh finding becomes an incident with the downstream event as
  // the causal focus — the dump marks the chain that reaches it, including
  // the uncovered ND event the reason string names.
  const std::vector<SaveWorkFinding>& findings = auditor_.findings();
  for (; reported_findings_ < findings.size(); ++reported_findings_) {
    const SaveWorkFinding& finding = findings[reported_findings_];
    RecordIncident("save-work violation: " + finding.ToString(), finding.downstream);
  }
}

void CausalAudit::Finalize() {
  auditor_.Finalize();
  RecordFindings();
}

ftx_obs::Json CausalAudit::ToJson() const {
  ftx_obs::Json out = ftx_obs::Json::Object();
  out.Set("schema_version", ftx_obs::Json(kCausalAuditSchemaVersion));
  out.Set("events", ftx_obs::Json(auditor_.events_seen()));
  out.Set("nd_unlogged", ftx_obs::Json(auditor_.nd_unlogged()));
  out.Set("downstream_checked", ftx_obs::Json(auditor_.downstream_checked()));
  out.Set("pending_peak", ftx_obs::Json(auditor_.pending_peak()));
  out.Set("pending_at_finalize", ftx_obs::Json(auditor_.pending_resolved_at_finalize()));
  out.Set("violations", ftx_obs::Json(auditor_.violations()));
  out.Set("visible_rule", ftx_obs::Json(auditor_.CountVisibleRule()));
  out.Set("orphan_rule", ftx_obs::Json(auditor_.CountOrphanRule()));
  out.Set("finalized", ftx_obs::Json(auditor_.finalized()));

  ftx_obs::Json findings = ftx_obs::Json::Array();
  const auto& all = auditor_.findings();
  const size_t reported = std::min(all.size(), kMaxFindingsInReport);
  for (size_t i = 0; i < reported; ++i) {
    const SaveWorkFinding& f = all[i];
    ftx_obs::Json item = ftx_obs::Json::Object();
    item.Set("nd", ftx_obs::Json(RefToString(f.nd)));
    item.Set("kind", ftx_obs::Json(std::string(ftx_sm::EventKindName(f.nd_kind))));
    item.Set("downstream", ftx_obs::Json(RefToString(f.downstream)));
    item.Set("rule", ftx_obs::Json(f.visible_rule ? "visible" : "orphan"));
    item.Set("at_finalize", ftx_obs::Json(f.resolved_at_finalize));
    item.Set("detail", ftx_obs::Json(f.ToString()));
    findings.Push(std::move(item));
  }
  out.Set("findings", std::move(findings));
  out.Set("findings_truncated",
          ftx_obs::Json(static_cast<int64_t>(all.size() - reported)));

  ftx_obs::Json incidents = ftx_obs::Json::Array();
  for (const Incident& incident : incidents_) {
    ftx_obs::Json item = ftx_obs::Json::Object();
    item.Set("reason", ftx_obs::Json(incident.reason));
    item.Set("dump", ftx_obs::Json(incident.dump));
    incidents.Push(std::move(item));
  }
  out.Set("incidents", std::move(incidents));
  out.Set("incidents_total", ftx_obs::Json(total_incidents_));

  ftx_obs::Json decisions = ftx_obs::Json::Object();
  decisions.Set("decides", ftx_obs::Json(decisions_.decides));
  decisions.Set("commit_before", ftx_obs::Json(decisions_.commit_before));
  decisions.Set("commit_after", ftx_obs::Json(decisions_.commit_after));
  decisions.Set("coordinated", ftx_obs::Json(decisions_.coordinated));
  decisions.Set("log_event", ftx_obs::Json(decisions_.log_event));
  decisions.Set("flush_log_before", ftx_obs::Json(decisions_.flush_log_before));
  out.Set("decisions", std::move(decisions));

  out.Set("messages", ftx_obs::Json(messages_));
  out.Set("message_bytes", ftx_obs::Json(message_bytes_));

  ftx_obs::Json ledger = ftx_obs::Json::Object();
  ledger.Set("appended", ftx_obs::Json(appended_));
  ledger.Set("capacity", ftx_obs::Json(static_cast<int64_t>(kRingCapacity)));
  out.Set("ledger", std::move(ledger));
  out.Set("nd_flows_dropped", ftx_obs::Json(nd_flows_dropped_));
  return out;
}

}  // namespace ftx_causal
