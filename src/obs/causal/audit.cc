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
// Flight dumps retained; later incidents only count.
constexpr int kMaxIncidents = 8;
// Findings listed in the report; the rest only count.
constexpr size_t kMaxFindingsInReport = 16;
// ND->commit flow arrows drawn per process per commit window (extras are
// counted, not drawn — a log-nothing protocol would flood the trace).
constexpr size_t kMaxPendingNdFlows = 32;

}  // namespace

CausalAudit::CausalAudit(int num_processes, std::function<int64_t()> now_ns,
                         ftx_obs::Tracer* tracer, CausalAuditOptions options)
    : num_processes_(num_processes),
      now_ns_(std::move(now_ns)),
      tracer_(tracer),
      ledger_(options.flight_capacity),
      auditor_(num_processes),
      flight_(&ledger_, kMaxIncidents) {
  FTX_CHECK_GT(num_processes, 0);
  FTX_CHECK(now_ns_ != nullptr);
  decisions_.resize(static_cast<size_t>(num_processes));
  pending_nd_flows_.resize(static_cast<size_t>(num_processes));
}

void CausalAudit::StageCommitCosts(int pid, const CommitCosts& costs) {
  staged_costs_ = std::make_pair(pid, costs);
}

void CausalAudit::OnTraceEvent(ftx_sm::EventRef ref, const ftx_sm::TraceEvent& ev,
                               const ftx_sm::VectorClock& clock) {
  FTX_CHECK_MSG(!finalized_, "trace event after CausalAudit::Finalize");
  const int64_t now = now_ns_();
  const ftx::TimePoint at(now);
  const int pid = ref.process;

  LedgerEntry entry;
  entry.ref = ref;
  entry.kind = ev.kind;
  entry.logged = ev.logged;
  entry.message_id = ev.message_id;
  entry.atomic_group = ev.atomic_group;
  entry.label = ev.label;
  entry.sim_time_ns = now;
  entry.clock = clock;
  if (ev.kind == ftx_sm::EventKind::kCommit && staged_costs_.has_value() &&
      staged_costs_->first == pid) {
    entry.has_costs = true;
    entry.costs = staged_costs_->second;
    staged_costs_.reset();
  }
  const int64_t seq = ledger_.Append(std::move(entry));

  auditor_.OnEvent(ref, ev, clock);
  // Every fresh finding becomes an incident with the downstream event as
  // the causal focus — the dump marks the chain that reaches it, including
  // the uncovered ND event the reason string names.
  const auto& findings = auditor_.findings();
  for (; prior_findings_ < static_cast<int64_t>(findings.size()); ++prior_findings_) {
    const SaveWorkFinding& finding = findings[static_cast<size_t>(prior_findings_)];
    flight_.RecordIncident("save-work violation: " + finding.ToString(), finding.downstream);
  }

  if (ev.kind == ftx_sm::EventKind::kCrash) {
    flight_.RecordIncident("crash p" + std::to_string(pid) +
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
      const LedgerEntry* commit_entry = ledger_.FindByRef(ref);
      if (commit_entry != nullptr && commit_entry->has_costs) {
        const CommitCosts& costs = commit_entry->costs;
        const ftx::TimePoint sample_at(costs.end_ns);
        tracer_->CounterSample(pid, "dc", "commit cost (ns)", sample_at,
                               {{"fixed", static_cast<double>(costs.fixed_ns)},
                                {"before_image", static_cast<double>(costs.before_image_ns)},
                                {"reprotect", static_cast<double>(costs.reprotect_ns)},
                                {"persist", static_cast<double>(costs.persist_ns)}});
        tracer_->CounterSample(pid, "dc", "commit payload", sample_at,
                               {{"pages", static_cast<double>(costs.pages)},
                                {"bytes", static_cast<double>(costs.payload_bytes)}});
      }
    }
    pending_flows.clear();
  }
}

void CausalAudit::OnProtocolDecision(int pid, ftx_proto::AppEvent event,
                                     const ftx_proto::CommitDecision& decision) {
  (void)event;
  FTX_CHECK(pid >= 0 && pid < num_processes_);
  DecisionTally& tally = decisions_[static_cast<size_t>(pid)];
  ++tally.decides;
  tally.commit_before += decision.commit_before ? 1 : 0;
  tally.commit_after += decision.commit_after ? 1 : 0;
  tally.coordinated += decision.coordinated ? 1 : 0;
  tally.log_event += decision.log_event ? 1 : 0;
  tally.flush_log_before += decision.flush_log_before ? 1 : 0;
}

void CausalAudit::OnMessage(int64_t payload_bytes) {
  ++messages_;
  message_bytes_ += payload_bytes;
}

void CausalAudit::OnRecovery(int pid, const char* what, int64_t cost_ns) {
  LedgerEntry entry;
  entry.note = true;
  entry.label = std::string(what) + " p" + std::to_string(pid) +
                " cost=" + std::to_string(cost_ns) + "ns";
  entry.sim_time_ns = now_ns_();
  ledger_.Append(std::move(entry));
}

void CausalAudit::RecordIncident(const std::string& reason,
                                 const std::optional<ftx_sm::EventRef>& focus) {
  flight_.RecordIncident(reason, focus);
}

void CausalAudit::Finalize() {
  if (finalized_) {
    return;
  }
  auditor_.Finalize();
  const auto& findings = auditor_.findings();
  for (; prior_findings_ < static_cast<int64_t>(findings.size()); ++prior_findings_) {
    const SaveWorkFinding& finding = findings[static_cast<size_t>(prior_findings_)];
    flight_.RecordIncident("save-work violation: " + finding.ToString(), finding.downstream);
  }
  finalized_ = true;
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
  for (const FlightRecorder::Incident& incident : flight_.incidents()) {
    ftx_obs::Json item = ftx_obs::Json::Object();
    item.Set("reason", ftx_obs::Json(incident.reason));
    item.Set("dump", ftx_obs::Json(incident.dump));
    incidents.Push(std::move(item));
  }
  out.Set("incidents", std::move(incidents));
  out.Set("incidents_total", ftx_obs::Json(flight_.total_incidents()));

  DecisionTally total;
  for (const DecisionTally& tally : decisions_) {
    total.decides += tally.decides;
    total.commit_before += tally.commit_before;
    total.commit_after += tally.commit_after;
    total.coordinated += tally.coordinated;
    total.log_event += tally.log_event;
    total.flush_log_before += tally.flush_log_before;
  }
  ftx_obs::Json decisions = ftx_obs::Json::Object();
  decisions.Set("decides", ftx_obs::Json(total.decides));
  decisions.Set("commit_before", ftx_obs::Json(total.commit_before));
  decisions.Set("commit_after", ftx_obs::Json(total.commit_after));
  decisions.Set("coordinated", ftx_obs::Json(total.coordinated));
  decisions.Set("log_event", ftx_obs::Json(total.log_event));
  decisions.Set("flush_log_before", ftx_obs::Json(total.flush_log_before));
  out.Set("decisions", std::move(decisions));

  out.Set("messages", ftx_obs::Json(messages_));
  out.Set("message_bytes", ftx_obs::Json(message_bytes_));

  ftx_obs::Json ledger = ftx_obs::Json::Object();
  ledger.Set("appended", ftx_obs::Json(ledger_.total_appended()));
  ledger.Set("capacity", ftx_obs::Json(static_cast<int64_t>(ledger_.capacity())));
  out.Set("ledger", std::move(ledger));
  out.Set("nd_flows_dropped", ftx_obs::Json(nd_flows_dropped_));
  return out;
}

}  // namespace ftx_causal
