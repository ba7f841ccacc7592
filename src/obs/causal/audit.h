// CausalAudit: the live causal audit a Computation owns.
//
// One instance per (recoverable) Computation, enabled by
// ComputationOptions::audit. It keeps:
//
//   * a ring of the last kRingCapacity appends — every trace event (ND,
//     visible, send/receive, commit, crash), via the Trace::Append observer
//     the Computation installs, plus the recovery notes the Computation
//     reports. An entry holds the trace's own TraceEvent, whose label points
//     into the trace's label pool, the simulated time of the append and,
//     for a commit, the cost attribution the runtime staged. The report
//     calls the ring the ledger;
//   * SaveWorkAuditor — the online Save-work/Save-work-orphan check,
//     cross-checking the protocol's actual commit decisions against the
//     causal frontier as the run executes;
//   * the flight recorder — on each incident (crash injection, abandoned
//     recovery, every Save-work finding, a torture violation) a text dump
//     of the ring, oldest to newest, marking with '*' every event that
//     causally precedes (or is) the incident's focus event. Event e precedes
//     focus f iff clock(f)[e.process] >= e.index + 1, and every clock is read
//     through Trace::ClockOf, so the dump shows the causal chain that led to
//     the incident, not just a time-ordered tail. The chain is marked only
//     while the focus event is still in the ring.
//
// Dumps are pure functions of the (deterministic) simulated run — integer
// sim times, event refs, clocks — so they are byte-identical across --jobs
// values; the CTest suite asserts that. Incidents are rendered from inside
// the trace's append observer, so a dump never calls Trace::event or
// anything else that folds the trace (a fold frees the log chunk holding
// the event the observer was handed).
//
// Each event reaches the audit from the code that performs it: the trace's
// append observer, the runtime (protocol decisions, commit costs, message
// sizes) and the Computation (recoveries, abandoned recoveries). Its trace,
// clock and tracer are fixed at construction.
//
// It also exports causal structure to the Chrome/Perfetto tracer when one
// is recording: send->receive flow arrows (id = message id), ND->commit
// attribution arrows (which commit saved which ND event), and per-commit
// cost-attribution counter tracks (before-image, re-protect, persist I/O)
// from the staged CommitCosts.
//
// The audit is strictly an observer: it never charges simulated time,
// schedules simulator work, or touches protocol state, so every simulated
// quantity is byte-identical with the audit on or off (CTest-asserted).
// All hooks are gated on a single `enabled` load so the disabled path
// costs one predictable branch (bench_hotpath.sh gates run audit-off).

#ifndef FTX_SRC_OBS_CAUSAL_AUDIT_H_
#define FTX_SRC_OBS_CAUSAL_AUDIT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/causal/auditor.h"
#include "src/obs/json.h"
#include "src/obs/trace_event.h"
#include "src/protocol/protocol.h"
#include "src/statemachine/trace.h"

namespace ftx_causal {

// The ftx.causal-audit report schema version (nested under bench rows as
// "audit"; scripts/check_bench_json.py validates it).
inline constexpr int kCausalAuditSchemaVersion = 1;

// Per-commit cost attribution, staged by the runtime just before the
// commit's trace event is appended. Durations are simulated nanoseconds and
// partition the commit's total charged cost; `before_image_ns` covers the
// COW trap + before-image copy the write barrier charged (billed at commit,
// per dirty page), `persist_ns` is the sync I/O (DC-disk) or memory-speed
// undo retirement (Rio), and `payload_bytes` is what the persist CRC'd.
struct CommitCosts {
  int64_t fixed_ns = 0;
  int64_t before_image_ns = 0;
  int64_t reprotect_ns = 0;
  int64_t persist_ns = 0;
  int64_t pages = 0;
  int64_t payload_bytes = 0;
  int64_t begin_ns = 0;  // simulated interval the commit occupies
  int64_t end_ns = 0;

  int64_t TotalNs() const { return fixed_ns + before_image_ns + reprotect_ns + persist_ns; }
};

class CausalAudit {
 public:
  // Appends the ring retains (the events a dump shows).
  static constexpr int kRingCapacity = 256;
  // Incident dumps retained; later incidents only count (the first
  // incidents are the diagnostic ones; a crash loop must not hoard memory).
  static constexpr size_t kMaxIncidents = 8;

  // `trace` is the audited trace: it must record clocks and outlive the
  // audit. `now_ns` is the simulated clock (the Computation's simulator),
  // read at every append. `tracer` is the Perfetto export target; flows and
  // counters are emitted only while it is enabled.
  CausalAudit(const ftx_sm::Trace* trace, std::function<int64_t()> now_ns,
              ftx_obs::Tracer* tracer);

  // The Trace::Append observer body (the Computation installs the
  // forwarding closure).
  void OnTraceEvent(ftx_sm::EventRef ref, const ftx_sm::TraceEvent& ev,
                    const ftx_sm::VectorClock& clock);

  // Stages cost attribution for the commit whose trace event the runtime is
  // about to append (same call stack, so one staged slot suffices).
  void StageCommitCosts(int pid, const CommitCosts& costs);

  // Every protocol consultation, tallied (the audit's view of the
  // protocol's actual decisions).
  void OnProtocolDecision(const ftx_proto::CommitDecision& decision);

  // One message sent, with its payload size (Runtime::Send reports each;
  // the report's message totals).
  void OnMessage(int64_t payload_bytes);

  // Recovery / restart completion annotations (ring notes; the
  // Computation reports each recovery it schedules).
  void OnRecovery(int pid, const char* what, int64_t cost_ns);

  // Dumps the ring for an incident and retains the dump, up to
  // kMaxIncidents. `focus`, when it names an event still in the ring,
  // selects the causal chain to mark. The Computation reports abandoned
  // recoveries; the torture engine reports violations.
  void RecordIncident(const std::string& reason,
                      const std::optional<ftx_sm::EventRef>& focus);

  // Resolves pending Save-work checks; called by Computation::Run at the
  // end.
  void Finalize();

  const SaveWorkAuditor& auditor() const { return auditor_; }
  int64_t violations() const { return auditor_.violations(); }

  struct Incident {
    std::string reason;
    std::string dump;
  };
  const std::vector<Incident>& incidents() const { return incidents_; }
  int64_t total_incidents() const { return total_incidents_; }
  // Appends so far (events and notes), retained or not.
  int64_t total_appended() const { return appended_; }

  // The structured "audit" report object embedded in --json rows:
  // {schema_version, events, nd_unlogged, downstream_checked, violations,
  //  visible_rule, orphan_rule, findings:[{nd,kind,downstream,rule,detail}],
  //  incidents:[{reason,dump}], decisions:{...}, messages, message_bytes,
  //  ledger:{appended, capacity}}.
  ftx_obs::Json ToJson() const;

 private:
  // One ring slot: a trace event with the simulated time of its append and,
  // for a commit, the costs its runtime staged; or a recovery note, whose
  // event is a default one.
  struct Entry {
    ftx_sm::TraceEvent event;
    int64_t sim_time_ns = 0;
    std::optional<CommitCosts> costs;
    std::string note;  // non-empty for a note
  };

  // Appends to the ring, evicting the oldest entry past kRingCapacity.
  // Returns the entry's sequence number.
  int64_t Append(Entry entry);
  std::string Dump(const std::string& reason,
                   const std::optional<ftx_sm::EventRef>& focus) const;
  // Turns every finding not yet reported into an incident.
  void RecordFindings();

  const ftx_sm::Trace* trace_;
  std::function<int64_t()> now_ns_;
  ftx_obs::Tracer* tracer_;

  std::vector<Entry> ring_;  // slot = sequence number % kRingCapacity
  int64_t appended_ = 0;
  SaveWorkAuditor auditor_;
  std::vector<Incident> incidents_;
  int64_t total_incidents_ = 0;
  size_t reported_findings_ = 0;

  struct DecisionTally {
    int64_t decides = 0;
    int64_t commit_before = 0;
    int64_t commit_after = 0;
    int64_t coordinated = 0;
    int64_t log_event = 0;
    int64_t flush_log_before = 0;
  };
  DecisionTally decisions_;
  int64_t messages_ = 0;
  int64_t message_bytes_ = 0;

  // Per-process ND flow ids awaiting their covering commit.
  std::vector<std::vector<int64_t>> pending_nd_flows_;
  int64_t nd_flows_dropped_ = 0;

  std::optional<std::pair<int, CommitCosts>> staged_costs_;
};

}  // namespace ftx_causal

#endif  // FTX_SRC_OBS_CAUSAL_AUDIT_H_
