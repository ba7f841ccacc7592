// CausalAudit: the live causal-audit assembly a Computation owns.
//
// One instance per (recoverable) Computation, enabled by
// ComputationOptions::audit. It wires together the three layers of the
// subsystem:
//
//   * CausalLedger — every trace event (ND, visible, send/receive, commit,
//     crash) mirrored into a bounded vector-clock-stamped ring, via the
//     Trace::Append observer the Computation installs, plus the recovery
//     notes the Computation reports and the per-commit cost attribution the
//     runtime stages;
//   * SaveWorkAuditor — the online Save-work/Save-work-orphan check,
//     cross-checking the protocol's actual commit decisions against the
//     causal frontier as the run executes;
//   * FlightRecorder — incident dumps (crash injection, abandoned
//     recovery, every Save-work finding) of the ring with the causal chain
//     marked.
//
// Each event reaches the audit from the code that performs it: the trace's
// append observer, the runtime (protocol decisions, commit costs, message
// sizes) and the Computation (recoveries, abandoned recoveries). Its clock
// and tracer are fixed at construction.
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

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/causal/auditor.h"
#include "src/obs/causal/flight_recorder.h"
#include "src/obs/causal/ledger.h"
#include "src/obs/json.h"
#include "src/obs/trace_event.h"
#include "src/protocol/protocol.h"
#include "src/statemachine/trace.h"

namespace ftx_causal {

struct CausalAuditOptions {
  int flight_capacity = 256;  // ledger ring size (events per dump)
};

// The ftx.causal-audit report schema version (nested under bench rows as
// "audit"; scripts/check_bench_json.py validates it).
inline constexpr int kCausalAuditSchemaVersion = 1;

class CausalAudit {
 public:
  // `now_ns` is the simulated clock (the Computation's simulator), read at
  // every ledger append. `tracer` is the Perfetto export target; flows and
  // counters are emitted only while it is enabled.
  CausalAudit(int num_processes, std::function<int64_t()> now_ns, ftx_obs::Tracer* tracer,
              CausalAuditOptions options = {});

  // The Trace::Append observer body (the Computation installs the
  // forwarding closure).
  void OnTraceEvent(ftx_sm::EventRef ref, const ftx_sm::TraceEvent& ev,
                    const ftx_sm::VectorClock& clock);

  // Stages cost attribution for the commit whose trace event the runtime is
  // about to append (same call stack, so one staged slot suffices).
  void StageCommitCosts(int pid, const CommitCosts& costs);

  // Every protocol consultation, tallied per process (the audit's view of
  // the protocol's actual decisions).
  void OnProtocolDecision(int pid, ftx_proto::AppEvent event,
                          const ftx_proto::CommitDecision& decision);

  // One message sent, with its payload size (Runtime::Send reports each;
  // the report's message totals).
  void OnMessage(int64_t payload_bytes);

  // Recovery / restart completion annotations (ledger notes; the
  // Computation reports each recovery it schedules).
  void OnRecovery(int pid, const char* what, int64_t cost_ns);

  // External incident (the Computation reports abandoned recoveries; the
  // torture engine reports violations).
  void RecordIncident(const std::string& reason,
                      const std::optional<ftx_sm::EventRef>& focus);

  // Resolves pending Save-work checks; called by Computation::Run at the
  // end. Idempotent.
  void Finalize();

  const SaveWorkAuditor& auditor() const { return auditor_; }
  const CausalLedger& ledger() const { return ledger_; }
  const FlightRecorder& flight() const { return flight_; }
  int64_t violations() const { return auditor_.violations(); }

  // The structured "audit" report object embedded in --json rows:
  // {schema_version, events, nd_unlogged, downstream_checked, violations,
  //  visible_rule, orphan_rule, findings:[{nd,kind,downstream,rule,detail}],
  //  incidents:[{reason,dump}], decisions:{...}, messages, message_bytes}.
  ftx_obs::Json ToJson() const;

 private:
  struct DecisionTally {
    int64_t decides = 0;
    int64_t commit_before = 0;
    int64_t commit_after = 0;
    int64_t coordinated = 0;
    int64_t log_event = 0;
    int64_t flush_log_before = 0;
  };

  int num_processes_;
  std::function<int64_t()> now_ns_;
  ftx_obs::Tracer* tracer_;

  CausalLedger ledger_;
  SaveWorkAuditor auditor_;
  FlightRecorder flight_;

  std::vector<DecisionTally> decisions_;
  int64_t messages_ = 0;
  int64_t message_bytes_ = 0;

  // Per-process ND flow ids awaiting their covering commit.
  std::vector<std::vector<int64_t>> pending_nd_flows_;
  int64_t nd_flows_dropped_ = 0;

  std::optional<std::pair<int, CommitCosts>> staged_costs_;
  int64_t prior_findings_ = 0;  // findings already turned into incidents
  bool finalized_ = false;
};

}  // namespace ftx_causal

#endif  // FTX_SRC_OBS_CAUSAL_AUDIT_H_
