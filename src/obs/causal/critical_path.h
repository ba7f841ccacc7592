// Causal critical-path extraction for crash-injected fleet runs.
//
// The causal audit answers "was this commit safe?"; the MTTR profiler
// answers "how long did recovery take in wall-clock?". Neither answers the
// fleet-scale question this module exists for: of everything a fault storm
// delayed, WHICH dependency chain bound the end-to-end outcome, and which
// process / which recovery phase on that chain is the one to optimize?
//
// The tracker observes the same Trace::Append stream as the causal audit
// (the Computation's one append observer feeds both; works in lean-trace
// mode since it never reads vector clocks) and propagates *taint* online:
//
//   * a crash taints its process from the crash instant;
//   * a send by a tainted process taints the message (send time recorded);
//   * a receive of a tainted message taints the receiver, recording the
//     (sender, send-time, receive-time) edge that first tainted it.
//
// Because the simulator executes events in global (time, seq) order, the
// first taint of each process is well defined and the whole propagation is
// O(1) state per process plus one id-map entry per tainted message: no full
// event log and none of the quadratic clock state lean traces exist to
// avoid, but not small either. Once a server crashes, every 2PC prepare
// from a tainted coordinator is a tainted send: one perfbench fleet-2pc
// iteration (16 servers x 5,000 clients, 39 crashes) records 497,472 of
// them. An entry is a 16-byte send site in pages of 1,024 ids (plus one
// presence bit), so that is 8-11 MB, O(tainted messages).
//
// Extraction walks backward from the LAST tainted commit through the
// first-taint edges to the crash that roots the chain, then attributes
// every span on the path to a phase:
//
//   detection      crash -> that process's recovery start (failure-detection
//                  + scheduling latency; the recovery_delay knob)
//   log_scan       recovery-log read (fixed seek + rotation share)
//   page_install   persisted-page/record transfer back into memory
//   undo_rollback  Rio-style undo of uncommitted in-place state
//   rebuild        application OnRecovered re-initialization
//   re_execution   post-recovery (or post-receive) work until the hop's
//                  outgoing send/commit
//   message        tainted send -> receive network latency
//
// The Computation reports stop failures (OnCrash) and every recovery it
// schedules (OnRecovery). The per-recovery phase splits are the runtime's
// RecoveryPhases — the actual simulated nanoseconds it charged, not
// estimates. The largest single span names the binding process and phase:
// the fleet-level MTTR bottleneck no aggregate layer can see.
//
// Like every observer in src/obs/, the tracker is strictly read-only: it
// never charges simulated time or schedules simulator work, so simulated
// quantities are byte-identical with it on or off, and its report is a pure
// function of the (layout-invariant) event order — byte-identical for any
// --jobs/--shards.

#ifndef FTX_SRC_OBS_CAUSAL_CRITICAL_PATH_H_
#define FTX_SRC_OBS_CAUSAL_CRITICAL_PATH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/id_map.h"
#include "src/obs/json.h"
#include "src/statemachine/trace.h"

namespace ftx_causal {

// The ftx.critical-path report schema version (nested under bench rows as
// "critical_path"; scripts/check_bench_json.py validates it).
inline constexpr int kCriticalPathSchemaVersion = 1;

// Hops listed in a report; longer paths report totals and the first hops.
inline constexpr int kMaxHopsInReport = 64;

// Simulated nanoseconds one Recover()/RestartFromScratch() charged per
// phase (Runtime::last_recovery()). The phases tile the returned recovery
// cost exactly: total_ns() equals it.
struct RecoveryPhases {
  int64_t log_scan_ns = 0;       // fixed rollback cost + per-record rotation waits
  int64_t page_install_ns = 0;   // redo payload transfer back into the segment
  int64_t undo_rollback_ns = 0;  // Rio per-page undo of uncommitted state
  int64_t rebuild_ns = 0;        // application OnRecovered recomputation
  int64_t records = 0;           // redo records read (DC-disk; released ones too) or 0
  int64_t total_ns() const {
    return log_scan_ns + page_install_ns + undo_rollback_ns + rebuild_ns;
  }
};

class CriticalPathTracker {
 public:
  // `now_ns` is the simulated clock (the Computation's simulator), read
  // only for events that record a time: crashes, tainted sends, tainted
  // receives and tainted commits.
  CriticalPathTracker(int num_processes, std::function<int64_t()> now_ns);

  // The Trace::Append observer body. The clock argument of the observer is
  // ignored (taint needs only message pairing), so lean traces work.
  void OnTraceEvent(ftx_sm::EventRef ref, const ftx_sm::TraceEvent& ev);

  // Stop failures never append a trace event (the process simply goes
  // silent), so the Computation reports them here; propagation crashes
  // arrive as kCrash trace events and must NOT also be reported.
  void OnCrash(int pid);

  // A completed recovery of `pid` spanning [start_ns, end_ns] of simulated
  // time, with the runtime's actual per-phase charge.
  void OnRecovery(int pid, int64_t start_ns, int64_t end_ns, const RecoveryPhases& phases);

  int64_t crashes() const { return crashes_; }
  int64_t tainted_processes() const;
  int64_t tainted_messages() const { return tainted_sends_.size(); }

  // One extracted span on the path (phase is one of the names above).
  struct Hop {
    int pid = -1;
    std::string phase;
    int64_t start_ns = 0;
    int64_t dur_ns = 0;
  };

  struct Path {
    bool found = false;            // false when no commit depends on a crash
    int root_pid = -1;             // the crash that roots the chain
    int64_t root_crash_ns = 0;
    int last_pid = -1;             // process of the last dependent commit
    int64_t last_commit_ns = 0;
    int64_t span_ns = 0;           // last_commit_ns - root_crash_ns
    int binding_pid = -1;          // process owning the largest span
    std::string binding_phase;     // phase of that largest span
    int64_t binding_ns = 0;
    // Phase totals over the whole path (keys are the phase names).
    std::map<std::string, int64_t> totals_ns;
    std::vector<Hop> hops;         // root crash -> last commit, in time order
    int64_t hops_total = 0;        // before truncation to kMaxHopsInReport
  };

  // Walks the taint edges backward from the last tainted commit. Pure
  // (const) and deterministic; callable any time after the run.
  Path Extract() const;

  // The structured "critical_path" report object embedded in --json rows:
  // {schema_version, crashes, tainted_processes, tainted_messages, found,
  //  root_pid, root_crash_ns, last_pid, last_commit_ns, span_ns,
  //  binding:{pid,phase,ns}, totals_ns:{...}, hops:[{pid,phase,start_ns,
  //  dur_ns}], hops_total}.
  ftx_obs::Json ToJson() const;

 private:
  struct Taint {
    bool tainted = false;
    int64_t at_ns = 0;        // first-taint time
    bool via_crash = false;   // true: own crash; false: tainted receive
    int from_pid = -1;        // sender of the tainting message
    int64_t send_ns = 0;      // its send time
    int64_t message_id = -1;
  };
  struct Recovery {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    RecoveryPhases phases;
  };
  struct SendInfo {
    int pid = -1;
    int64_t t_ns = 0;
  };

  void TaintProcess(int pid, const Taint& taint);

  int num_processes_;
  std::function<int64_t()> now_ns_;
  std::vector<Taint> taint_;                  // per pid
  std::vector<std::vector<Recovery>> recoveries_;  // per pid, in time order
  ftx::IdMap<SendInfo> tainted_sends_;             // message id -> send site
  int64_t crashes_ = 0;
  int last_commit_pid_ = -1;
  int64_t last_commit_ns_ = -1;
};

}  // namespace ftx_causal

#endif  // FTX_SRC_OBS_CAUSAL_CRITICAL_PATH_H_
