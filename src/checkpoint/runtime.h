// Discount Checking runtime: one instance per process.
//
// The runtime is the reproduction of the paper's Discount Checking library
// (§3) plus its DC-disk variant:
//
//  * Application state lives in a Vista segment; write barriers log
//    before-images; commit = copy the register file, atomically discard the
//    undo log, reset page protections (cost model: fixed + per-dirty-page).
//  * Kernel state is preserved by intercepting syscalls, capturing their
//    parameters, and reconstructing kernel state by replay during recovery.
//  * DC-disk writes a redo record (dirty pages + metadata) synchronously to
//    a modeled disk at each commit and recovers from the redo chain: it
//    charges a read of every record and installs each page's newest image.
//    Nothing reads its before-images, so its segment keeps none.
//  * Non-deterministic user input and receives can be logged to render them
//    deterministic (the -LOG protocols); recovery replays the log.
//
// The runtime intercepts every application event through ProcessEnv,
// consults the process's Save-work protocol for commit/log decisions,
// appends the event to the computation-wide trace, and charges simulated
// time. It also implements rollback + reexecution for failures.
//
// Observers hear from the runtime, through its Environment pointers, about
// what it performs itself: steps, commits, protocol decisions, message
// sends, crash events and ND-log flushes. Stop failures and recoveries are
// reported by the Computation, which schedules them.

#ifndef FTX_SRC_CHECKPOINT_RUNTIME_H_
#define FTX_SRC_CHECKPOINT_RUNTIME_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/app.h"
#include "src/obs/causal/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"
#include "src/protocol/protocol.h"
#include "src/recovery/output_recorder.h"
#include "src/sim/kernel.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/statemachine/trace.h"
#include "src/storage/redo_log.h"
#include "src/storage/stable_store.h"
#include "src/vista/heap.h"
#include "src/vista/segment.h"

namespace ftx_causal {
class CausalAudit;
}  // namespace ftx_causal

namespace ftx_dc {

// Cost model knobs (see DESIGN.md §5 for calibration rationale).
struct RuntimeCosts {
  // Per intercepted event: syscall-interposition overhead.
  ftx::Duration event_intercept = ftx::Microseconds(1);
  // First touch of a page since the last commit: COW trap + before-image
  // copy (charged at commit, per dirty page, equivalent in total).
  ftx::Duration page_trap = ftx::Microseconds(10);
  // Re-protecting one page at commit.
  ftx::Duration page_reprotect = ftx::Microseconds(2);
  // Persisting one ND log record (Rio memory speed).
  ftx::Duration nd_log_record = ftx::Microseconds(3);
  // Basic syscall service time.
  ftx::Duration syscall_service = ftx::Microseconds(2);
  // Rollback handling (signal, log scan) at recovery, plus per-page restore.
  ftx::Duration recovery_fixed = ftx::Milliseconds(1);
  ftx::Duration recovery_per_page = ftx::Microseconds(3);
};

enum class RuntimeMode {
  kBaseline,     // no interception, no commits: the unrecoverable version
  kRecoverable,  // full Discount Checking
};

struct RuntimeStats {
  int64_t commits = 0;
  int64_t coordinated_commits = 0;  // commits performed as a 2PC participant
  ftx::Duration commit_time;
  int64_t pages_committed = 0;
  int64_t bytes_persisted = 0;
  int64_t events = 0;
  int64_t nd_events = 0;
  int64_t visible_events = 0;
  int64_t sends = 0;
  int64_t receives = 0;
  int64_t logged_events = 0;
  int64_t rollbacks = 0;
  ftx::Duration recovery_time;
  int64_t crash_events = 0;       // Crash() calls
  int64_t fault_activations = 0;  // MarkFaultActivation() calls
  int64_t ndlog_flushes = 0;      // ND-log flushes forced before an event
};

// Everything a Runtime needs from the surrounding computation. sim,
// network, kernel and recorder are required in every mode; trace and store
// (and a protocol) are additionally required in recoverable mode. The
// Runtime constructor aborts naming the first missing one. Everything else
// is optional.
struct Environment {
  ftx_sim::Simulator* sim = nullptr;
  ftx_sim::Network* network = nullptr;
  ftx_sim::KernelSim* kernel = nullptr;
  ftx_sm::Trace* trace = nullptr;
  ftx_rec::OutputRecorder* recorder = nullptr;
  ftx_store::StableStore* store = nullptr;
  ftx_store::RedoLog* redo_log = nullptr;
  // Group commit over redo_log: every DC-disk commit stages its record,
  // and a whole window persists under one sync pair (flushed before
  // anything externally visible escapes — the Save-work invariant is
  // untouched). A one-record window is the paper's commit.
  ftx_store::BatchPolicy group_commit;
  // Initiates a coordinated commit round over the given participant scope.
  std::function<void(ftx_proto::CoordinationScope)> coordinated_commit;
  // Atomic group id of the most recent coordinated round (2PC bookkeeping).
  std::function<int64_t()> latest_atomic_group;
  ftx_obs::Registry* metrics = nullptr;      // optional
  ftx_obs::Tracer* tracer = nullptr;         // optional
  ftx_causal::CausalAudit* audit = nullptr;  // optional
};

class Runtime : public ProcessEnv {
 public:
  Runtime(int pid, int num_processes, App* app, std::unique_ptr<ftx_proto::Protocol> protocol,
          Environment env, RuntimeMode mode, RuntimeCosts costs = {});

  // --- lifecycle (driven by the Computation runner) ---

  // Runs App::Init and commits checkpoint #0.
  void Initialize();

  // Runs one App::Step inside cost accounting; returns the outcome and the
  // simulated time the step consumed (events + pending overheads).
  StepOutcome RunStep(ftx::Duration* cost_out);

  // Stop failure: the process ceases execution (no state corruption).
  void Kill();

  // Rolls back to the last committed state and resumes execution. For Rio
  // the segment's undo log restores state; for DC-disk the segment is
  // rebuilt from the records of the redo chain that still hold pages,
  // while the charge covers reading every record. Kernel state is
  // reconstructed by syscall replay. Returns the simulated recovery latency
  // and leaves its phases in last_recovery(). The caller reports the
  // recovery to the observers; Kill, Recover and RestartFromScratch report
  // to none.
  ftx::Duration Recover();

  // Total loss of committed state (an OS crash with a volatile store): the
  // process restarts from its initial state, its input script from the
  // beginning. Returns the restart latency.
  ftx::Duration RestartFromScratch();

  // Local commit; exposed for 2PC participation (the coordinator commits
  // other processes through this). Returns the commit's simulated cost,
  // which is also added to pending overhead and charged at this process's
  // next step.
  ftx::Duration CommitNow(bool coordinated, int64_t atomic_group = -1);

  // --- 2PC coordination hooks (used by the Computation runner) ---

  // Appends a coordination-protocol message event (prepare/ack) to the
  // trace. These events make the happens-before edges of the coordinated
  // commit explicit, which is what lets remote commits cover remote ND
  // events under the Save-work checker.
  void AppendCoordinationEvent(ftx_sm::EventKind kind, int64_t message_id);

  // Adds simulated time to the currently-running step (the coordinator
  // charges the whole 2PC round to the process that triggered it).
  void ChargeToStep(ftx::Duration cost);

  bool alive() const { return alive_; }
  bool done() const { return done_; }
  const RuntimeStats& stats() const { return stats_; }
  // Phase decomposition of the most recent recovery (zeroed until one runs).
  const ftx_causal::RecoveryPhases& last_recovery() const { return last_recovery_; }
  ftx_proto::Protocol& protocol() { return *protocol_; }
  App& app() { return *app_; }

  // Scripted user input (the workload's keystrokes/commands).
  void SetInputScript(std::vector<ftx::Bytes> script);

  // --- ProcessEnv ---
  int pid() const override { return pid_; }
  int num_processes() const override { return num_processes_; }
  ftx::TimePoint Now() const override { return env_.sim->Now(); }
  ftx_vista::Segment& segment() override { return *segment_; }
  ftx_vista::SegmentHeap& heap() override { return *heap_; }
  ftx::TimePoint GetTimeOfDay() override;
  void DeliverSignal() override;
  std::optional<ftx::Bytes> ReadUserInput() override;
  void Print(ftx::Bytes payload) override;
  void Send(int dst, ftx::Bytes payload) override;
  std::optional<ftx_sim::Message> TryReceive() override;
  const ftx_sim::Message* PeekMessage() override;
  void Compute(ftx::Duration work) override;
  ftx::Result<int> Open(const std::string& path, bool writable) override;
  ftx::Status Close(int fd) override;
  ftx::Result<int64_t> WriteFile(int fd, int64_t bytes) override;
  ftx::Status Bind(uint16_t port) override;
  void Crash(const std::string& reason) override;
  void MarkFaultActivation() override;

 public:
  // Processes this one has sent to or received from since its last commit
  // (bit per pid); drives Coordinated Checkpointing's participant closure.
  uint64_t communicated_mask() const { return communicated_mask_; }

 private:
  struct NdLogRecord {
    enum class Kind : uint8_t { kUserInput, kReceive, kTimeOfDay, kEmptyPoll, kSignal };
    Kind kind = Kind::kUserInput;
    ftx::Bytes payload;          // input bytes
    ftx_sim::Message message;    // for receives
    ftx::TimePoint time_value;  // for gettimeofday

    int64_t CostBytes() const {
      switch (kind) {
        case Kind::kUserInput:
          return static_cast<int64_t>(payload.size()) + 16;
        case Kind::kReceive:
          return static_cast<int64_t>(message.payload.size()) + 32;
        case Kind::kTimeOfDay:
          return 16;
        case Kind::kEmptyPoll:
        case Kind::kSignal:
          return 8;
      }
      return 8;
    }
  };

  // One commit in the open window, not yet persisted: its DC-disk redo
  // record, and what the runtime still owes the observers — audit cost
  // breakdown, kCommit trace event, histogram sample, tracer span — once
  // the window's sync lands. The record is held by pointer so that a Rio
  // commit, which stages none, carries one null pointer instead of an empty
  // record.
  struct StagedCommit {
    bool coordinated = false;
    int64_t atomic_group = -1;
    int64_t pages = 0;
    int64_t payload_bytes = 0;
    ftx::Duration fixed_cost;
    ftx::Duration capture_cost;  // before-image copy + serialize/CRC; the
                                 // portion a pipelined implementation hides
                                 // under the persist of earlier records
    ftx::Duration reprotect_cost;
    ftx::TimePoint begin;  // simulated stage instant (reported interval start)
    std::unique_ptr<ftx_store::RedoRecord> record;  // DC-disk only; null on Rio
  };

  // Auxiliary (non-segment) state that must travel with commits.
  struct CommittedMeta {
    uint64_t registers[4] = {0, 0, 0, 0};  // synthetic register file image
    int64_t step_count = 0;
    size_t kernel_records = 0;
    size_t input_cursor = 0;
    size_t nd_consumed = 0;
  };

  // Protocol consultation before an event executes: performs any
  // commit-before (coordinated or local) and charges interception cost.
  // Recoverable mode only, like PostEvent, AppendTraceEvent and DoCommit.
  ftx_proto::CommitDecision PreEvent(ftx_proto::AppEvent event);

  // Trace recording + commit-after, once the event's action is done.
  void PostEvent(ftx_proto::AppEvent event, const ftx_proto::CommitDecision& decision,
                 int64_t message_id, bool logged, const char* label);

  // Appends an ND-log record, charging either a synchronous stable-store
  // append or (log_async) deferring the write into the pending batch.
  void AppendNdLog(NdLogRecord record, bool log_async);

  void AppendTraceEvent(ftx_proto::AppEvent event, int64_t message_id, bool logged,
                        const char* label);
  void Charge(ftx::Duration d) { step_cost_ += d; }
  // The simulated instant this process's accrued but not yet elapsed cost
  // reaches (the clock itself only advances between events).
  ftx::TimePoint AccruedNow() const {
    return Now() + (in_step_ ? step_cost_ : pending_overhead_);
  }
  bool InNdReplay() const { return nd_consumed_ < nd_log_.size(); }

  // Performs a deferred commit-after, if one is pending. Called at the next
  // intercepted event and at the end of each step. Deferring "commit
  // immediately after a non-deterministic event" to just before the next
  // event still upholds Save-work (the commit stays between the ND event
  // and everything downstream) while guaranteeing the application has
  // folded the event's result into its segment — the state-machine
  // equivalent of Discount Checking capturing registers and stack at the
  // true commit instant.
  void FlushPendingCommit();

  // Captures a commit and stages it into the open window, flushing the
  // window when env_.group_commit closes it, when the commit is
  // coordinated, and always on Rio. Returns the simulated cost, flush
  // included; the caller charges it.
  ftx::Duration DoCommit(bool coordinated, int64_t atomic_group = -1);

  // The one place commits are persisted and reported. Appends the open
  // window's redo records with one RedoLog::AppendBatch and charges one
  // StableStore::PersistCost over its summed payload (one pair of sync I/Os
  // on DC-disk), then reports every staged commit in stage order — audit
  // cost breakdown, kCommit trace event, histogram sample, tracer span —
  // and releases retained messages. Each commit reports fixed + capture +
  // re-protect + its share of the window charge.
  // `uncharged` is cost the caller has accrued but not yet charged (the
  // stage cost when DoCommit flushes), which the window's I/O waits for.
  // Returns the window's simulated cost after the pipeline overlap credit;
  // zero when nothing is staged. The caller charges it.
  ftx::Duration FlushCommitWindow(ftx::Duration uncharged = ftx::Duration());

  // Registers one per-process probe over each stats_ field (read as
  // "p<pid>.dc.*" and "p<pid>.faults.activations") and gets the shared
  // commit histogram below. Called from the constructor when env_.metrics is
  // set.
  void BindMetrics();

  int pid_;
  int num_processes_;
  App* app_;
  std::unique_ptr<ftx_proto::Protocol> protocol_;
  Environment env_;
  RuntimeMode mode_;
  RuntimeCosts costs_;

  std::unique_ptr<ftx_vista::Segment> segment_;
  std::unique_ptr<ftx_vista::SegmentHeap> heap_;

  bool alive_ = true;
  bool done_ = false;
  bool in_step_ = false;

  std::vector<ftx::Bytes> input_script_;
  size_t input_cursor_ = 0;

  // ND log (the -LOG protocols and the full loggers): survives failures up
  // to the flushed prefix; replayed on recovery. Asynchronously-written
  // records (Optimistic Logging) are lost by a crash until flushed.
  std::vector<NdLogRecord> nd_log_;
  size_t nd_consumed_ = 0;
  size_t flushed_log_records_ = 0;   // durable prefix of nd_log_
  int64_t unflushed_log_bytes_ = 0;  // cost of the pending async batch
  uint64_t communicated_mask_ = 0;

  int64_t step_count_ = 0;
  bool pending_commit_ = false;
  CommittedMeta committed_;
  // Commits in the open window, in stage order. A crash, kill or restart
  // drops them: they never became durable and were never reported
  // committed (all-or-prefix semantics).
  std::vector<StagedCommit> staged_;

  ftx::Duration step_cost_;
  ftx::Duration pending_overhead_;  // costs charged outside a step (2PC)

  RuntimeStats stats_;
  ftx_causal::RecoveryPhases last_recovery_;

  // The computation-wide "dc.commit_ns" histogram, shared across processes
  // via the registry's get-or-create semantics; null when no registry is
  // attached.
  ftx_obs::Histogram* commit_hist_ = nullptr;
};

}  // namespace ftx_dc

#endif  // FTX_SRC_CHECKPOINT_RUNTIME_H_
