// Computation: the top-level assembly of the failure-transparency system.
//
// A Computation owns the simulator, network, kernel, trace, output recorder,
// stable stores, and one Discount Checking runtime per application process.
// It schedules process steps on simulated time, implements the two-phase
// commit the CPV-2PC/CBNDV-2PC protocols request, injects stop failures, and
// recovers failed processes.
//
// It also owns every observer (metrics registry, tracer, causal audit,
// critical-path tracker, tsdb), and each observer hears an event from the
// code that performs it: executed events through the trace's one append
// observer, commits and protocol internals through the runtimes'
// Environment pointers, and the event loop, stop failures and recoveries
// from the Computation itself. The simulator and the network know no
// observer.
//
// This is the library's primary public entry point; see also
// src/core/experiment.h for the one-call experiment wrappers the benches
// and examples use.

#ifndef FTX_SRC_CORE_COMPUTATION_H_
#define FTX_SRC_CORE_COMPUTATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/app.h"
#include "src/checkpoint/runtime.h"
#include "src/obs/causal/audit.h"
#include "src/obs/causal/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"
#include "src/obs/tsdb/tsdb.h"
#include "src/protocol/protocol.h"
#include "src/recovery/output_recorder.h"
#include "src/sim/kernel.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/statemachine/trace.h"
#include "src/storage/redo_log.h"
#include "src/storage/stable_store.h"

namespace ftx {

enum class StoreKind {
  kRio,   // Discount Checking on Rio reliable memory
  kDisk,  // DC-disk: synchronous redo log on a modeled disk per machine
  kVolatileMemory,  // memory-speed commits that do NOT survive OS crashes
                    //   (the contrast that motivates Rio)
};

struct ComputationOptions {
  uint64_t seed = 1;
  // The name of any ftx_proto::ProtocolRules() row. Ignored in baseline
  // mode.
  std::string protocol = "cpvs";
  StoreKind store = StoreKind::kRio;
  ftx_dc::RuntimeMode mode = ftx_dc::RuntimeMode::kRecoverable;
  ftx_dc::RuntimeCosts costs;
  // DC-disk only: the modeled disk of every machine (bench/ablation_cost_model
  // sweeps its seek time).
  ftx_store::DiskParameters disk;
  // Number of contiguous-pid shards for the partitioned event engine
  // (src/sim/partition.h). Simulated results are byte-identical for every
  // value — the merge front replays the monolithic event order — so this is
  // purely a fleet-scale layout knob. Uniform partition; must be in
  // [1, num_processes].
  int shards = 1;
  // Fleet-scale trace mode: keep the replayable per-process event log but
  // skip the dense vector-clock snapshots (O(N) per event — quadratic
  // memory at 10k processes). Commit/rollback replay is unaffected;
  // ClockOf/EventHappensBefore (and therefore the causal audit) are
  // unavailable. Ignored (full clocks kept) when audit is on.
  bool lean_trace = false;
  // DC-disk only: group-commit batching policy. Every DC-disk runtime
  // stages its commits' redo records, and each window persists under a
  // single sync pair; the runtime forces a flush before any visible/send
  // event, so Save-work is unaffected. The default one-record window is
  // one sync pair per commit, the paper's DC-disk. Larger windows change
  // the disk write schedule and therefore simulated commit latencies, so
  // golden-reproducing runs keep the default.
  ftx_store::BatchPolicy group_commit;
  // Delay from a crash event (propagation failure) to its recovery.
  Duration recovery_delay = Milliseconds(50);
  // A process that keeps crashing after this many recoveries is declared
  // unrecoverable (the fault study's "failed recovery" outcome).
  int max_recovery_attempts = 3;
  // Run limit (simulated).
  Duration max_sim_time = Seconds(7200);
  // Simulated-timeline tracing (steps, commits, 2PC rounds, crashes,
  // recoveries). A non-empty trace_path enables the tracer, and Run() writes
  // a Chrome trace_event JSON file there (open in Perfetto /
  // chrome://tracing). Callers may also enable tracer() before Run().
  std::string trace_path;
  // Live causal audit (src/obs/causal/): online Save-work verification, a
  // crash flight recorder over a ring of the trace's events, per-commit cost
  // attribution. Strictly observational — simulated quantities are
  // byte-identical with the audit on or off. Recoverable mode only (baseline
  // runs have no trace to audit). Off by default; tests and the --audit
  // bench flag turn it on.
  bool audit = false;
  // Simulated-time telemetry (src/obs/tsdb/): sample every registered
  // counter/gauge series on a fixed sim-time cadence; Run() hands the tsdb
  // the next event's time before executing it. Strictly observational (the
  // samples only read state), so simulated quantities are byte-identical
  // with it on or off, and the sampled series itself is byte-identical for
  // any shards value.
  // Enabled by `timeseries` or by a non-empty timeseries_path (the JSONL
  // export Run() writes there).
  bool timeseries = false;
  ftx_obs::TimeSeriesOptions timeseries_options;
  std::string timeseries_path;
  // Causal critical-path tracking (src/obs/causal/critical_path.h): online
  // taint propagation from crashes through message edges to the last
  // dependent commit. Observer-only (same neutrality contract as the
  // audit); works with lean traces. Recoverable mode only.
  bool critical_path = false;
  // Test hook: when set, used instead of MakeProtocolByName(protocol) to
  // build each process's protocol (e.g. from a deliberately broken
  // commit-too-little rule the audit must flag). Called once per process.
  std::function<std::unique_ptr<ftx_proto::Protocol>()> protocol_factory;
};

struct ComputationResult {
  bool all_done = false;
  TimePoint end_time;           // when the last process finished
  int64_t total_commits = 0;
  int64_t total_events = 0;
  int64_t total_rollbacks = 0;
  std::vector<ftx_dc::RuntimeStats> per_process;
  std::vector<TimePoint> done_times;  // zero TimePoint when not done
};

class Computation {
 public:
  // Apps are owned by the computation. One process per app, pid = index.
  Computation(ComputationOptions options, std::vector<std::unique_ptr<ftx_dc::App>> apps);
  ~Computation();

  Computation(const Computation&) = delete;
  Computation& operator=(const Computation&) = delete;

  int num_processes() const { return static_cast<int>(apps_.size()); }

  // Scripted user input for one process (before Run).
  void SetInputScript(int pid, std::vector<Bytes> script);

  // Initializes all runtimes (checkpoint #0) and runs the computation until
  // every process is done, no event is left to run (a process whose
  // recovery was abandoned never finishes), or the simulated time limit is
  // hit.
  ComputationResult Run();

  // --- failure injection ---

  // Stop failure: the process ceases execution at `at` and recovers (from
  // its last commit) after `recovery_delay`.
  void ScheduleStopFailure(int pid, TimePoint at, Duration recovery_delay = Milliseconds(50));

  // Whole-machine stop failure: every process stops at `at` and recovers
  // after `reboot_delay` (Rio and the disk log both survive OS crashes).
  void ScheduleOsStopFailure(TimePoint at, Duration reboot_delay = Seconds(30.0));

  // --- accessors (valid during and after Run) ---

  ftx_sim::Simulator& sim() { return *sim_; }
  ftx_sim::Network& network() { return *network_; }
  ftx_sim::KernelSim& kernel() { return *kernel_; }
  ftx_sm::Trace& trace() { return *trace_; }
  ftx_rec::OutputRecorder& recorder() { return recorder_; }
  // Computation-wide metrics registry: every subsystem (simulator, network,
  // kernel, per-machine disks/redo logs, per-process runtimes) registers its
  // instruments here at construction.
  ftx_obs::Registry& metrics() { return metrics_; }
  ftx_obs::Tracer& tracer() { return tracer_; }
  // Null unless ComputationOptions::audit was set (and mode is recoverable).
  ftx_causal::CausalAudit* audit() { return audit_.get(); }
  // Null unless timeseries telemetry is enabled. Callers may register
  // additional probe columns (the fleet bench adds fleet.* lanes) any time
  // before Run() executes the first event.
  ftx_obs::TimeSeriesDb* timeseries() { return tsdb_.get(); }
  // Null unless ComputationOptions::critical_path was set (recoverable mode).
  ftx_causal::CriticalPathTracker* critical_path() { return critical_path_.get(); }
  ftx_dc::Runtime& runtime(int pid);
  ftx_dc::App& app(int pid);
  // DC-disk only (nullptr otherwise): the machine's redo log. The torture
  // engine attaches a write-op journal to machine 0's before Run, and
  // installs survivor records in it before a scheduled recovery.
  ftx_store::RedoLog* redo_log(int pid);
  const ComputationOptions& options() const { return options_; }
  int recovery_attempts(int pid) const;
  // True when a process exhausted max_recovery_attempts (it kept crashing
  // after recovery — generic recovery failed).
  bool recovery_abandoned(int pid) const;

 private:
  void Pump(int pid);
  void SchedulePump(int pid, Duration delay);
  // The one report of a completed recovery or restart, which began now and
  // took `cost`: the "dc.recovery_ns" histogram sample, the tracer's span,
  // the audit note and the critical-path tracker's phases.
  void NoteRecovery(int pid, Duration cost, bool from_scratch);
  // After `delay`, if `pid` is still down, brings it back from its last
  // commit (or, with `from_scratch`, from its initial state), notes the
  // recovery and resumes pumping it. The only caller of Runtime::Recover
  // and Runtime::RestartFromScratch.
  void ScheduleRecovery(int pid, Duration delay, bool from_scratch);
  // At `at`, stops `pid` unless it is already down or done, reports the
  // stop failure (tracer instant, critical-path crash) and schedules its
  // recovery `recovery_delay` later.
  void ScheduleStop(int pid, TimePoint at, Duration recovery_delay, bool from_scratch);
  void WakeIfBlocked(int pid);
  void CoordinatedCommit(int initiator, ftx_proto::CoordinationScope scope);
  bool AllDone() const;

  ComputationOptions options_;
  std::vector<std::unique_ptr<ftx_dc::App>> apps_;

  // Probe closures in the registry read subsystem state, but only when a
  // snapshot is taken, so member destruction order is not a hazard.
  ftx_obs::Registry metrics_;
  ftx_obs::Tracer tracer_;
  ftx_obs::Histogram* recovery_hist_ = nullptr;  // "dc.recovery_ns"

  std::unique_ptr<ftx_sim::Simulator> sim_;
  std::unique_ptr<ftx_sim::Network> network_;
  std::unique_ptr<ftx_sim::KernelSim> kernel_;
  std::unique_ptr<ftx_sm::Trace> trace_;
  ftx_rec::OutputRecorder recorder_;
  std::unique_ptr<ftx_causal::CausalAudit> audit_;
  std::unique_ptr<ftx_obs::TimeSeriesDb> tsdb_;
  std::unique_ptr<ftx_causal::CriticalPathTracker> critical_path_;

  // Per-process storage stack (one disk store and redo log per machine in
  // DC-disk mode).
  std::vector<std::unique_ptr<ftx_store::StableStore>> stores_;
  std::vector<std::unique_ptr<ftx_store::RedoLog>> redo_logs_;

  std::vector<std::unique_ptr<ftx_dc::Runtime>> runtimes_;

  std::vector<bool> blocked_;
  std::vector<int64_t> pump_token_;  // invalidates stale scheduled pumps
  std::vector<TimePoint> busy_until_;  // end of each process's current step
  std::vector<TimePoint> done_time_;
  std::vector<int> recovery_attempts_;
  std::vector<bool> recovery_abandoned_;
  int64_t next_coord_message_id_ = 1000000000000000LL;  // disjoint from network ids
  int64_t next_atomic_group_ = 1;
  int64_t two_pc_rounds_ = 0;  // "dc.2pc_rounds"
  // AllDone() resume point: runtimes below this index are known done (done
  // is monotone), so the per-event loop check is amortized O(1).
  mutable size_t all_done_scan_ = 0;
  bool started_ = false;
};

}  // namespace ftx

#endif  // FTX_SRC_CORE_COMPUTATION_H_
