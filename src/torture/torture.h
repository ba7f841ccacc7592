// Crash-state exploration engine ("torture") for the DC-disk commit path.
//
// The paper's Save-work guarantee assumes checkpoints are atomic and ordered
// on stable storage (§4.2: two synchronous I/Os per commit). The cost models
// charge for those I/Os; this engine checks that the *byte-level* design
// behind them actually delivers atomicity at every point a crash could land:
//
//   1. Run the workload once, failure-free, in baseline mode — the reference
//      visible-output stream for the consistency oracle.
//   2. Run it again, recoverable on DC-disk, with the machine-0 disk's
//      write-op journal enabled: every commit leaves its record sectors, a
//      barrier, the commit-slot sector, and a second barrier in an ordered
//      op trace (src/storage/write_journal.h).
//   3. Enumerate crash states in the ALICE style:
//        - every prefix of the op trace (a crash between any two sector
//          writes);
//        - torn-final-sector variants: the last in-flight sector half
//          written, either stopping early (old bytes beyond the cut) or
//          trailing garbage (interrupted write scribbles the remainder);
//        - reorder-within-barrier variants: random subsets of the sector
//          writes issued since the last sync barrier (the disk was free to
//          reorder or drop any of them).
//   4. For each state, reconstruct the platter image and assert the
//      Save-work invariant: the survivor is the last fully-committed
//      checkpoint or the one before it — never a blend — and every decoded
//      record is byte-identical to the canonical record the run committed.
//      States shard by commit window; within a window a rolling image plus
//      a sector-level mismatch set gives each state an O(epoch) check that
//      is exactly equivalent to a from-scratch decode (decode output is a
//      pure function of the image bytes, and bytes below log_end are
//      shared), while seeded samples of every window additionally run the
//      full DecodeSurvivorImage path end-to-end and must agree.
//   5. For each distinct survivor checkpoint, replay: re-run the workload,
//      kill process 0 just after that commit's step, install the survivor
//      records as the redo log recovery reads, and require the recovered
//      run to complete with output the consistency oracle accepts
//      (ftx_rec::CheckConsistentRecovery against the reference). The
//      replays install prefixes of one copy of the chain, up to the largest
//      survivor; the traced run is freed before they start unless its
//      audit must record their violation dumps.
//
// Exploration shards across ftx::TrialPool; every random choice (torn cut
// points, reorder subsets) derives from DeriveTrialSeed(seed, op_index),
// so reports are byte-identical for any --jobs value.

#ifndef FTX_SRC_TORTURE_TORTURE_H_
#define FTX_SRC_TORTURE_TORTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/parallel.h"
#include "src/obs/json.h"

namespace ftx_torture {

struct TortureSpec {
  std::string workload = "nvi";
  int scale = 0;  // 0 = ftx_apps::DefaultScale(workload, /*full_scale=*/false)
  uint64_t seed = 1;
  std::string protocol = "cpvs";
  // Caps exploration to the ops of the first N commit windows (0 = every
  // window). Smoke mode uses this to bound depth; --full leaves it at 0.
  int max_commit_windows = 0;
  // Group-commit window size for the traced and replayed runs (maps to
  // ftx_store::BatchPolicy::max_records; <= 1 = one record per window, one
  // sync pair per commit). When > 1 the traced run's commits persist in
  // windows of up to that many records under a single barrier pair, so
  // the enumeration explores batched window shapes: the
  // in-flight slot may advance the survivor to the window's *end* (several
  // sequences past the last durable one), and an interrupted window must
  // leave all-or-a-prefix of its records intact — never a hole.
  int64_t batch_records = 1;
  // Replay every distinct survivor checkpoint through recovery (phase 5).
  // Decode-level exploration (phase 4) always runs.
  bool replay = true;
  // Live causal audit (src/obs/causal/) on the traced recoverable run: the
  // online Save-work check must report zero violations, and every torture
  // violation additionally records a flight-recorder dump of the traced
  // run's causal tail. Strictly observational, so the traced timeline (and
  // hence the op trace and every crash state) is unchanged.
  bool audit = false;
};

struct TortureReport {
  std::string workload;
  std::string protocol;
  int scale = 0;
  uint64_t seed = 0;
  int num_processes = 0;
  int64_t batch_records = 1;  // group-commit window size the runs used

  // Trace-run shape.
  int64_t commits = 0;        // redo records the traced machine-0 run wrote
  int64_t journal_ops = 0;    // sector writes + barriers in the op trace
  int64_t explored_ops = 0;   // ops within the max_commit_windows cap

  // Crash states explored, by kind.
  int64_t prefix_states = 0;
  int64_t torn_states = 0;
  int64_t reorder_states = 0;
  int64_t crash_states = 0;  // total

  // Decode-phase outcomes. "committed" = the survivor is the last commit
  // whose second sync completed; "inflight" = the in-flight commit's slot
  // sector happened to land, legally advancing the survivor by one.
  int64_t survivor_committed = 0;
  int64_t survivor_inflight = 0;
  int64_t survivor_none = 0;      // no commit slot valid yet (early states)
  int64_t tail_records_seen = 0;  // intact-but-uncommitted tail records
  // States additionally decoded end-to-end by DecodeSurvivorImage on a
  // materialized from-scratch image, cross-checked against the incremental
  // verdict (first/last of each commit window plus seeded samples).
  int64_t blackbox_states = 0;

  // Replay-phase outcomes.
  int64_t replays = 0;
  int64_t replays_consistent = 0;
  int64_t replays_skipped_pre_initial = 0;  // survivor precedes commit 0
  int64_t replays_skipped_same_step = 0;    // later commit in the same step
                                            // (multi-process: retained
                                            // messages make the emulation
                                            // unfaithful; see docs/TORTURE.md)

  // Invariant violations (must be zero) and the first few diagnostics.
  int64_t violations = 0;
  std::vector<std::string> violation_diagnostics;

  // Causal audit of the traced run (TortureSpec::audit). audit_violations
  // counts online Save-work findings (must be zero — the traced run is
  // failure-free); audit_incident_dumps holds the flight-recorder dump
  // recorded for each torture violation (capped like the diagnostics).
  bool audited = false;
  int64_t audit_violations = 0;
  int64_t audit_events = 0;  // audit ring appends in the traced run
  int64_t audit_incidents = 0;
  std::vector<std::string> audit_incident_dumps;

  bool ok() const { return violations == 0 && audit_violations == 0; }

  // Flat ftx.bench-results row (diagnostics joined, capped).
  ftx_obs::Json ToJsonRow() const;
};

// Runs the full exploration for one workload. `pool` shards the decode and
// replay phases; nullptr runs serially (identical results either way).
TortureReport ExploreCommitPath(const TortureSpec& spec, ftx::TrialPool* pool);

}  // namespace ftx_torture

#endif  // FTX_SRC_TORTURE_TORTURE_H_
