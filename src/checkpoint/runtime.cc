#include "src/checkpoint/runtime.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/obs/causal/audit.h"
#include "src/obs/prof/prof.h"

namespace ftx_dc {
namespace {

ftx_sm::EventKind ToTraceKind(ftx_proto::AppEvent event) {
  switch (event) {
    case ftx_proto::AppEvent::kInternal:
      return ftx_sm::EventKind::kInternal;
    case ftx_proto::AppEvent::kTransientNd:
    case ftx_proto::AppEvent::kSignal:
      return ftx_sm::EventKind::kTransientNd;
    case ftx_proto::AppEvent::kFixedNd:
    case ftx_proto::AppEvent::kUserInput:
      return ftx_sm::EventKind::kFixedNd;
    case ftx_proto::AppEvent::kReceive:
      return ftx_sm::EventKind::kReceive;
    case ftx_proto::AppEvent::kSend:
      return ftx_sm::EventKind::kSend;
    case ftx_proto::AppEvent::kVisible:
      return ftx_sm::EventKind::kVisible;
  }
  return ftx_sm::EventKind::kInternal;
}

}  // namespace

Runtime::Runtime(int pid, int num_processes, App* app,
                 std::unique_ptr<ftx_proto::Protocol> protocol, Environment env,
                 RuntimeMode mode, RuntimeCosts costs)
    : pid_(pid),
      num_processes_(num_processes),
      app_(app),
      protocol_(std::move(protocol)),
      env_(std::move(env)),
      mode_(mode),
      costs_(costs) {
  FTX_CHECK(app != nullptr);
  FTX_CHECK_MSG(env_.sim != nullptr, "Runtime: missing required dependency 'sim'");
  FTX_CHECK_MSG(env_.network != nullptr, "Runtime: missing required dependency 'network'");
  FTX_CHECK_MSG(env_.kernel != nullptr, "Runtime: missing required dependency 'kernel'");
  FTX_CHECK_MSG(env_.recorder != nullptr, "Runtime: missing required dependency 'recorder'");
  if (mode_ == RuntimeMode::kRecoverable) {
    FTX_CHECK_MSG(protocol_ != nullptr,
                  "Runtime: recoverable mode requires dependency 'protocol'");
    FTX_CHECK_MSG(env_.trace != nullptr,
                  "Runtime: recoverable mode requires dependency 'trace'");
    FTX_CHECK_MSG(env_.store != nullptr,
                  "Runtime: recoverable mode requires dependency 'store'");
  }
  // Only recovery without a redo log rolls the segment back from its
  // before-images; DC-disk rebuilds it from the redo log, so its barrier
  // keeps none.
  const bool keep_before_images = env_.redo_log == nullptr;
  segment_ = std::make_unique<ftx_vista::Segment>(
      app->SegmentBytes(), ftx_vista::Segment::kDefaultPageSize, keep_before_images);
  if (app->HeapBytes() > 0) {
    heap_ = std::make_unique<ftx_vista::SegmentHeap>(segment_.get(), app->HeapOffset(),
                                                     app->HeapBytes());
    heap_->Format();
  }
  if (env_.metrics != nullptr) {
    BindMetrics();
  }
}

void Runtime::BindMetrics() {
  ftx_obs::Registry* r = env_.metrics;
  // Probes read the very fields stats() exposes: the registry view and the
  // legacy struct are the same memory.
  r->RegisterCounterProbe(pid_, "dc.commits", [this]() { return stats_.commits; });
  r->RegisterCounterProbe(pid_, "dc.coordinated_commits",
                          [this]() { return stats_.coordinated_commits; });
  r->RegisterCounterProbe(pid_, "dc.commit_ns", [this]() { return stats_.commit_time.nanos(); });
  r->RegisterCounterProbe(pid_, "dc.pages_committed", [this]() { return stats_.pages_committed; });
  r->RegisterCounterProbe(pid_, "dc.bytes_persisted", [this]() { return stats_.bytes_persisted; });
  r->RegisterCounterProbe(pid_, "dc.events", [this]() { return stats_.events; });
  r->RegisterCounterProbe(pid_, "dc.nd_events", [this]() { return stats_.nd_events; });
  r->RegisterCounterProbe(pid_, "dc.visible_events", [this]() { return stats_.visible_events; });
  r->RegisterCounterProbe(pid_, "dc.sends", [this]() { return stats_.sends; });
  r->RegisterCounterProbe(pid_, "dc.receives", [this]() { return stats_.receives; });
  r->RegisterCounterProbe(pid_, "dc.logged_events", [this]() { return stats_.logged_events; });
  r->RegisterCounterProbe(pid_, "dc.rollbacks", [this]() { return stats_.rollbacks; });
  r->RegisterCounterProbe(pid_, "dc.recovery_ns",
                          [this]() { return stats_.recovery_time.nanos(); });
  r->RegisterCounterProbe(pid_, "dc.crash_events", [this]() { return stats_.crash_events; });
  r->RegisterCounterProbe(pid_, "faults.activations",
                          [this]() { return stats_.fault_activations; });
  r->RegisterCounterProbe(pid_, "dc.ndlog_flushes", [this]() { return stats_.ndlog_flushes; });
  commit_hist_ = r->GetHistogram("dc.commit_ns");
}

void Runtime::SetInputScript(std::vector<ftx::Bytes> script) {
  input_script_ = std::move(script);
}

void Runtime::Initialize() {
  in_step_ = true;
  step_cost_ = ftx::Duration();
  app_->Init(*this);
  in_step_ = false;
  step_cost_ = ftx::Duration();
  // Checkpoint #0: "the initial state of any application is always
  // committed". Its cost is excluded from overhead accounting (both the
  // recoverable and baseline versions start from a settled initial state).
  if (mode_ == RuntimeMode::kRecoverable) {
    // "The initial state of any application is always committed" — durably:
    // checkpoint #0 never waits in an open group-commit window. A commit
    // left staged has accrued its stage cost, which the window waits for.
    FlushCommitWindow(DoCommit(/*coordinated=*/false));
  } else {
    segment_->Commit();
  }
  step_cost_ = ftx::Duration();
}

StepOutcome Runtime::RunStep(ftx::Duration* cost_out) {
  FTX_CHECK(alive_);
  FTX_CHECK(!done_);
  ftx::TimePoint step_begin = Now();
  step_cost_ = pending_overhead_;
  pending_overhead_ = ftx::Duration();
  in_step_ = true;
  ++step_count_;
  StepOutcome outcome = app_->Step(*this);
  if (alive_) {
    FlushPendingCommit();
    if (outcome.status == StepOutcome::Status::kDone) {
      // Clean shutdown: the final commits must not ride an open window.
      Charge(FlushCommitWindow());
    }
  }
  in_step_ = false;
  if (outcome.status == StepOutcome::Status::kDone) {
    done_ = true;
  }
  *cost_out = step_cost_;
  if (env_.tracer != nullptr) {
    env_.tracer->Span(pid_, ftx_obs::TraceLane::kStep, "app", "step", step_begin,
                       step_begin + step_cost_);
  }
  return outcome;
}

void Runtime::Kill() {
  staged_.clear();
  alive_ = false;
}

void Runtime::FlushPendingCommit() {
  if (pending_commit_) {
    pending_commit_ = false;
    Charge(DoCommit(/*coordinated=*/false));
  }
}

ftx_proto::CommitDecision Runtime::PreEvent(ftx_proto::AppEvent event) {
  FlushPendingCommit();
  const ftx_proto::CommitDecision decision = protocol_->Decide(event);
  if (env_.audit != nullptr) {
    env_.audit->OnProtocolDecision(decision);
  }
  if (decision.flush_log_before && unflushed_log_bytes_ > 0) {
    // Optimistic Logging's output commit: wait for every outstanding log
    // record to reach stable storage — one batched sequential append.
    ftx::Duration flush_cost = env_.store->LogAppendCost(unflushed_log_bytes_);
    if (env_.tracer != nullptr) {
      ftx::TimePoint base = Now() + step_cost_;
      env_.tracer->Span(pid_, ftx_obs::TraceLane::kStorage, "dc", "ndlog.flush", base,
                         base + flush_cost);
    }
    ++stats_.ndlog_flushes;
    Charge(flush_cost);
    unflushed_log_bytes_ = 0;
    flushed_log_records_ = nd_log_.size();
  }
  if (decision.commit_before) {
    if (decision.coordinated && env_.coordinated_commit && num_processes_ > 1) {
      // The coordinator callback runs the 2PC round: participants commit,
      // acks flow back, and this process commits — all recorded in the
      // trace and charged to this step.
      env_.coordinated_commit(decision.scope);
    } else {
      Charge(DoCommit(/*coordinated=*/false));
    }
  }
  if (event == ftx_proto::AppEvent::kVisible || event == ftx_proto::AppEvent::kSend) {
    // Output commit: anything about to escape the process (visible output,
    // a message another process may act on) must find every staged
    // group-commit window durable first.
    Charge(FlushCommitWindow());
  }
  Charge(costs_.event_intercept);
  return decision;
}

void Runtime::PostEvent(ftx_proto::AppEvent event, const ftx_proto::CommitDecision& decision,
                        int64_t message_id, bool logged, const char* label) {
  ++stats_.events;
  if (ftx_proto::IsNdEvent(event)) {
    ++stats_.nd_events;
  }
  AppendTraceEvent(event, message_id, logged, label);
  if (decision.commit_after) {
    pending_commit_ = true;  // performed at the next event / step boundary
  }
}

void Runtime::AppendTraceEvent(ftx_proto::AppEvent event, int64_t message_id, bool logged,
                               const char* label) {
  int64_t atomic_group = -1;
  if (event == ftx_proto::AppEvent::kVisible && env_.latest_atomic_group) {
    atomic_group = env_.latest_atomic_group();
  }
  env_.trace->Append(pid_, ToTraceKind(event), message_id, logged,
                      label != nullptr ? label : "", atomic_group);
}

void Runtime::AppendNdLog(NdLogRecord record, bool log_async) {
  int64_t bytes = record.CostBytes();
  nd_log_.push_back(std::move(record));
  ++nd_consumed_;  // live events are consumed as they are logged
  ++stats_.logged_events;
  Charge(costs_.nd_log_record);
  if (log_async) {
    unflushed_log_bytes_ += bytes;
  } else {
    Charge(env_.store->LogAppendCost(bytes));
    flushed_log_records_ = nd_log_.size();
  }
}

ftx::Duration Runtime::DoCommit(bool coordinated, int64_t atomic_group) {
  FTX_PROF_SCOPE("commit");
  // Volatile (recomputable) ranges are excluded from what a commit
  // persists; their pages still pay the COW trap but not the persist path.
  const auto trapped = static_cast<int64_t>(segment_->dirty_page_count());
  const auto pages = static_cast<int64_t>(segment_->persisted_dirty_page_count());
  StagedCommit staged;
  staged.coordinated = coordinated;
  staged.atomic_group = atomic_group;
  staged.pages = pages;
  staged.fixed_cost = env_.store->CommitFixedCost();
  staged.capture_cost = costs_.page_trap * trapped;
  staged.reprotect_cost = costs_.page_reprotect * pages;
  staged.begin = AccruedNow();
  const ftx::Duration stage_cost = staged.fixed_cost + staged.capture_cost + staged.reprotect_cost;

  // Capture the post-commit resume point: the synthetic register file plus
  // the kernel / input / ND-log cursors recovery must restore.
  CommittedMeta meta;
  meta.registers[0] = static_cast<uint64_t>(step_count_);
  meta.registers[1] = static_cast<uint64_t>(env_.sim->Now().nanos());
  meta.step_count = step_count_;
  meta.kernel_records = env_.kernel->RecordCount(pid_);
  meta.input_cursor = input_cursor_;
  meta.nd_consumed = nd_consumed_;

  bool must_flush = true;
  if (env_.redo_log != nullptr) {
    // DC-disk: a redo record of the dirty pages + metadata. The segment's
    // visitor hands page spans straight to record serialization — the only
    // copy is the one the persist itself requires. The serialize phase
    // includes the incremental CRC AppendPage computes over each page.
    staged.record = std::make_unique<ftx_store::RedoRecord>();
    ftx_store::RedoRecord& record = *staged.record;
    {
      FTX_PROF_SCOPE("commit.serialize_crc");
      // The record lands after the ones already staged in the open window.
      // Past the log's payload horizon only the page counts are kept.
      const int64_t sequence =
          env_.redo_log->next_sequence() + static_cast<int64_t>(staged_.size());
      if (env_.redo_log->KeepsPayload(sequence)) {
        record.ReservePages(pages, segment_->page_size());
        segment_->ForEachPersistedDirtyPage(
            [&record](int64_t offset, const uint8_t* image, size_t size) {
              record.AppendPage(offset, image, size);
            });
      } else {
        segment_->ForEachPersistedDirtyPage(
            [&record](int64_t, const uint8_t*, size_t size) { record.CountPage(size); });
        record.payload_dropped = true;
      }
      ftx::AppendValue(&record.metadata, meta);
    }
    staged.payload_bytes = record.PayloadBytes() + 64;  // record header, as AppendBatch bills it
    // The record waits in the open window until a flush persists it —
    // policy trip, ND-visible/send event, coordinated round, or clean
    // shutdown — and nothing is reported committed (trace event, audit
    // breakdown, message release) until then, so Save-work is untouched.
    int64_t window_bytes = staged.payload_bytes;
    for (const StagedCommit& open : staged_) {
      window_bytes += open.payload_bytes;
    }
    must_flush =
        env_.group_commit.WindowFull(static_cast<int64_t>(staged_.size()) + 1, window_bytes);
  } else {
    // Rio: data is already in the persistent segment; commit atomically
    // discards the undo log, whose (memory-speed) retirement the flush
    // charges.
    staged.payload_bytes = segment_->undo_bytes();
  }
  staged_.push_back(std::move(staged));
  committed_ = meta;
  communicated_mask_ = 0;  // dependencies up to here ride this window

  ++stats_.commits;
  if (coordinated) {
    ++stats_.coordinated_commits;
  }
  stats_.commit_time += stage_cost;  // the window's charge adds at flush
  stats_.pages_committed += pages;
  protocol_->OnCommitted();

  ftx::Duration cost = stage_cost;
  if (must_flush || coordinated) {
    // Coordinated rounds externalize through protocol messages, so a 2PC
    // commit must be durable before the round reports completion.
    cost += FlushCommitWindow(stage_cost);
  }
  {
    // Host-time equivalent of the reprotect_cost charge above: retire the
    // undo log and clear the dirty bitmaps. It follows the flush, so a
    // commit that persists its own window writes its redo record before
    // the before-images are discarded, the crash-safe order.
    FTX_PROF_SCOPE("commit.reprotect");
    segment_->Commit();
  }
  return cost;
}

ftx::Duration Runtime::FlushCommitWindow(ftx::Duration uncharged) {
  if (staged_.empty()) {
    return ftx::Duration();
  }
  FTX_PROF_SCOPE("commit.window_flush");
  const auto records = static_cast<int64_t>(staged_.size());
  int64_t window_bytes = 0;
  for (const StagedCommit& staged : staged_) {
    window_bytes += staged.payload_bytes;
  }
  if (env_.redo_log != nullptr) {
    FTX_PROF_SCOPE("commit.persist");
    std::vector<ftx_store::RedoRecord> batch;
    batch.reserve(staged_.size());
    for (StagedCommit& staged : staged_) {
      batch.push_back(std::move(*staged.record));
    }
    env_.redo_log->AppendBatch(std::move(batch));
  }
  const ftx::Duration window_cost = env_.store->PersistCost(window_bytes);
  // Overlap credit: a pipelined implementation captures + CRCs record N+1
  // while record N's window I/O is in flight. The capture cost of records
  // 2..N was already charged at their stage time; hand it back here, capped
  // at the window share the earlier records' I/O occupies (a singleton
  // window gets no credit — there is nothing to overlap with).
  ftx::Duration credit;
  for (size_t i = 1; i < staged_.size(); ++i) {
    credit += staged_[i].capture_cost;
  }
  const ftx::Duration cap = ftx::Nanoseconds(window_cost.nanos() * (records - 1) / records);
  if (credit > cap) {
    credit = cap;
  }
  const ftx::Duration charge = window_cost - credit;
  stats_.commit_time += charge;
  stats_.bytes_persisted += window_bytes;

  // Every commit in the window becomes durable when the window's I/O, which
  // starts once all accrued cost has elapsed, completes.
  const ftx::TimePoint end = AccruedNow() + uncharged + charge;
  const int64_t share_ns = charge.nanos() / records;
  for (size_t i = 0; i < staged_.size(); ++i) {
    const StagedCommit& staged = staged_[i];
    // The last commit takes the division remainder, so the shares sum
    // exactly to the window charge.
    const int64_t persist_ns =
        i + 1 < staged_.size() ? share_ns : charge.nanos() - share_ns * (records - 1);
    const ftx::Duration total = staged.fixed_cost + staged.capture_cost + staged.reprotect_cost +
                                ftx::Nanoseconds(persist_ns);
    if (env_.audit != nullptr) {
      // Stage the component breakdown so the audit can attach it to
      // the kCommit trace event appended just below. Purely observational:
      // every quantity here was already computed for the charge.
      ftx_causal::CommitCosts cc;
      cc.fixed_ns = staged.fixed_cost.nanos();
      cc.before_image_ns = staged.capture_cost.nanos();
      cc.reprotect_ns = staged.reprotect_cost.nanos();
      cc.persist_ns = persist_ns;
      cc.pages = staged.pages;
      cc.payload_bytes = staged.payload_bytes;
      cc.begin_ns = staged.begin.nanos();
      cc.end_ns = end.nanos();
      env_.audit->StageCommitCosts(pid_, cc);
    }
    env_.trace->Append(pid_, ftx_sm::EventKind::kCommit, -1, false, "", staged.atomic_group);
    if (commit_hist_ != nullptr) {
      commit_hist_->Observe(total.nanos());
    }
    if (env_.tracer != nullptr) {
      env_.tracer->Span(pid_, ftx_obs::TraceLane::kStorage, "dc",
                         staged.coordinated ? "commit(2pc)" : "commit", staged.begin, end);
    }
  }
  env_.network->ReleaseAllDelivered(pid_);  // dependencies up to here are now stable
  staged_.clear();
  return charge;
}

void Runtime::AppendCoordinationEvent(ftx_sm::EventKind kind, int64_t message_id) {
  // Coordination receives are recovery-system events, not application
  // non-determinism: the recovery system regenerates its own protocol
  // messages deterministically, so they are recorded as logged.
  bool logged = kind == ftx_sm::EventKind::kReceive;
  env_.trace->Append(pid_, kind, message_id, logged, "2pc");
}

void Runtime::ChargeToStep(ftx::Duration cost) {
  if (in_step_) {
    Charge(cost);
  } else {
    pending_overhead_ += cost;
  }
}

ftx::Duration Runtime::CommitNow(bool coordinated, int64_t atomic_group) {
  ftx::Duration cost = DoCommit(coordinated, atomic_group);
  pending_overhead_ += cost;
  return cost;
}

ftx::Duration Runtime::Recover() {
  FTX_CHECK(!alive_);
  FTX_PROF_SCOPE("recover");
  // Kill() drops the open commit window but Crash() does not, so after a
  // propagation crash this is the clear that drops it.
  staged_.clear();
  ++stats_.rollbacks;
  ftx::Duration cost = costs_.recovery_fixed;
  // The breakdown mirrors the charges below, bucket by bucket; every
  // nanosecond added to `cost` lands in exactly one bucket so the phases
  // tile the returned latency.
  last_recovery_ = ftx_causal::RecoveryPhases{};
  last_recovery_.log_scan_ns = costs_.recovery_fixed.nanos();

  if (env_.redo_log != nullptr) {
    // DC-disk: the volatile segment is gone; rebuild it from the redo chain
    // on disk. Charge a read per record plus transfer, released or not: the
    // modeled disk still holds every record. Only the records that still
    // hold a page are validated and installed, in sequence order; every
    // page of a released record is rewritten by a later one, so the
    // rebuilt segment is the same as a full replay's.
    segment_->ResetToZero();
    const ftx_store::DiskParameters* disk_params = nullptr;
    if (const auto* disk_store = dynamic_cast<const ftx_store::DiskStore*>(env_.store)) {
      disk_params = &disk_store->parameters();
    }
    {
      FTX_PROF_SCOPE("recover.log_scan");
      for (const ftx_store::RedoRecord& record : env_.redo_log->records()) {
        FTX_CHECK_MSG(!record.payload_dropped,
                      "recovery reads redo record %lld, whose payload was dropped",
                      static_cast<long long>(record.sequence));
        if (!record.released) {
          {
            FTX_PROF_SCOPE("recover.crc_validate");
            FTX_CHECK_MSG(record.ValidatePages(), "redo record failed CRC validation");
          }
          FTX_PROF_SCOPE("recover.page_install");
          bool well_formed =
              record.ForEachPage([this](int64_t offset, const uint8_t* image, size_t size) {
                segment_->InstallPage(offset, image, size);
              });
          FTX_CHECK_MSG(well_formed, "redo record page payload malformed");
        }
        if (disk_params != nullptr) {
          cost += disk_params->half_rotation;
          cost += ftx::Nanoseconds(disk_params->per_byte.nanos() * record.PayloadBytes());
          last_recovery_.log_scan_ns += disk_params->half_rotation.nanos();
          last_recovery_.page_install_ns += disk_params->per_byte.nanos() * record.PayloadBytes();
        }
        ++last_recovery_.records;
      }
    }
    {
      FTX_PROF_SCOPE("recover.reprotect");
      segment_->Commit();
    }
    // Restore the capture point from the latest record's metadata.
    const ftx_store::RedoRecord* latest = env_.redo_log->Latest();
    if (latest != nullptr) {
      FTX_PROF_SCOPE("recover.meta_restore");
      size_t offset = 0;
      CommittedMeta meta;
      FTX_CHECK(ftx::ReadValue(latest->metadata, &offset, &meta));
      committed_ = meta;
    }
  } else {
    // Rio: the segment and undo log survived; roll back in place.
    const ftx::Duration undo =
        costs_.recovery_per_page * static_cast<int64_t>(segment_->dirty_page_count());
    cost += undo;
    last_recovery_.undo_rollback_ns = undo.nanos();
    FTX_PROF_SCOPE("recover.undo_rollback");
    segment_->Abort();
  }

  step_count_ = committed_.step_count;
  input_cursor_ = committed_.input_cursor;
  nd_consumed_ = committed_.nd_consumed;
  communicated_mask_ = 0;
  // Asynchronously-written log records that never reached stable storage
  // are lost with the crash; reexecution runs those events live.
  size_t survivors = std::max(flushed_log_records_, nd_consumed_);
  if (nd_log_.size() > survivors) {
    nd_log_.resize(survivors);
  }
  unflushed_log_bytes_ = 0;
  {
    FTX_PROF_SCOPE("recover.kernel_replay");
    FTX_CHECK(env_.kernel->ReconstructFor(pid_, committed_.kernel_records).ok());
  }
  env_.network->RequeueRetained(pid_);

  // Volatile ranges were not part of the committed state: zero them and let
  // the application recompute (possibly avoiding re-corruption, §2.6).
  {
    FTX_PROF_SCOPE("recover.volatile_zero");
    segment_->ZeroVolatileRanges();
  }

  alive_ = true;
  pending_commit_ = false;  // cancelled by the rollback
  protocol_->OnCommitted();

  // Application rebuild of recomputable state, charged to the recovery
  // latency.
  ftx::Duration saved_step_cost = step_cost_;
  step_cost_ = ftx::Duration();
  bool was_in_step = in_step_;
  in_step_ = true;
  {
    FTX_PROF_SCOPE("recover.app_rebuild");
    app_->OnRecovered(*this);
  }
  in_step_ = was_in_step;
  cost += step_cost_;
  last_recovery_.rebuild_ns = step_cost_.nanos();
  step_cost_ = saved_step_cost;

  stats_.recovery_time += cost;
  FTX_LOG(kInfo, "p%d recovered to step %lld (cost %s)", pid_,
          static_cast<long long>(step_count_), cost.ToString().c_str());
  return cost;
}

ftx::Duration Runtime::RestartFromScratch() {
  FTX_CHECK(!alive_);
  staged_.clear();
  ++stats_.rollbacks;
  segment_->ResetToZero();
  if (heap_ != nullptr) {
    heap_->Format();
  }
  FTX_CHECK(env_.kernel->ReconstructFor(pid_, 0).ok());
  env_.network->ReleaseAllDelivered(pid_);
  input_cursor_ = 0;
  step_count_ = 0;
  nd_log_.clear();
  nd_consumed_ = 0;
  flushed_log_records_ = 0;
  unflushed_log_bytes_ = 0;
  communicated_mask_ = 0;
  committed_ = CommittedMeta{};
  pending_commit_ = false;
  pending_overhead_ = ftx::Duration();
  alive_ = true;
  if (protocol_ != nullptr) {
    protocol_->OnCommitted();
  }
  Initialize();
  ftx::Duration cost = costs_.recovery_fixed;
  last_recovery_ = ftx_causal::RecoveryPhases{};
  last_recovery_.log_scan_ns = cost.nanos();
  stats_.recovery_time += cost;
  FTX_LOG(kInfo, "p%d restarted from scratch (all committed work lost)", pid_);
  return cost;
}

// --- ProcessEnv ---

ftx::TimePoint Runtime::GetTimeOfDay() {
  if (mode_ == RuntimeMode::kBaseline) {
    Charge(costs_.syscall_service);
    return env_.kernel->GetTimeOfDay(pid_);
  }
  // Replay: a logged clock read is deterministic (full-logging protocols).
  if (InNdReplay() && nd_log_[nd_consumed_].kind == NdLogRecord::Kind::kTimeOfDay) {
    FTX_PROF_SCOPE("recover.nd_replay");
    ftx::TimePoint value = nd_log_[nd_consumed_].time_value;
    ++nd_consumed_;
    AppendTraceEvent(ftx_proto::AppEvent::kTransientNd, -1, /*logged=*/true, "time-replay");
    ++stats_.events;
    ++stats_.nd_events;
    return value;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kTransientNd);
  Charge(costs_.syscall_service);
  ftx::TimePoint result = env_.kernel->GetTimeOfDay(pid_);
  if (d.log_event) {
    NdLogRecord record;
    record.kind = NdLogRecord::Kind::kTimeOfDay;
    record.time_value = result;
    AppendNdLog(std::move(record), d.log_async);
  }
  PostEvent(ftx_proto::AppEvent::kTransientNd, d, -1, d.log_event, "gettimeofday");
  return result;
}

void Runtime::DeliverSignal() {
  if (mode_ == RuntimeMode::kBaseline) {
    return;
  }
  // Replay: a logged delivery point replays trivially (no result to carry).
  if (InNdReplay() && nd_log_[nd_consumed_].kind == NdLogRecord::Kind::kSignal) {
    FTX_PROF_SCOPE("recover.nd_replay");
    ++nd_consumed_;
    AppendTraceEvent(ftx_proto::AppEvent::kSignal, -1, /*logged=*/true, "signal-replay");
    ++stats_.events;
    ++stats_.nd_events;
    return;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kSignal);
  if (d.log_event) {
    NdLogRecord record;
    record.kind = NdLogRecord::Kind::kSignal;
    AppendNdLog(std::move(record), d.log_async);
  }
  PostEvent(ftx_proto::AppEvent::kSignal, d, -1, d.log_event, "signal");
}

std::optional<ftx::Bytes> Runtime::ReadUserInput() {
  if (mode_ == RuntimeMode::kBaseline) {
    if (input_cursor_ >= input_script_.size()) {
      return std::nullopt;
    }
    Charge(costs_.syscall_service);
    return input_script_[input_cursor_++];
  }
  // Recovery replay: a logged input is returned from the ND log and is
  // deterministic.
  if (InNdReplay()) {
    const NdLogRecord& record = nd_log_[nd_consumed_];
    if (record.kind == NdLogRecord::Kind::kUserInput) {
      FTX_PROF_SCOPE("recover.nd_replay");
      ++nd_consumed_;
      ++input_cursor_;
      AppendTraceEvent(ftx_proto::AppEvent::kUserInput, -1, /*logged=*/true, "input-replay");
      ++stats_.events;
      ++stats_.nd_events;
      return record.payload;
    }
  }
  if (input_cursor_ >= input_script_.size()) {
    return std::nullopt;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kUserInput);
  Charge(costs_.syscall_service);
  ftx::Bytes payload = input_script_[input_cursor_++];
  bool logged = d.log_event;
  if (logged) {
    NdLogRecord record;
    record.kind = NdLogRecord::Kind::kUserInput;
    record.payload = payload;
    AppendNdLog(std::move(record), d.log_async);
  }
  PostEvent(ftx_proto::AppEvent::kUserInput, d, -1, logged, "input");
  return payload;
}

void Runtime::Print(ftx::Bytes payload) {
  ++stats_.visible_events;
  if (mode_ == RuntimeMode::kBaseline) {
    Charge(costs_.syscall_service);
    env_.recorder->Record(pid_, Now(), std::move(payload));
    return;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kVisible);
  Charge(costs_.syscall_service);
  env_.recorder->Record(pid_, Now(), std::move(payload));
  PostEvent(ftx_proto::AppEvent::kVisible, d, -1, false, "visible");
}

void Runtime::Send(int dst, ftx::Bytes payload) {
  ++stats_.sends;
  if (mode_ == RuntimeMode::kBaseline) {
    Charge(costs_.syscall_service);
    env_.network->Send(pid_, dst, std::move(payload));
    return;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kSend);
  Charge(costs_.syscall_service);
  if (dst >= 0 && dst < 64) {
    communicated_mask_ |= 1ULL << dst;
  }
  if (env_.audit != nullptr) {
    env_.audit->OnMessage(static_cast<int64_t>(payload.size()));
  }
  int64_t message_id = env_.network->Send(pid_, dst, std::move(payload));
  PostEvent(ftx_proto::AppEvent::kSend, d, message_id, false, "send");
}

std::optional<ftx_sim::Message> Runtime::TryReceive() {
  if (mode_ == RuntimeMode::kBaseline) {
    std::optional<ftx_sim::Message> msg = env_.network->Deliver(pid_);
    if (msg.has_value()) {
      ++stats_.receives;
      Charge(costs_.syscall_service);
      env_.network->ReleaseAllDelivered(pid_);
    }
    return msg;
  }
  // Recovery replay of logged receives and empty polls: bypass the network.
  if (InNdReplay()) {
    const NdLogRecord& record = nd_log_[nd_consumed_];
    if (record.kind == NdLogRecord::Kind::kReceive) {
      FTX_PROF_SCOPE("recover.nd_replay");
      ++nd_consumed_;
      ++stats_.events;
      ++stats_.nd_events;
      ++stats_.receives;
      AppendTraceEvent(ftx_proto::AppEvent::kReceive, record.message.id, /*logged=*/true,
                       "recv-replay");
      return record.message;
    }
    if (record.kind == NdLogRecord::Kind::kEmptyPoll) {
      FTX_PROF_SCOPE("recover.nd_replay");
      ++nd_consumed_;
      ++stats_.events;
      ++stats_.nd_events;
      AppendTraceEvent(ftx_proto::AppEvent::kTransientNd, -1, /*logged=*/true, "select-replay");
      return std::nullopt;
    }
  }
  std::optional<ftx_sim::Message> msg = env_.network->Deliver(pid_);
  if (!msg.has_value()) {
    // A poll that finds nothing: whether the message had arrived yet is
    // scheduling-dependent, i.e. a transient ND event (select).
    ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kTransientNd);
    if (d.log_event) {
      NdLogRecord record;
      record.kind = NdLogRecord::Kind::kEmptyPoll;
      AppendNdLog(std::move(record), d.log_async);
    }
    PostEvent(ftx_proto::AppEvent::kTransientNd, d, -1, d.log_event, "select-empty");
    return std::nullopt;
  }
  ++stats_.receives;
  if (msg->src >= 0 && msg->src < 64) {
    communicated_mask_ |= 1ULL << msg->src;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kReceive);
  Charge(costs_.syscall_service);
  bool logged = d.log_event;
  if (logged) {
    NdLogRecord record;
    record.kind = NdLogRecord::Kind::kReceive;
    record.message = *msg;
    AppendNdLog(std::move(record), d.log_async);
    // The log now owns redelivery of this message.
    env_.network->DropNewestRetained(pid_, msg->id);
  }
  PostEvent(ftx_proto::AppEvent::kReceive, d, msg->id, logged, "recv");
  return msg;
}

const ftx_sim::Message* Runtime::PeekMessage() {
  // During ND-log replay, the logged receive is what the next consuming
  // TryReceive returns; present it for inspection.
  if (mode_ != RuntimeMode::kBaseline && InNdReplay()) {
    const NdLogRecord& record = nd_log_[nd_consumed_];
    if (record.kind == NdLogRecord::Kind::kReceive) {
      return &record.message;
    }
    if (record.kind == NdLogRecord::Kind::kEmptyPoll) {
      return nullptr;  // the logged poll found nothing; replay agrees
    }
  }
  return env_.network->PeekNext(pid_);
}

void Runtime::Compute(ftx::Duration work) {
  Charge(work);
  if (mode_ == RuntimeMode::kBaseline) {
    return;
  }
  FlushPendingCommit();
  // Deterministic computation: consulted for completeness (commit-all counts
  // it) but not traced — internal events cannot affect either invariant.
  ftx_proto::CommitDecision d = protocol_->Decide(ftx_proto::AppEvent::kInternal);
  ++stats_.events;
  if (d.commit_after) {
    pending_commit_ = true;
  } else if (d.commit_before) {
    Charge(DoCommit(/*coordinated=*/false));
  }
}

ftx::Result<int> Runtime::Open(const std::string& path, bool writable) {
  if (mode_ == RuntimeMode::kBaseline) {
    Charge(costs_.syscall_service);
    return env_.kernel->Open(pid_, path, writable);
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kFixedNd);
  Charge(costs_.syscall_service);
  ftx::Result<int> result = env_.kernel->Open(pid_, path, writable);
  PostEvent(ftx_proto::AppEvent::kFixedNd, d, -1, false, "open");
  return result;
}

ftx::Status Runtime::Close(int fd) {
  if (mode_ == RuntimeMode::kBaseline) {
    Charge(costs_.syscall_service);
    return env_.kernel->Close(pid_, fd);
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kInternal);
  Charge(costs_.syscall_service);
  ftx::Status status = env_.kernel->Close(pid_, fd);
  PostEvent(ftx_proto::AppEvent::kInternal, d, -1, false, "close");
  return status;
}

ftx::Result<int64_t> Runtime::WriteFile(int fd, int64_t bytes) {
  if (mode_ == RuntimeMode::kBaseline) {
    Charge(costs_.syscall_service);
    return env_.kernel->Write(pid_, fd, bytes);
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kFixedNd);
  Charge(costs_.syscall_service);
  ftx::Result<int64_t> result = env_.kernel->Write(pid_, fd, bytes);
  PostEvent(ftx_proto::AppEvent::kFixedNd, d, -1, false, "write");
  return result;
}

ftx::Status Runtime::Bind(uint16_t port) {
  if (mode_ == RuntimeMode::kBaseline) {
    Charge(costs_.syscall_service);
    return env_.kernel->Bind(pid_, port);
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kInternal);
  Charge(costs_.syscall_service);
  ftx::Status status = env_.kernel->Bind(pid_, port);
  PostEvent(ftx_proto::AppEvent::kInternal, d, -1, false, "bind");
  return status;
}

void Runtime::Crash(const std::string& reason) {
  FTX_LOG(kInfo, "p%d crash: %s", pid_, reason.c_str());
  ++stats_.crash_events;
  if (env_.tracer != nullptr) {
    env_.tracer->Instant(pid_, ftx_obs::TraceLane::kRecovery, "fault", "crash: " + reason, Now());
  }
  if (mode_ == RuntimeMode::kRecoverable) {
    env_.trace->Append(pid_, ftx_sm::EventKind::kCrash, -1, false, reason);
  }
  alive_ = false;
}

void Runtime::MarkFaultActivation() {
  ++stats_.fault_activations;
  if (env_.tracer != nullptr) {
    env_.tracer->Instant(pid_, ftx_obs::TraceLane::kRecovery, "fault", "fault-activation", Now());
  }
  if (mode_ == RuntimeMode::kBaseline) {
    return;
  }
  // The activation of a bug is itself an (internal) event the process
  // executed; record it explicitly so the Lose-work window has a precise
  // start.
  ftx_sm::EventRef ref =
      env_.trace->Append(pid_, ftx_sm::EventKind::kInternal, -1, false, "fault-activation");
  env_.trace->MarkFaultActivation(ref);
}

}  // namespace ftx_dc
