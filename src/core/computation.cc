#include "src/core/computation.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"

namespace ftx {

Computation::Computation(ComputationOptions options, std::vector<std::unique_ptr<ftx_dc::App>> apps)
    : options_(std::move(options)), apps_(std::move(apps)) {
  FTX_CHECK(!apps_.empty());
  const int n = num_processes();

  // Shard layout for the partitioned engine. Results are byte-identical for
  // every shard count; the default (1) is exactly the monolithic engine.
  const ftx_sim::ShardPlan plan = ftx_sim::ShardPlan::Uniform(n, options_.shards);
  sim_ = std::make_unique<ftx_sim::Simulator>(options_.seed, plan);
  network_ = std::make_unique<ftx_sim::Network>(sim_.get(), n, options_.network);
  kernel_ = std::make_unique<ftx_sim::KernelSim>(sim_.get(), plan, options_.kernel_limits);
  // The audit needs full vector clocks, so it overrides lean_trace.
  ftx_sm::TraceOptions trace_options;
  trace_options.record_clocks = !options_.lean_trace || options_.audit;
  trace_ = std::make_unique<ftx_sm::Trace>(n, trace_options);

  tracer_.SetEnabled(options_.enable_tracing || !options_.trace_path.empty());
  sim_->BindMetrics(&metrics_);
  network_->BindMetrics(&metrics_);
  kernel_->BindMetrics(&metrics_);

  if (options_.audit && options_.mode == ftx_dc::RuntimeMode::kRecoverable) {
    audit_ = std::make_unique<ftx_causal::CausalAudit>(n, options_.audit_options);
    audit_->SetTimeSource([this]() { return sim_->Now().nanos(); });
    audit_->SetTracer(&tracer_);
    network_->SetMessageObserver([this](int64_t id, int src, int dst, int64_t bytes) {
      audit_->OnMessage(id, src, dst, bytes);
    });
  }
  if (options_.critical_path && options_.mode == ftx_dc::RuntimeMode::kRecoverable) {
    critical_path_ =
        std::make_unique<ftx_causal::CriticalPathTracker>(n, options_.critical_path_options);
    critical_path_->SetTimeSource([this]() { return sim_->Now().nanos(); });
  }
  // The trace exposes a single append-observer slot; the audit and the
  // critical-path tracker share it through one forwarding closure.
  if (audit_ != nullptr || critical_path_ != nullptr) {
    trace_->SetAppendObserver([this](ftx_sm::EventRef ref, const ftx_sm::TraceEvent& ev,
                                     const ftx_sm::VectorClock& clock) {
      if (audit_ != nullptr) {
        audit_->OnTraceEvent(ref, ev, clock);
      }
      if (critical_path_ != nullptr) {
        critical_path_->OnTraceEvent(ref, ev);
      }
    });
  }

  if (options_.timeseries || !options_.timeseries_path.empty()) {
    tsdb_ = std::make_unique<ftx_obs::TimeSeriesDb>(options_.timeseries_options);
    tsdb_->SetMeta("protocol", options_.protocol);
    switch (options_.store) {
      case StoreKind::kRio:
        tsdb_->SetMeta("store", "rio");
        break;
      case StoreKind::kDisk:
        tsdb_->SetMeta("store", "disk");
        break;
      case StoreKind::kVolatileMemory:
        tsdb_->SetMeta("store", "volatile");
        break;
    }
    tsdb_->SetMeta("processes", static_cast<int64_t>(n));
    tsdb_->SetMeta("seed", static_cast<int64_t>(options_.seed));
    // Core lanes: simulator progress, fleet-wide DC activity, and failure
    // state. Every one is a simulated quantity — invariant across shard
    // layouts — so the export honors the byte-identity contract.
    tsdb_->AddCounter("sim.events_executed", [this]() { return sim_->events_executed(); });
    tsdb_->AddCounter("dc.commits", [this]() {
      int64_t total = 0;
      for (const auto& rt : runtimes_) {
        total += rt->stats().commits;
      }
      return total;
    });
    tsdb_->AddCounter("dc.rollbacks", [this]() {
      int64_t total = 0;
      for (const auto& rt : runtimes_) {
        total += rt->stats().rollbacks;
      }
      return total;
    });
    tsdb_->AddCounter("net.messages_sent", [this]() { return network_->total_messages(); });
    tsdb_->AddGauge("dc.down", [this]() {
      int64_t down = 0;
      for (const auto& rt : runtimes_) {
        down += rt->alive() ? 0 : 1;
      }
      return static_cast<double>(down);
    });
    sim_->SetEventHook(
        [this](int shard, TimePoint t) { (void)shard; tsdb_->OnSimTime(t.nanos()); });
  }

  blocked_.assign(static_cast<size_t>(n), false);
  pump_token_.assign(static_cast<size_t>(n), 0);
  done_time_.assign(static_cast<size_t>(n), TimePoint());
  recovery_attempts_.assign(static_cast<size_t>(n), 0);
  recovery_abandoned_.assign(static_cast<size_t>(n), false);
  busy_until_.assign(static_cast<size_t>(n), TimePoint());

  const bool recoverable = options_.mode == ftx_dc::RuntimeMode::kRecoverable;
  for (int pid = 0; pid < n; ++pid) {
    // One storage stack per machine.
    ftx_store::RedoLog* redo_log = nullptr;
    ftx_store::CommitPipeline* commit_pipeline = nullptr;
    if (options_.store == StoreKind::kDisk) {
      disks_.push_back(std::make_unique<ftx_store::DiskModel>(options_.disk));
      stores_.push_back(std::make_unique<ftx_store::DiskStore>(disks_.back().get()));
      redo_logs_.push_back(std::make_unique<ftx_store::RedoLog>());
      redo_log = redo_logs_.back().get();
      if (options_.journal_disk_writes) {
        ftx_store::WriteJournal* journal = disks_.back()->EnableJournal();
        journal->SetClock([this]() { return sim_->Now(); });
        redo_log->AttachJournal(journal);
      }
      if (options_.group_commit.enabled) {
        commit_pipelines_.push_back(
            std::make_unique<ftx_store::CommitPipeline>(redo_log, options_.group_commit));
        commit_pipeline = commit_pipelines_.back().get();
      } else {
        commit_pipelines_.push_back(nullptr);
      }
    } else if (options_.store == StoreKind::kVolatileMemory) {
      disks_.push_back(nullptr);
      stores_.push_back(std::make_unique<ftx_store::MemoryStore>());
      redo_logs_.push_back(nullptr);
      commit_pipelines_.push_back(nullptr);
    } else {
      disks_.push_back(nullptr);
      stores_.push_back(std::make_unique<ftx_store::RioStore>());
      redo_logs_.push_back(nullptr);
      commit_pipelines_.push_back(nullptr);
    }

    ftx_dc::Environment env{
        .sim = sim_.get(),
        .network = network_.get(),
        .kernel = kernel_.get(),
        .trace = recoverable ? trace_.get() : nullptr,
        .recorder = &recorder_,
        .store = stores_.back().get(),
        .redo_log = redo_log,
        .commit_pipeline = commit_pipeline,
        .coordinated_commit =
            [this, pid](ftx_proto::CoordinationScope scope) { CoordinatedCommit(pid, scope); },
        .latest_atomic_group = [this]() { return next_atomic_group_ - 1; },
        .metrics = &metrics_,
        .tracer = &tracer_,
        .audit = audit_.get(),
    };
    const std::string prefix = "p" + std::to_string(pid) + ".";
    if (disks_.back() != nullptr) {
      disks_.back()->BindMetrics(&metrics_, prefix);
    }
    if (redo_log != nullptr) {
      redo_log->BindMetrics(&metrics_, prefix);
    }

    std::unique_ptr<ftx_proto::Protocol> protocol;
    if (recoverable) {
      protocol = options_.protocol_factory ? options_.protocol_factory()
                                           : ftx_proto::MakeProtocolByName(options_.protocol);
    }
    runtimes_.push_back(std::make_unique<ftx_dc::Runtime>(
        pid, n, apps_[static_cast<size_t>(pid)].get(), std::move(protocol), std::move(env),
        options_.mode, options_.costs));
    network_->SetArrivalCallback(pid, [this, pid]() { WakeIfBlocked(pid); });
  }
}

Computation::~Computation() = default;

ftx_dc::Runtime& Computation::runtime(int pid) {
  FTX_CHECK(pid >= 0 && pid < num_processes());
  return *runtimes_[static_cast<size_t>(pid)];
}

ftx_dc::App& Computation::app(int pid) {
  FTX_CHECK(pid >= 0 && pid < num_processes());
  return *apps_[static_cast<size_t>(pid)];
}

ftx_store::RedoLog* Computation::redo_log(int pid) {
  FTX_CHECK(pid >= 0 && pid < num_processes());
  return redo_logs_[static_cast<size_t>(pid)].get();
}

ftx_store::CommitPipeline* Computation::commit_pipeline(int pid) {
  FTX_CHECK(pid >= 0 && pid < num_processes());
  return commit_pipelines_[static_cast<size_t>(pid)].get();
}

ftx_store::WriteJournal* Computation::write_journal(int pid) {
  FTX_CHECK(pid >= 0 && pid < num_processes());
  return disks_[static_cast<size_t>(pid)] == nullptr ? nullptr
                                                     : disks_[static_cast<size_t>(pid)]->journal();
}

void Computation::SetInputScript(int pid, std::vector<Bytes> script) {
  runtime(pid).SetInputScript(std::move(script));
}

int Computation::recovery_attempts(int pid) const {
  FTX_CHECK(pid >= 0 && pid < num_processes());
  return recovery_attempts_[static_cast<size_t>(pid)];
}

bool Computation::recovery_abandoned(int pid) const {
  FTX_CHECK(pid >= 0 && pid < num_processes());
  return recovery_abandoned_[static_cast<size_t>(pid)];
}

bool Computation::AllDone() const {
  // Done is monotone (finished processes are never killed or restarted), so
  // the scan resumes past the done prefix instead of rescanning it — Run()
  // calls this once per simulated event, which would be O(N) per event at
  // fleet scale.
  while (all_done_scan_ < static_cast<size_t>(num_processes()) &&
         runtimes_[all_done_scan_]->done()) {
    ++all_done_scan_;
  }
  return all_done_scan_ == static_cast<size_t>(num_processes());
}

void Computation::SchedulePump(int pid, Duration delay) {
  // A process can never start its next step before the simulated work of
  // its previous step has elapsed — message arrivals must not time-travel a
  // busy process.
  Duration busy_gap = busy_until_[static_cast<size_t>(pid)] - sim_->Now();
  if (busy_gap > delay) {
    delay = busy_gap;
  }
  int64_t token = ++pump_token_[static_cast<size_t>(pid)];
  sim_->ScheduleAfterFor(pid, delay, [this, pid, token]() {
    if (pump_token_[static_cast<size_t>(pid)] == token) {
      Pump(pid);
    }
  });
}

void Computation::WakeIfBlocked(int pid) {
  auto& rt = *runtimes_[static_cast<size_t>(pid)];
  if (blocked_[static_cast<size_t>(pid)] && rt.alive() && !rt.done()) {
    blocked_[static_cast<size_t>(pid)] = false;
    SchedulePump(pid, Duration());
  }
}

void Computation::Pump(int pid) {
  auto& rt = *runtimes_[static_cast<size_t>(pid)];
  if (!rt.alive() || rt.done()) {
    return;
  }
  blocked_[static_cast<size_t>(pid)] = false;

  Duration cost;
  ftx_dc::StepOutcome outcome = rt.RunStep(&cost);
  busy_until_[static_cast<size_t>(pid)] = sim_->Now() + cost;

  if (!rt.alive()) {
    // The step ended in a crash event (propagation failure).
    if (options_.auto_recover) {
      if (recovery_attempts_[static_cast<size_t>(pid)] >= options_.max_recovery_attempts) {
        recovery_abandoned_[static_cast<size_t>(pid)] = true;
        FTX_LOG(kInfo, "p%d: recovery abandoned after %d attempts", pid,
                recovery_attempts_[static_cast<size_t>(pid)]);
        if (audit_ != nullptr) {
          audit_->RecordIncident(
              "recovery abandoned p" + std::to_string(pid) + " after " +
                  std::to_string(recovery_attempts_[static_cast<size_t>(pid)]) + " attempts",
              std::nullopt);
        }
        return;
      }
      ++recovery_attempts_[static_cast<size_t>(pid)];
      sim_->ScheduleAfterFor(pid, options_.recovery_delay, [this, pid]() {
        auto& failed = *runtimes_[static_cast<size_t>(pid)];
        if (failed.alive()) {
          return;  // already recovered by someone else
        }
        Duration recovery_cost = failed.Recover();
        NoteRecovery(pid, recovery_cost);
        SchedulePump(pid, recovery_cost);
      });
    }
    return;
  }

  if (rt.done()) {
    done_time_[static_cast<size_t>(pid)] = sim_->Now() + cost;
    return;
  }

  switch (outcome.status) {
    case ftx_dc::StepOutcome::Status::kContinue: {
      Duration delay = cost + outcome.delay;
      if (outcome.pace_until.nanos() >= 0) {
        Duration until_deadline = outcome.pace_until - sim_->Now();
        delay = std::max(delay, until_deadline);
      }
      SchedulePump(pid, delay);
      break;
    }
    case ftx_dc::StepOutcome::Status::kBlocked:
      blocked_[static_cast<size_t>(pid)] = true;
      if (network_->HasPending(pid)) {
        // A message landed during the step; do not sleep on it.
        blocked_[static_cast<size_t>(pid)] = false;
        SchedulePump(pid, cost);
      } else if (outcome.delay.nanos() > 0) {
        SchedulePump(pid, cost + outcome.delay);  // poll timeout
      }
      break;
    case ftx_dc::StepOutcome::Status::kDone:
      done_time_[static_cast<size_t>(pid)] = sim_->Now() + cost;
      break;
  }
}

void Computation::CoordinatedCommit(int initiator, ftx_proto::CoordinationScope scope) {
  auto& init_rt = *runtimes_[static_cast<size_t>(initiator)];

  std::vector<int> participants;
  if (scope == ftx_proto::CoordinationScope::kCommunicated) {
    // Koo-Toueg-style dependency closure: include every process that has
    // communicated (sent to or received from), directly or transitively,
    // with a member of the set since its own last commit. The closure runs
    // on the runtimes' 64-bit communication masks, so this scope (CPV-2PC
    // family) caps at 64 processes; fleet-scale protocols use kNdDirty.
    FTX_CHECK_MSG(num_processes() <= 64,
                  "kCommunicated coordination scope supports at most 64 processes (got %d)",
                  num_processes());
    uint64_t members = 1ULL << initiator;
    bool grew = true;
    while (grew) {
      grew = false;
      for (int pid = 0; pid < num_processes(); ++pid) {
        auto& rt = *runtimes_[static_cast<size_t>(pid)];
        if (!rt.alive() || (members & (1ULL << pid)) != 0) {
          continue;
        }
        if ((rt.communicated_mask() & members) != 0) {
          members |= 1ULL << pid;
          grew = true;
        }
      }
    }
    for (int pid = 0; pid < num_processes(); ++pid) {
      if (pid != initiator && (members & (1ULL << pid)) != 0) {
        participants.push_back(pid);
      }
    }
  } else {
    const bool only_dirty = scope == ftx_proto::CoordinationScope::kNdDirty;
    for (int pid = 0; pid < num_processes(); ++pid) {
      if (pid == initiator) {
        continue;
      }
      auto& rt = *runtimes_[static_cast<size_t>(pid)];
      if (!rt.alive()) {
        continue;
      }
      if (!only_dirty || rt.protocol().HasUncommittedNd()) {
        participants.push_back(pid);
      }
    }
    if (only_dirty && participants.empty() && !init_rt.protocol().HasUncommittedNd()) {
      return;  // nothing anywhere to preserve
    }
  }

  // One 2PC round: prepare out, participants commit, acks back, coordinator
  // commits. The trace events make every happens-before edge explicit, and
  // all of the round's commits share an atomic group — they are "atomic
  // with" one another in the sense of the Save-work Theorem.
  const int64_t atomic_group = next_atomic_group_++;
  Duration max_participant_commit;
  for (int pid : participants) {
    auto& rt = *runtimes_[static_cast<size_t>(pid)];
    int64_t prepare_id = next_coord_message_id_++;
    init_rt.AppendCoordinationEvent(ftx_sm::EventKind::kSend, prepare_id);
    rt.AppendCoordinationEvent(ftx_sm::EventKind::kReceive, prepare_id);
    Duration commit_cost =
        rt.CommitNow(/*coordinated=*/true, /*charge_inline=*/false, atomic_group);
    max_participant_commit = std::max(max_participant_commit, commit_cost);
    int64_t ack_id = next_coord_message_id_++;
    rt.AppendCoordinationEvent(ftx_sm::EventKind::kSend, ack_id);
    init_rt.AppendCoordinationEvent(ftx_sm::EventKind::kReceive, ack_id);
  }

  Duration round;
  if (!participants.empty()) {
    // Prepare + ack message latencies, overlapped across participants, plus
    // the slowest participant's commit.
    round += options_.network.base_latency * 2;
    round += max_participant_commit;
  }
  round += init_rt.CommitNow(/*coordinated=*/false, /*charge_inline=*/false, atomic_group);
  init_rt.ChargeToStep(round);

  metrics_.GetCounter("dc.2pc_rounds")->Increment();
  if (tracer_.enabled()) {
    tracer_.Span(initiator, ftx_obs::TraceLane::kCoordination, "2pc",
                 "2pc-round(" + std::to_string(participants.size() + 1) + ")", sim_->Now(),
                 sim_->Now() + round);
  }
}

void Computation::NoteRecovery(int pid, Duration cost) {
  if (critical_path_ == nullptr) {
    return;
  }
  const ftx_dc::RecoveryBreakdown& br = runtimes_[static_cast<size_t>(pid)]->last_recovery();
  ftx_causal::RecoveryPhases phases;
  phases.log_scan_ns = br.log_scan_ns;
  phases.page_install_ns = br.page_install_ns;
  phases.undo_rollback_ns = br.undo_rollback_ns;
  phases.rebuild_ns = br.rebuild_ns;
  // Recover()/RestartFromScratch() ran at the current instant and charged
  // `cost` forward; the gap back to the crash is detection latency, which
  // the tracker derives itself.
  critical_path_->OnRecovery(pid, sim_->Now().nanos(), (sim_->Now() + cost).nanos(), phases);
}

void Computation::ScheduleStopFailure(int pid, TimePoint at, Duration recovery_delay) {
  sim_->ScheduleAtFor(pid, at, [this, pid, recovery_delay]() {
    auto& rt = *runtimes_[static_cast<size_t>(pid)];
    if (!rt.alive() || rt.done()) {
      return;
    }
    FTX_LOG(kInfo, "stop failure: p%d at %s", pid, sim_->Now().ToString().c_str());
    rt.Kill();
    if (critical_path_ != nullptr) {
      // Stop failures never append a kCrash trace event (the process simply
      // goes silent), so the tracker is told directly.
      critical_path_->OnCrash(pid);
    }
    ++pump_token_[static_cast<size_t>(pid)];  // cancel any scheduled pump
    sim_->ScheduleAfterFor(pid, recovery_delay, [this, pid]() {
      auto& failed = *runtimes_[static_cast<size_t>(pid)];
      if (failed.alive()) {
        return;
      }
      Duration cost = failed.Recover();
      NoteRecovery(pid, cost);
      SchedulePump(pid, cost);
    });
  });
}

void Computation::ScheduleOsStopFailure(TimePoint at, Duration reboot_delay) {
  for (int pid = 0; pid < num_processes(); ++pid) {
    if (stores_[static_cast<size_t>(pid)]->SurvivesOsCrash()) {
      ScheduleStopFailure(pid, at, reboot_delay);
      continue;
    }
    // Without Rio (or a disk log), the OS crash destroys the segment, the
    // undo log, and every checkpoint: the application can only restart from
    // scratch — all committed work is forfeit.
    sim_->ScheduleAtFor(pid, at, [this, pid, reboot_delay]() {
      auto& rt = *runtimes_[static_cast<size_t>(pid)];
      if (!rt.alive() || rt.done()) {
        return;
      }
      FTX_LOG(kInfo, "OS crash with volatile store: p%d restarts from scratch", pid);
      rt.Kill();
      if (critical_path_ != nullptr) {
        critical_path_->OnCrash(pid);
      }
      ++pump_token_[static_cast<size_t>(pid)];
      sim_->ScheduleAfterFor(pid, reboot_delay, [this, pid]() {
        auto& failed = *runtimes_[static_cast<size_t>(pid)];
        if (failed.alive()) {
          return;
        }
        Duration cost = failed.RestartFromScratch();
        NoteRecovery(pid, cost);
        SchedulePump(pid, cost);
      });
    });
  }
}

ComputationResult Computation::Run() {
  FTX_CHECK_MSG(!started_, "Computation::Run may only be called once");
  started_ = true;

  for (int pid = 0; pid < num_processes(); ++pid) {
    runtimes_[static_cast<size_t>(pid)]->Initialize();
  }
  for (int pid = 0; pid < num_processes(); ++pid) {
    SchedulePump(pid, Duration());
  }

  const TimePoint deadline = TimePoint() + options_.max_sim_time;
  int64_t executed = 0;
  while (!AllDone() && sim_->HasPending()) {
    if (sim_->Now() > deadline) {
      break;
    }
    sim_->RunOne();
    FTX_CHECK_MSG(++executed <= options_.max_sim_events,
                  "computation exceeded simulated event limit");
  }

  if (audit_ != nullptr) {
    audit_->Finalize();
  }
  if (tsdb_ != nullptr) {
    // Close the series at the simulator's final instant so the last sample
    // is the end-of-run state (what the checker cross-validates against the
    // aggregate report).
    tsdb_->Finalize(sim_->Now().nanos());
    if (!options_.timeseries_path.empty()) {
      Status status = tsdb_->WriteJsonl(options_.timeseries_path);
      if (!status.ok()) {
        FTX_LOG(kWarning, "failed to write timeseries to %s: %s",
                options_.timeseries_path.c_str(), status.ToString().c_str());
      } else {
        FTX_LOG(kInfo, "wrote %lld timeseries samples to %s",
                static_cast<long long>(tsdb_->samples_retained()),
                options_.timeseries_path.c_str());
      }
    }
  }

  ComputationResult result;
  result.all_done = AllDone();
  TimePoint end;
  for (int pid = 0; pid < num_processes(); ++pid) {
    const auto& stats = runtimes_[static_cast<size_t>(pid)]->stats();
    result.per_process.push_back(stats);
    result.total_commits += stats.commits;
    result.total_events += stats.events;
    result.total_rollbacks += stats.rollbacks;
    result.done_times.push_back(done_time_[static_cast<size_t>(pid)]);
    end = std::max(end, done_time_[static_cast<size_t>(pid)]);
  }
  if (end == TimePoint()) {
    end = sim_->Now();
  }
  result.end_time = end;

  if (!options_.trace_path.empty()) {
    Status status = tracer_.WriteChromeTrace(options_.trace_path);
    if (!status.ok()) {
      FTX_LOG(kWarning, "failed to write trace to %s: %s", options_.trace_path.c_str(),
              status.ToString().c_str());
    } else {
      FTX_LOG(kInfo, "wrote %zu trace events to %s", tracer_.size(),
              options_.trace_path.c_str());
    }
  }
  return result;
}

}  // namespace ftx
