#include "src/core/fault_study.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/apps/workloads.h"
#include "src/common/check.h"
#include "src/core/computation.h"
#include "src/faults/calibration.h"
#include "src/faults/injector.h"
#include "src/faults/os_faults.h"
#include "src/statemachine/invariants.h"

namespace ftx {
namespace {

// Small non-interactive runs keep ~50-crash studies fast while leaving room
// for activation + latency tails before the workload ends.
constexpr int kStudyScale = 600;

struct StudySetup {
  std::unique_ptr<Computation> computation;
  ftx_fault::FaultyApp* faulty = nullptr;
};

StudySetup BuildFaultyComputation(const std::string& app_name, const ftx_fault::FaultSpec& spec,
                                  uint64_t seed, const std::string& protocol, StoreKind store,
                                  bool audit) {
  ftx_apps::WorkloadSetup setup =
      ftx_apps::MakeWorkload(app_name, kStudyScale, seed, /*interactive=*/false);
  FTX_CHECK_EQ(setup.apps.size(), 1u);

  auto faulty = std::make_unique<ftx_fault::FaultyApp>(std::move(setup.apps[0]), spec);
  ftx_fault::FaultyApp* faulty_raw = faulty.get();
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::move(faulty));

  ComputationOptions options;
  options.seed = seed;
  options.protocol = protocol;
  options.store = store;
  options.recovery_delay = Milliseconds(5);
  options.max_recovery_attempts = 2;
  options.max_sim_time = Seconds(600.0);
  options.audit = audit;

  StudySetup result;
  result.computation = std::make_unique<Computation>(std::move(options), std::move(apps));
  result.computation->SetInputScript(0, setup.scripts[0]);
  result.faulty = faulty_raw;
  return result;
}

void CollectAudit(Computation& computation, FaultRunResult* result) {
  ftx_causal::CausalAudit* audit = computation.audit();
  if (audit == nullptr) {
    return;
  }
  result->audited = true;
  result->audit_violations = audit->violations();
  result->audit_incidents = audit->total_incidents();
  if (!audit->incidents().empty()) {
    result->audit_first_dump = audit->incidents().front().dump;
  }
}

FaultRunResult RunPropagationFault(const std::string& app_name, ftx_fault::FaultType type,
                                   uint64_t seed, const std::string& protocol, StoreKind store,
                                   double slow_detection_probability,
                                   double continue_probability, bool audit) {
  ftx::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  ftx_fault::FaultSpec spec;
  spec.type = type;
  spec.activation_step =
      static_cast<int64_t>(rng.NextInRange(kStudyScale / 5, (kStudyScale * 7) / 10));
  spec.slow_detection_probability = slow_detection_probability;
  spec.continue_probability = continue_probability;
  spec.seed = rng.NextU64();

  StudySetup setup = BuildFaultyComputation(app_name, spec, seed, protocol, store, audit);
  ComputationResult run = setup.computation->Run();

  FaultRunResult result;
  CollectAudit(*setup.computation, &result);
  const ftx_fault::InjectionOutcome& outcome = setup.faulty->outcome();
  result.crashed = outcome.crashed;
  result.benign = outcome.benign_overwrite && !outcome.crashed;
  if (!result.crashed) {
    return result;
  }

  // Lose-work measurement from the recorded trace.
  ftx_sm::LoseWorkResult lose_work =
      ftx_sm::CheckLoseWorkOperational(setup.computation->trace(), 0);
  result.violated_lose_work = lose_work.applicable && lose_work.violated;

  // End-to-end outcome: with the fault suppressed on reexecution, the run
  // completes iff rollback removed the corruption, i.e. iff no commit
  // landed between activation and crash.
  result.recovery_failed = !run.all_done || setup.computation->recovery_abandoned(0);
  result.trace_and_outcome_agree = result.violated_lose_work == result.recovery_failed;
  return result;
}

}  // namespace

FaultRunResult RunApplicationFault(const std::string& app_name, ftx_fault::FaultType type,
                                   uint64_t seed, const std::string& protocol, StoreKind store,
                                   bool audit) {
  return RunPropagationFault(app_name, type, seed, protocol, store,
                             ftx_fault::AppFaultSlowDetectionProbability(app_name, type),
                             ftx_fault::ContinueProbability(type), audit);
}

FaultRunResult RunOsFault(const std::string& app_name, ftx_fault::FaultType type, uint64_t seed,
                          const std::string& protocol, StoreKind store, bool audit) {
  ftx::Rng rng(seed * 0xd1b54a32d192ed03ULL + 5);
  ftx_fault::OsFaultPlan plan = ftx_fault::PlanOsFault(&rng, app_name, type);

  if (plan.manifestation == ftx_fault::OsFaultManifestation::kPropagationFailure) {
    FaultRunResult result = RunPropagationFault(app_name, type, seed, protocol, store,
                                                plan.slow_detection_probability,
                                                plan.continue_probability, audit);
    // OS propagation failures always crash *something* — if the corruption
    // was benignly overwritten in the application, the kernel itself still
    // went down; treat it as a stop failure instead (recovery succeeds).
    if (!result.crashed) {
      result.crashed = true;
      result.recovery_failed = false;
      result.violated_lose_work = false;
    }
    return result;
  }

  // Stop failure: the machine halts mid-run and reboots; recovery restarts
  // the application from its last commit. Run it for real.
  ftx_fault::FaultSpec no_fault;
  no_fault.activation_step = -1;  // never activates
  StudySetup setup = BuildFaultyComputation(app_name, no_fault, seed, protocol, store, audit);
  // Crash somewhere in the middle of the (non-interactive) run.
  Duration when = Seconds(0.02 + 0.2 * plan.when_fraction);
  setup.computation->ScheduleOsStopFailure(TimePoint() + when, /*reboot_delay=*/Seconds(1.0));
  ComputationResult run = setup.computation->Run();

  FaultRunResult result;
  CollectAudit(*setup.computation, &result);
  result.crashed = true;
  result.recovery_failed = !run.all_done;
  result.trace_and_outcome_agree = true;
  return result;
}

std::vector<FaultRunResult> RunCrashingTrials(
    TrialPool* pool, int target, uint64_t seed_base, int max_attempts,
    const std::function<FaultRunResult(uint64_t seed)>& attempt) {
  std::vector<FaultRunResult> crashing;
  if (target <= 0 || max_attempts <= 0) {
    return crashing;
  }
  // Attempts run in waves sized to the pool, but the crash count always
  // folds in attempt order and stops at `target`, so the returned vector is
  // the same for every pool size (a wave may compute attempts past the
  // stopping point; they are discarded). Serial runs use waves of one and
  // therefore never compute a surplus attempt — exactly the old loop.
  const int64_t wave =
      pool != nullptr && pool->jobs() > 1 ? static_cast<int64_t>(pool->jobs()) * 2 : 1;
  int64_t issued = 0;
  while (static_cast<int>(crashing.size()) < target && issued < max_attempts) {
    const int64_t n = std::min<int64_t>(wave, max_attempts - issued);
    std::vector<FaultRunResult> results(static_cast<size_t>(n));
    auto body = [&](int64_t i) {
      results[static_cast<size_t>(i)] =
          attempt(DeriveTrialSeed(seed_base, static_cast<uint64_t>(issued + i)));
    };
    if (pool != nullptr) {
      pool->ParallelFor(n, body);
    } else {
      for (int64_t i = 0; i < n; ++i) {
        body(i);
      }
    }
    issued += n;
    for (FaultRunResult& result : results) {
      if (!result.crashed) {
        continue;  // the paper's methodology: only crashing runs count
      }
      crashing.push_back(result);
      if (static_cast<int>(crashing.size()) >= target) {
        break;
      }
    }
  }
  return crashing;
}

FaultStudyRow RunFaultStudy(const FaultStudySpec& spec) {
  FaultStudyRow row;
  row.type = spec.type;
  std::vector<FaultRunResult> crashes = RunCrashingTrials(
      spec.pool, spec.target_crashes, spec.seed_base, spec.target_crashes * 20,
      [&spec](uint64_t seed) {
        return spec.kind == FaultStudyKind::kOs
                   ? RunOsFault(spec.app, spec.type, seed, spec.protocol, spec.store, spec.audit)
                   : RunApplicationFault(spec.app, spec.type, seed, spec.protocol, spec.store,
                                         spec.audit);
      });
  row.crashes = static_cast<int>(crashes.size());
  row.audited = spec.audit;
  for (const FaultRunResult& result : crashes) {
    if (result.violated_lose_work) {
      ++row.violations;
    }
    if (result.recovery_failed) {
      ++row.failed_recoveries;
    }
    row.audit_violations += result.audit_violations;
    row.audit_incidents += result.audit_incidents;
    if (!result.audit_first_dump.empty() && row.audit_incident_dumps.size() < 2) {
      row.audit_incident_dumps.push_back(result.audit_first_dump);
    }
  }
  if (row.crashes > 0) {
    row.violation_fraction = static_cast<double>(row.violations) / row.crashes;
    row.failed_recovery_fraction = static_cast<double>(row.failed_recoveries) / row.crashes;
  }
  return row;
}

}  // namespace ftx
