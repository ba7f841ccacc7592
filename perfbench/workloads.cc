#include "perfbench/workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "perfbench/layers.h"
#include "src/apps/fleet.h"
#include "src/apps/workloads.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/computation.h"
#include "src/core/parallel.h"
#include "src/torture/torture.h"

namespace perfbench {

namespace {

// Isolated replays time at most this many events: enough for a stable
// per-event cost without doubling a fleet run's memory.
constexpr int64_t kMaxReplayEvents = 1000000;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

int64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

int64_t CounterOr0(const ftx_obs::MetricsSnapshot& snapshot, std::string_view name) {
  const ftx_obs::MetricValue* value = snapshot.Find(name);
  return value == nullptr ? 0 : value->counter;
}

// Runtime, simulator and storage counts of a finished computation.
void AddRunLayers(ftx::Computation& computation, const ftx::ComputationResult& result,
                  std::map<std::string, double>* layers) {
  int64_t coordinated = 0;
  int64_t pages = 0;
  for (const ftx_dc::RuntimeStats& stats : result.per_process) {
    coordinated += stats.coordinated_commits;
    pages += stats.pages_committed;
  }
  int64_t recoveries = 0;
  for (int pid = 0; pid < computation.num_processes(); ++pid) {
    recoveries += computation.recovery_attempts(pid);
  }
  auto& l = *layers;
  l["checkpoint.commits"] = static_cast<double>(result.total_commits);
  l["checkpoint.coordinated_commits"] = static_cast<double>(coordinated);
  l["checkpoint.pages_committed"] = static_cast<double>(pages);
  l["checkpoint.rollbacks"] = static_cast<double>(result.total_rollbacks);
  l["checkpoint.recoveries"] = static_cast<double>(recoveries);

  const ftx_obs::MetricsSnapshot snapshot = computation.metrics().Snapshot();
  for (const char* name : {"sim.events_executed", "sim.cross_shard_events", "sim.messages_sent",
                           "sim.bytes_sent", "sim.messages_requeued"}) {
    l[name] = static_cast<double>(CounterOr0(snapshot, name));
  }
  l["storage.redo_records"] = static_cast<double>(snapshot.TotalCounter("redo.records"));
  l["storage.redo_bytes"] = static_cast<double>(snapshot.TotalCounter("redo.bytes_written"));
  l["storage.disk_sync_writes"] = static_cast<double>(snapshot.TotalCounter("disk.sync_writes"));
}

// Replays the run's trace into a fresh lean Trace and prices each append.
// The replay order keeps every process's own order and puts each send
// before its receives (Trace::Append requires that); only the appends are
// timed.
void ReplayTrace(const ftx_sm::Trace& trace, std::map<std::string, double>* layers) {
  const int n = trace.num_processes();
  int64_t total = 0;
  int64_t coord = 0;
  for (int p = 0; p < n; ++p) {
    for (const ftx_sm::TraceEvent& event : trace.ProcessEvents(p)) {
      ++total;
      coord += event.label == "2pc" ? 1 : 0;
    }
  }
  (*layers)["statemachine.trace_events"] = static_cast<double>(total);
  (*layers)["statemachine.coord_events"] = static_cast<double>(coord);

  const auto cap = static_cast<size_t>(std::min(total, kMaxReplayEvents));
  std::vector<const ftx_sm::TraceEvent*> order;
  order.reserve(cap);
  std::vector<size_t> cursor(static_cast<size_t>(n), 0);
  std::unordered_set<int64_t> sent;
  bool progressed = true;
  while (order.size() < cap && progressed) {
    progressed = false;
    for (int p = 0; p < n && order.size() < cap; ++p) {
      const std::vector<ftx_sm::TraceEvent>& events = trace.ProcessEvents(p);
      size_t& at = cursor[static_cast<size_t>(p)];
      while (at < events.size() && order.size() < cap) {
        const ftx_sm::TraceEvent& event = events[at];
        if (event.kind == ftx_sm::EventKind::kReceive && sent.count(event.message_id) == 0) {
          break;
        }
        if (event.kind == ftx_sm::EventKind::kSend) {
          sent.insert(event.message_id);
        }
        order.push_back(&event);
        ++at;
        progressed = true;
      }
    }
  }
  if (order.empty()) {
    return;
  }

  ftx_sm::TraceOptions lean;
  lean.record_clocks = false;
  const int64_t heap_before = HeapInUseBytes();
  auto fresh = std::make_unique<ftx_sm::Trace>(n, lean);
  const int64_t start = NowNs();
  for (const ftx_sm::TraceEvent* event : order) {
    fresh->Append(event->process, event->kind, event->message_id, event->logged, event->label,
                  event->atomic_group);
  }
  const int64_t elapsed = NowNs() - start;
  const int64_t heap_after = HeapInUseBytes();
  const auto replayed = static_cast<double>(order.size());
  (*layers)["statemachine.trace_append_ns"] = static_cast<double>(elapsed) / replayed;
  (*layers)["statemachine.trace_bytes_per_event"] =
      static_cast<double>(heap_after - heap_before) / replayed;
}

// Prices one dispatch of the event engine: a Simulator with the run's shard
// plan keeps one pending event per process (the depth a computation keeps)
// and executes as many events as the run did, each with an empty callback
// and one re-arm.
void ReplayDispatch(const ftx_sim::ShardPlan& plan, int64_t events,
                    std::map<std::string, double>* layers) {
  events = std::min(events, kMaxReplayEvents);
  if (events <= 0) {
    return;
  }
  const int n = plan.num_processes();
  ftx_sim::Simulator sim(/*seed=*/1, plan);
  ftx::Rng rng(7);
  auto delay = [&rng]() {
    return ftx::Nanoseconds(1 + static_cast<int64_t>(rng.NextBounded(1000000)));
  };
  for (int pid = 0; pid < n; ++pid) {
    sim.ScheduleAtFor(pid, ftx::TimePoint() + delay(), []() {});
  }
  const int64_t start = NowNs();
  for (int64_t i = 0; i < events; ++i) {
    sim.RunOne();
    sim.ScheduleAtFor(static_cast<int>(i % n), sim.Now() + delay(), []() {});
  }
  const int64_t elapsed = NowNs() - start;
  (*layers)["sim.dispatch_ns_per_event"] = static_cast<double>(elapsed) / static_cast<double>(events);
}

// --- fleet ---------------------------------------------------------------

struct FleetShape {
  const char* protocol;
  int servers;
  int clients;
  int requests_per_client;
  double crash_fraction;  // share of all processes that is stop-failed
  // Simulated end time (ComputationResult::end_time) of this shape's
  // fault-free run at seed 1, read once from an untimed run with the options
  // of FleetWorkload::Options and pinned here; crashes land in its middle
  // 80%, so no calibration run is timed. Re-derive it the same way when the
  // shape or the simulated timing model changes.
  int64_t window_ns;
};

struct CrashPlan {
  int pid = 0;
  ftx::TimePoint at;
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(FleetShape shape, uint64_t seed) : shape_(shape), seed_(seed) {
    config_.num_servers = shape.servers;
    config_.num_clients = shape.clients;
    config_.requests_per_client = shape.requests_per_client;
    config_.report_every = 256;
  }

  Iteration Run(const IterationConfig& config) override {
    SpanRecorder* spans = config.spans;
    Iteration it;
    if (spans != nullptr) {
      spans->Begin("bench.iteration");
    }
    const int64_t t0 = NowNs();
    std::vector<std::unique_ptr<ftx_dc::App>> apps;
    {
      ScopedSpan span(spans, "core.make_apps");
      apps = Decorate(ftx_apps::MakeFleetApps(config_), spans);
    }
    std::unique_ptr<ftx::Computation> computation;
    {
      ScopedSpan span(spans, "core.construct");
      computation = Construct(std::move(apps), config.critical_path);
    }
    const int64_t t1 = NowNs();
    ftx::ComputationResult result;
    {
      ScopedSpan span(spans, "core.run");
      result = computation->Run();
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span(spans, "bench.check");
      Check(*computation, result, &it);
    }
    if (spans != nullptr) {
      spans->End();
      AddRunLayers(*computation, result, &it.layers);
      traced_ = std::move(computation);
    }
    it.setup_s = Seconds(t1 - t0);
    it.run_s = Seconds(t2 - t1);
    return it;
  }

  void MeasureIsolated(std::map<std::string, double>* layers) override {
    if (traced_ == nullptr) {
      return;
    }
    ReplayTrace(traced_->trace(), layers);
    ReplayDispatch(traced_->sim().plan(), traced_->sim().events_executed(), layers);
    traced_.reset();
  }

  bool has_critical_path() const override { return true; }

 private:
  ftx::ComputationOptions Options(bool critical_path) const {
    ftx::ComputationOptions options;
    options.seed = seed_;
    options.protocol = shape_.protocol;
    options.store = ftx::StoreKind::kRio;
    options.shards = std::min(8, config_.num_processes());
    options.lean_trace = true;
    options.critical_path = critical_path;
    options.recovery_delay = ftx::Microseconds(200);
    return options;
  }

  // The computation with the seed's crash plan scheduled.
  std::unique_ptr<ftx::Computation> Construct(std::vector<std::unique_ptr<ftx_dc::App>> apps,
                                              bool critical_path) const {
    auto computation = std::make_unique<ftx::Computation>(Options(critical_path), std::move(apps));
    for (const CrashPlan& crash : PlanCrashes()) {
      computation->ScheduleStopFailure(crash.pid, crash.at, ftx::Microseconds(200));
    }
    return computation;
  }

  // One server and the rest clients, times uniform over the middle 80% of
  // the pinned fault-free window; a pure function of the seed. Drawing the
  // server crash apart (instead of pids over the whole fleet) gives every
  // seed the same number of server crashes.
  std::vector<CrashPlan> PlanCrashes() const {
    const int64_t window_ns = shape_.window_ns;
    const int n = config_.num_processes();
    const int count = std::max(1, static_cast<int>(n * shape_.crash_fraction + 0.5));
    ftx::Rng rng(ftx::DeriveTrialSeed(seed_, 0xf1ee7));
    const int64_t lo = window_ns / 10;
    const int64_t hi = std::max(lo + 1, window_ns * 9 / 10);
    std::vector<CrashPlan> plan(static_cast<size_t>(count));
    for (size_t i = 0; i < plan.size(); ++i) {
      plan[i].pid = i == 0 ? static_cast<int>(rng.NextBounded(static_cast<uint64_t>(config_.num_servers)))
                           : config_.num_servers + static_cast<int>(rng.NextBounded(
                                                       static_cast<uint64_t>(config_.num_clients)));
      plan[i].at = ftx::TimePoint() + ftx::Nanoseconds(rng.NextInRange(lo, hi));
    }
    return plan;
  }

  // Exactly-once ledger checks against the committed server and client
  // segments (the checks bench/fleet_faults gates on), plus the
  // fingerprint of the simulated outcome.
  void Check(ftx::Computation& computation, const ftx::ComputationResult& result,
             Iteration* it) const {
    const int64_t requests = static_cast<int64_t>(config_.num_clients) * config_.requests_per_client;
    int64_t executed = 0;
    int64_t failed_processes = result.all_done ? 0 : 1;
    for (int pid = 0; pid < config_.num_processes(); ++pid) {
      ftx_dc::App& app = Undecorated(computation.app(pid));
      if (auto* server = dynamic_cast<ftx_apps::FleetServer*>(&app)) {
        executed += server->executed_ops();
      } else if (auto* client = dynamic_cast<ftx_apps::FleetClient*>(&app)) {
        executed += client->executed_ops();
      }
      failed_processes += computation.recovery_abandoned(pid) ? 1 : 0;
    }
    int64_t applied = 0;
    int64_t value_sum = 0;
    for (int s = 0; s < config_.num_servers; ++s) {
      applied += ftx_apps::FleetServer::AppliedCount(computation.runtime(s));
      value_sum += ftx_apps::FleetServer::ValueSum(computation.runtime(s));
    }
    int64_t acked = 0;
    int64_t bad_clients = 0;
    for (int c = 0; c < config_.num_clients; ++c) {
      const int64_t client_acked =
          ftx_apps::FleetClient::AckedCount(computation.runtime(config_.num_servers + c));
      acked += client_acked;
      bad_clients += client_acked == config_.requests_per_client ? 0 : 1;
    }
    const int64_t lost_or_duplicated =
        std::abs(applied - requests) +
        (value_sum == ftx_apps::FleetExpectedValueSum(config_) ? 0 : 1) + bad_clients;
    // Efficiency (necessary / executed work) can never exceed 1.
    const int64_t overcount = executed < 2 * requests ? 1 : 0;

    it->attempted = requests + config_.num_processes();
    it->failed = lost_or_duplicated + failed_processes + overcount;
    it->ops = std::max<int64_t>(0, requests - lost_or_duplicated);
    it->commits = result.total_commits;
    it->fingerprint =
        Fingerprint({result.total_commits, result.total_rollbacks, executed,
                     result.end_time.nanos(), applied, value_sum, acked, result.all_done ? 1 : 0});
  }

  FleetShape shape_;
  uint64_t seed_;
  ftx_apps::FleetConfig config_;
  std::unique_ptr<ftx::Computation> traced_;
};

// --- magic on DC-disk ------------------------------------------------------

class MagicCommitWorkload final : public Workload {
 public:
  MagicCommitWorkload(int scale, uint64_t seed) : scale_(scale), seed_(seed) {}

  Iteration Run(const IterationConfig& config) override {
    SpanRecorder* spans = config.spans;
    Iteration it;
    if (spans != nullptr) {
      spans->Begin("bench.iteration");
    }
    const int64_t t0 = NowNs();
    ftx_apps::WorkloadSetup setup;
    {
      ScopedSpan span(spans, "core.make_apps");
      setup = ftx_apps::MakeWorkload("magic", scale_, seed_);
      setup.apps = Decorate(std::move(setup.apps), spans);
    }
    std::unique_ptr<ftx::Computation> computation;
    {
      ScopedSpan span(spans, "core.construct");
      computation = Construct(std::move(setup));
    }
    const int64_t t1 = NowNs();
    ftx::ComputationResult result;
    {
      ScopedSpan span(spans, "core.run");
      result = computation->Run();
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span(spans, "bench.check");
      int64_t persisted = 0;
      for (const ftx_dc::RuntimeStats& stats : result.per_process) {
        persisted += stats.bytes_persisted;
      }
      it.attempted = scale_;
      it.failed = result.all_done ? 0 : scale_;
      it.ops = result.all_done ? scale_ : 0;
      it.commits = result.total_commits;
      it.fingerprint = Fingerprint(
          {result.total_commits, persisted, result.end_time.nanos(), result.all_done ? 1 : 0});
    }
    if (spans != nullptr) {
      spans->End();
      AddRunLayers(*computation, result, &it.layers);
      traced_ = std::move(computation);
    }
    it.setup_s = Seconds(t1 - t0);
    it.run_s = Seconds(t2 - t1);
    return it;
  }

  void MeasureIsolated(std::map<std::string, double>* layers) override {
    if (traced_ == nullptr) {
      return;
    }
    ReplayTrace(traced_->trace(), layers);
    ReplayDispatch(traced_->sim().plan(), traced_->sim().events_executed(), layers);
    traced_.reset();
  }

 private:
  // The Fig. 8 magic configuration: CAND on DC-disk, recoverable.
  std::unique_ptr<ftx::Computation> Construct(ftx_apps::WorkloadSetup setup) const {
    ftx::ComputationOptions options;
    options.seed = seed_;
    options.protocol = "cand";
    options.store = ftx::StoreKind::kDisk;
    auto computation = std::make_unique<ftx::Computation>(options, std::move(setup.apps));
    for (int pid = 0; pid < computation->num_processes(); ++pid) {
      if (pid < static_cast<int>(setup.scripts.size())) {
        computation->SetInputScript(pid, std::move(setup.scripts[static_cast<size_t>(pid)]));
      }
    }
    return computation;
  }

  int scale_;
  uint64_t seed_;
  std::unique_ptr<ftx::Computation> traced_;
};

// --- torture of the DC-disk commit path -----------------------------------

class TortureWorkload final : public Workload {
 public:
  // Explores `explorations` magic inputs per iteration, each from its own
  // seed derived from `seed`: one input's commit windows vary widely in
  // size, and the sum over several varies much less from seed to seed.
  TortureWorkload(int scale, int windows, int explorations, int jobs, uint64_t seed)
      : jobs_(jobs) {
    for (int k = 0; k < explorations; ++k) {
      ftx_torture::TortureSpec spec;
      spec.workload = "magic";
      spec.scale = scale;
      spec.seed = ftx::DeriveTrialSeed(seed, static_cast<uint64_t>(k));
      spec.max_commit_windows = windows;
      specs_.push_back(spec);
    }
  }

  Iteration Run(const IterationConfig& config) override {
    SpanRecorder* spans = config.spans;
    Iteration it;
    if (spans != nullptr) {
      spans->Begin("bench.iteration");
    }
    // The engine generates its inputs and builds its computations itself,
    // inside the timed phase; set-up here is the worker pool alone.
    const int64_t t0 = NowNs();
    std::unique_ptr<ftx::TrialPool> pool;
    {
      ScopedSpan span(spans, "core.construct");
      pool = std::make_unique<ftx::TrialPool>(jobs_);
    }
    const int64_t t1 = NowNs();
    std::vector<ftx_torture::TortureReport> reports;
    {
      ScopedSpan span(spans, "torture.explore");
      for (const ftx_torture::TortureSpec& spec : specs_) {
        reports.push_back(ftx_torture::ExploreCommitPath(spec, pool.get()));
      }
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span(spans, "bench.check");
      uint64_t fingerprint = 0;
      for (const ftx_torture::TortureReport& r : reports) {
        it.attempted += r.crash_states + r.replays;
        it.failed += r.violations + r.audit_violations + (r.replays - r.replays_consistent);
        it.ops += r.crash_states;
        it.commits += r.commits;
        it.layers["torture.replays"] += static_cast<double>(r.replays);
        fingerprint = Fingerprint(
            {static_cast<int64_t>(fingerprint), r.commits, r.journal_ops, r.explored_ops,
             r.prefix_states, r.torn_states, r.reorder_states, r.crash_states,
             r.survivor_committed, r.survivor_inflight, r.survivor_none, r.tail_records_seen,
             r.blackbox_states, r.replays, r.replays_consistent, r.violations});
      }
      it.fingerprint = fingerprint;
    }
    it.setup_s = Seconds(t1 - t0);
    it.run_s = Seconds(t2 - t1);
    if (spans != nullptr) {
      spans->End();
      it.layers["checkpoint.commits"] = static_cast<double>(it.commits);
      it.layers["torture.crash_states"] = static_cast<double>(it.ops);
      explore_s_ = it.run_s;
    }
    return it;
  }

  bool single_threaded() const override { return jobs_ <= 1; }

  // Decode-only pass (no survivor replays): its time is the decode share
  // of the traced exploration, the remainder the replay share.
  void MeasureIsolated(std::map<std::string, double>* layers) override {
    ftx::TrialPool pool(jobs_);
    const int64_t t0 = NowNs();
    for (ftx_torture::TortureSpec decode_only : specs_) {
      decode_only.replay = false;
      ftx_torture::ExploreCommitPath(decode_only, &pool);
    }
    const double decode_s = Seconds(NowNs() - t0);
    (*layers)["torture.decode_s"] = decode_s;
    (*layers)["torture.replay_s"] = std::max(0.0, explore_s_ - decode_s);
  }

 private:
  std::vector<ftx_torture::TortureSpec> specs_;
  int jobs_;
  double explore_s_ = 0.0;
};

// Workload sizes: at most a few seconds per iteration on a 4-vCPU host and
// at most ~1 GB resident, so a run holds enough iterations for a median.
constexpr FleetShape kFleet2pc = {"cpv-2pc", 16, 5000, 3, 0.01, 116515124};
constexpr int kMagicCommitScale = 150;
constexpr int kTortureScale = 4;
constexpr int kTortureWindows = 1;
constexpr int kTortureExplorations = 64;
// TrialPool size of torture-magic (at most the host's 4 hardware threads).
constexpr int kTortureJobs = 4;

struct Pin {
  const char* workload;
  uint64_t seed;
  uint64_t fingerprint;
};
// Simulated fingerprints at kDefaultSeed. A change that alters simulated
// behaviour on purpose re-pins these (perfbench prints the fingerprint of
// every run).
constexpr Pin kPins[] = {
    {"fleet-2pc", kDefaultSeed, 0xb8471ac81106f174ULL},
    {"magic-commit", kDefaultSeed, 0x3c4c7bf6fe9ad368ULL},
    {"torture-magic", kDefaultSeed, 0x8294b3c77a3a546eULL},
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fleet-2pc", "magic-commit", "torture-magic"};
  return names;
}

std::unique_ptr<Workload> MakeBenchWorkload(std::string_view name, uint64_t seed) {
  if (name == "fleet-2pc") {
    return std::make_unique<FleetWorkload>(kFleet2pc, seed);
  }
  if (name == "magic-commit") {
    return std::make_unique<MagicCommitWorkload>(kMagicCommitScale, seed);
  }
  if (name == "torture-magic") {
    return std::make_unique<TortureWorkload>(kTortureScale, kTortureWindows, kTortureExplorations,
                                             kTortureJobs, seed);
  }
  return nullptr;
}

std::optional<uint64_t> PinnedFingerprint(std::string_view workload, uint64_t seed) {
  for (const Pin& pin : kPins) {
    if (workload == pin.workload && seed == pin.seed && pin.fingerprint != 0) {
      return pin.fingerprint;
    }
  }
  return std::nullopt;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"core.make_apps_s", "s"},
      {"core.construct_s", "s"},
      {"core.run_s", "s"},
      {"core.outside_app_s", "s"},
      {"apps.steps", "count"},
      {"apps.step_self_s", "s"},
      {"checkpoint.print_s", "s"},
      {"checkpoint.print_calls", "count"},
      {"checkpoint.print_us_p50", "us"},
      {"checkpoint.print_us_tail", "us"},
      {"checkpoint.print_tail_pct", "%"},
      {"checkpoint.send_s", "s"},
      {"checkpoint.send_calls", "count"},
      {"checkpoint.receive_s", "s"},
      {"checkpoint.receive_calls", "count"},
      {"checkpoint.input_s", "s"},
      {"checkpoint.input_calls", "count"},
      {"checkpoint.nd_other_s", "s"},
      {"checkpoint.nd_other_calls", "count"},
      {"checkpoint.compute_s", "s"},
      {"checkpoint.compute_calls", "count"},
      {"checkpoint.commits", "count"},
      {"checkpoint.coordinated_commits", "count"},
      {"checkpoint.pages_committed", "count"},
      {"checkpoint.rollbacks", "count"},
      {"checkpoint.recoveries", "count"},
      {"checkpoint.recover_s", "s"},
      {"checkpoint.recover.log_scan_s", "s"},
      {"checkpoint.recover.crc_validate_s", "s"},
      {"checkpoint.recover.page_install_s", "s"},
      {"checkpoint.recover.undo_rollback_s", "s"},
      {"checkpoint.recover.kernel_replay_s", "s"},
      {"checkpoint.recover.nd_replay_s", "s"},
      {"checkpoint.recover.app_rebuild_s", "s"},
      {"statemachine.trace_events", "count"},
      {"statemachine.coord_events", "count"},
      {"statemachine.trace_append_ns", "ns"},
      {"statemachine.trace_bytes_per_event", "B"},
      {"sim.events_executed", "count"},
      {"sim.cross_shard_events", "count"},
      {"sim.messages_sent", "count"},
      {"sim.bytes_sent", "B"},
      {"sim.messages_requeued", "count"},
      {"sim.dispatch_ns_per_event", "ns"},
      {"vista.first_touch_s", "s"},
      {"storage.commit_s", "s"},
      {"storage.serialize_crc_s", "s"},
      {"storage.persist_s", "s"},
      {"storage.logimage_decode_s", "s"},
      {"storage.redo_records", "count"},
      {"storage.redo_bytes", "B"},
      {"storage.disk_sync_writes", "count"},
      {"torture.crash_states", "count"},
      {"torture.replays", "count"},
      {"torture.decode_s", "s"},
      {"torture.image_check_s", "s"},
      {"torture.replay_s", "s"},
      {"obs.critical_path_overhead_frac", "frac"},
      {"obs.trace_overhead_frac", "frac"},
      {"obs.unattributed_frac", "frac"},
  };
  return metrics;
}

}  // namespace perfbench
