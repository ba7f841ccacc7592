// ftx::prof — low-overhead scoped wall-clock profiler for the hot paths.
//
// Everything else in src/obs measures *simulated* time; this module measures
// *host* time: where the reproduction itself spends its cycles committing,
// recovering, and torturing crash states. It exists so the MTTR of the
// recovery path and the cost of the commit machinery are attributable
// phase-by-phase (log scan, CRC validate, page install, reprotect, ND
// replay, ...) instead of being one opaque number.
//
// Design constraints, in order:
//
//  * Off by default and near-free when off. FTX_PROF_SCOPE compiles to one
//    thread-local load and a branch when no profiler is active on the
//    calling thread. No simulated quantity may ever depend on profiling
//    being on or off (the golden-snapshot compares in bench/golden pin
//    this).
//  * RAII phase timers on a thread-local stack. A Scope pushes a frame on
//    construction and folds its wall-clock interval into a per-thread call
//    tree on destruction; nesting builds collapsed stacks ("a;b;c").
//  * Per-thread buffers, merged deterministically. Threads never contend on
//    the hot path: each (profiler, thread) pair owns a shard, and
//    Profiler::Merge() aggregates shards into entries sorted by stack path.
//    Scope *counts* are therefore byte-identical for any --jobs value (the
//    same scopes execute no matter which worker runs them); only the
//    wall-clock fields vary run to run.
//  * ftx::TrialPool propagates the caller's active profiler into its
//    workers (src/core/parallel.cc), so a bench row that shards trials
//    still captures every scope in one profile.
//
// Export: collapsed-stack text (FlameGraph / speedscope compatible).

#ifndef FTX_SRC_OBS_PROF_PROF_H_
#define FTX_SRC_OBS_PROF_PROF_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json.h"

namespace ftx_prof {

// One aggregated call-tree node after a merge, addressed by its collapsed
// stack path ("commit;commit.serialize").
struct ProfileEntry {
  std::string stack;
  int64_t count = 0;     // times the scope ran (deterministic across --jobs)
  int64_t total_ns = 0;  // wall-clock including children
  int64_t self_ns = 0;   // wall-clock excluding children
};

// A merged, immutable profile: entries sorted by stack path.
struct Profile {
  std::vector<ProfileEntry> entries;

  bool empty() const { return entries.empty(); }
  const ProfileEntry* Find(std::string_view stack) const;

  // Aggregation by *leaf* scope name, summed over every stack the scope
  // appears in ("recover.crc_validate" regardless of what called it). This
  // is what the recovery bench reports as the per-phase breakdown.
  int64_t LeafTotalNs(std::string_view leaf) const;
  int64_t LeafCount(std::string_view leaf) const;

  // FlameGraph collapsed-stack text: one "a;b;c WEIGHT" line per entry in
  // sorted order. `weight_ns` selects total nanoseconds (the flamegraph
  // you want) vs scope counts (byte-deterministic across runs).
  std::string ToCollapsed(bool weight_ns = true) const;
};

// A profiler instance: owns the per-thread shards scopes record into while
// it is a thread's active profiler. Create one per measurement (a bench
// row, a test), activate it, run, then Merge().
class Profiler {
 public:
  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Aggregates every thread shard into one sorted profile. Do not call
  // concurrently with active scopes on other threads (merge after the
  // parallel section — TrialPool::ParallelFor has returned).
  Profile Merge() const;

  // The calling thread's active profiler (nullptr when none): what
  // FTX_PROF_SCOPE records into, and what TrialPool propagates to workers.
  static Profiler* ActiveOnThisThread();

  // Unique per-instance id (never reused); lets thread caches detect a
  // destroyed-and-reallocated profiler.
  uint64_t id() const { return id_; }

 private:
  friend class Activation;
  friend class Scope;
  struct Shard;
  struct ThreadState;

  static ThreadState& Tls();
  // Returns the calling thread's shard of this profiler, creating and
  // registering it on first use (the only locked operation).
  Shard* AcquireShard();

  uint64_t id_ = 0;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// RAII: makes `profiler` the calling thread's active profiler, restoring
// the previous one on destruction. Activation(nullptr) is a no-op (so
// propagation code can activate unconditionally).
class Activation {
 public:
  explicit Activation(Profiler* profiler);
  ~Activation();

  Activation(const Activation&) = delete;
  Activation& operator=(const Activation&) = delete;

 private:
  Profiler* previous_ = nullptr;
  void* previous_shard_ = nullptr;
  bool activated_ = false;
};

// RAII phase timer. `name` must be a string with static storage duration
// (instrumentation sites use literals) and must not contain ';' or '\n'
// (they delimit the collapsed-stack format).
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void* shard_ = nullptr;  // null when no profiler was active at entry
};

#define FTX_PROF_CONCAT_INNER(a, b) a##b
#define FTX_PROF_CONCAT(a, b) FTX_PROF_CONCAT_INNER(a, b)
// The one instrumentation macro: times the enclosing block as phase `name`.
#define FTX_PROF_SCOPE(name) ::ftx_prof::Scope FTX_PROF_CONCAT(ftx_prof_scope_, __LINE__)(name)

// Real host metadata for the `meta` block of wall-clock bench JSON (the
// benchmark-library defaults of num_cpus=1/mhz=2100 made cross-host
// trajectories uninterpretable): CPU model string from /proc/cpuinfo,
// hardware thread count, compiler version, and the FTX_NATIVE / sanitizer
// build flags. Deliberately NOT added to the simulated (golden-snapshot)
// benches — their JSON must stay byte-identical across hosts.
ftx_obs::Json HostMetaJson();

}  // namespace ftx_prof

#endif  // FTX_SRC_OBS_PROF_PROF_H_
