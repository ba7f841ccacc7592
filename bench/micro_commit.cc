// Micro-benchmarks (google-benchmark) of the commit-path primitives behind
// the Fig. 8 numbers: Vista write barriers and undo logging, commit/abort,
// heap churn, the dangerous-paths coloring algorithm, the Save-work
// checker, trace appends of a fleet 2PC round, and simulated-cost lookups
// for both stable stores.
//
// These measure REAL host CPU time of the library's mechanisms (unlike the
// fig8/table binaries, which report simulated time from the cost models).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/crc32_internal.h"
#include "src/common/rng.h"
#include "src/obs/causal/critical_path.h"
#include "src/statemachine/dangerous_paths.h"
#include "src/statemachine/invariants.h"
#include "src/statemachine/random_model.h"
#include "src/statemachine/trace.h"
#include "src/storage/redo_log.h"
#include "src/storage/stable_store.h"
#include "src/vista/heap.h"
#include "src/vista/segment.h"

namespace {

void BM_SegmentWriteBarrier(benchmark::State& state) {
  ftx_vista::Segment segment(4 << 20);
  int64_t offset = 0;
  for (auto _ : state) {
    segment.WriteValue<uint64_t>(offset, 0x12345678);
    offset = (offset + 64) % static_cast<int64_t>(segment.size() - 8);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentWriteBarrier);

void BM_SegmentWriteBarrierSparse(benchmark::State& state) {
  // Worst case for the cached-range fast path: every store lands on a fresh
  // page with a changed value, so each one pays first-touch bookkeeping and
  // a before-image materialization. Pages are recycled via periodic commits
  // to keep the dirty set bounded.
  ftx_vista::Segment segment(4 << 20);
  const int64_t pages = static_cast<int64_t>(segment.size() / segment.page_size());
  int64_t page = 0;
  uint64_t value = 1;
  for (auto _ : state) {
    segment.WriteValue<uint64_t>(page * 4096, value++);
    if (++page == pages) {
      page = 0;
      segment.Commit();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentWriteBarrierSparse);

void BM_SegmentCommit(benchmark::State& state) {
  const int64_t pages = state.range(0);
  ftx_vista::Segment segment(16 << 20);
  for (auto _ : state) {
    for (int64_t p = 0; p < pages; ++p) {
      segment.WriteValue<uint64_t>(p * 4096, static_cast<uint64_t>(p));
    }
    segment.Commit();
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_SegmentCommit)->Arg(1)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SegmentCommitMutating(benchmark::State& state) {
  // Every epoch stores a value the page does not already hold, so each dirty
  // page pays the full copy-on-write cost: before-image copy into a pooled
  // undo slot plus the store. Measures the materialization + arena path that
  // BM_SegmentCommit's repeated values skip after the first epoch.
  const int64_t pages = state.range(0);
  ftx_vista::Segment segment(16 << 20);
  uint64_t epoch = 0;
  for (auto _ : state) {
    ++epoch;
    for (int64_t p = 0; p < pages; ++p) {
      segment.WriteValue<uint64_t>(p * 4096, epoch);
    }
    segment.Commit();
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_SegmentCommitMutating)->Arg(1)->Arg(64)->Arg(1024);

void BM_RedoRecordAppend(benchmark::State& state) {
  // DC-disk commit serialization: walk the dirty set with the zero-copy
  // visitor and append each page image into a redo record.
  const int64_t pages = state.range(0);
  ftx_vista::Segment segment(16 << 20);
  for (int64_t p = 0; p < pages; ++p) {
    segment.WriteValue<uint64_t>(p * 4096, static_cast<uint64_t>(p) + 1);
  }
  for (auto _ : state) {
    ftx_store::RedoRecord record;
    record.ReservePages(segment.persisted_dirty_page_count(), segment.page_size());
    segment.ForEachPersistedDirtyPage(
        [&record](int64_t offset, const uint8_t* image, size_t size) {
          record.AppendPage(offset, image, size);
        });
    benchmark::DoNotOptimize(record.PayloadBytes());
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_RedoRecordAppend)->Arg(16)->Arg(256);

void BM_RedoRecordAppendUnreserved(benchmark::State& state) {
  // Same walk without the caller's ReservePages hint: relies on
  // AppendPage's own one-reservation-per-run growth. Keeping this near the
  // reserved row pins the reserve-ahead fix — before it, this variant paid
  // several reallocations per record.
  const int64_t pages = state.range(0);
  ftx_vista::Segment segment(16 << 20);
  for (int64_t p = 0; p < pages; ++p) {
    segment.WriteValue<uint64_t>(p * 4096, static_cast<uint64_t>(p) + 1);
  }
  for (auto _ : state) {
    ftx_store::RedoRecord record;
    segment.ForEachPersistedDirtyPage(
        [&record](int64_t offset, const uint8_t* image, size_t size) {
          record.AppendPage(offset, image, size);
        });
    benchmark::DoNotOptimize(record.PayloadBytes());
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_RedoRecordAppendUnreserved)->Arg(256);

// One CRC entry point on a buffer of state.range(0) random bytes.
void RunCrc32(benchmark::State& state, uint32_t (*crc)(uint32_t, const void*, size_t)) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buffer(bytes);
  ftx::Rng rng(7);
  for (auto& b : buffer) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(0, buffer.data(), buffer.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

void BM_Crc32(benchmark::State& state) { RunCrc32(state, &ftx::Crc32Extend); }
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(64 << 10)->Arg(1 << 20);

// The slice-by-8 reference path, bypassing dispatch: the denominator of
// the hardware-CRC speedup gate in bench_hotpath.sh.
void BM_Crc32Portable(benchmark::State& state) { RunCrc32(state, &ftx::Crc32PortableExtend); }
BENCHMARK(BM_Crc32Portable)->Arg(4096)->Arg(64 << 10)->Arg(1 << 20);

// Each hardware kernel called directly, bypassing dispatch, on a page-sized
// buffer: the two rows of the wide-vs-narrow ratio gate in bench_hotpath.sh.
void BM_Crc32Pclmul128(benchmark::State& state) {
  if (!ftx::crc32_internal::HardwareProbe()) {
    state.SkipWithError("no PCLMULQDQ on this host");
    return;
  }
  RunCrc32(state, &ftx::crc32_internal::ExtendPclmul128);
}
BENCHMARK(BM_Crc32Pclmul128)->Arg(4096);

void BM_Crc32Vpclmul512(benchmark::State& state) {
  if (!ftx::crc32_internal::WideProbe()) {
    state.SkipWithError("no AVX-512F + VPCLMULQDQ on this host");
    return;
  }
  RunCrc32(state, &ftx::crc32_internal::ExtendVpclmul512);
}
BENCHMARK(BM_Crc32Vpclmul512)->Arg(4096);

void BM_SegmentAbort(benchmark::State& state) {
  const int64_t pages = state.range(0);
  ftx_vista::Segment segment(16 << 20);
  for (auto _ : state) {
    for (int64_t p = 0; p < pages; ++p) {
      segment.WriteValue<uint64_t>(p * 4096, static_cast<uint64_t>(p));
    }
    segment.Abort();
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_SegmentAbort)->Arg(16)->Arg(256);

void BM_GroupCommit(benchmark::State& state) {
  // Simulated DC-disk commit throughput under group commit: windows of N
  // 4-page records append with one RedoLog::AppendBatch, and each window
  // charges one DiskStore::PersistCost over its payload — one seek+rotation
  // pair per *window* instead of per record. sim_commits_per_sec is the
  // model-time throughput; the ratio of the batch-8 and batch-1 rows is the
  // grouped-commit gate in scripts/bench_hotpath.sh (>= 2x at batch 8).
  // Every record rewrites pages 0-3, so the log releases each record's
  // payload once the next one lands and memory stays bounded.
  const int64_t batch = state.range(0);
  ftx_store::DiskStore store;
  ftx_store::RedoLog log;
  std::vector<ftx_store::RedoRecord> window;

  std::vector<uint8_t> page(4096, 0xa5);
  double sim_ns = 0.0;
  int64_t commits = 0;
  for (auto _ : state) {
    ftx_store::RedoRecord& record = window.emplace_back();
    record.ReservePages(4, page.size());
    for (int64_t p = 0; p < 4; ++p) {
      record.AppendPage(p * 4096, page.data(), page.size());
    }
    ++commits;
    if (static_cast<int64_t>(window.size()) >= batch) {
      sim_ns += static_cast<double>(store.PersistCost(log.AppendBatch(std::move(window))).nanos());
      window.clear();
    }
  }
  if (!window.empty()) {
    sim_ns += static_cast<double>(store.PersistCost(log.AppendBatch(std::move(window))).nanos());
  }
  state.SetItemsProcessed(commits);
  state.counters["sim_commits_per_sec"] =
      benchmark::Counter(sim_ns > 0 ? static_cast<double>(commits) / (sim_ns * 1e-9) : 0.0);
}
BENCHMARK(BM_GroupCommit)->Arg(1)->Arg(8);

void BM_HeapAllocFree(benchmark::State& state) {
  ftx_vista::Segment segment(8 << 20);
  ftx_vista::SegmentHeap heap(&segment, 0, 4 << 20);
  heap.Format();
  for (auto _ : state) {
    auto block = heap.Alloc(256);
    benchmark::DoNotOptimize(block);
    if (block.ok()) {
      (void)heap.Free(*block);
    }
  }
}
BENCHMARK(BM_HeapAllocFree);

void BM_HeapGuardCheck(benchmark::State& state) {
  ftx_vista::Segment segment(8 << 20);
  ftx_vista::SegmentHeap heap(&segment, 0, 4 << 20);
  heap.Format();
  for (int i = 0; i < 200; ++i) {
    (void)heap.Alloc(512);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap.CheckGuards().ok());
  }
}
BENCHMARK(BM_HeapGuardCheck);

void BM_DangerousPathsColoring(benchmark::State& state) {
  ftx::Rng rng(42);
  ftx_sm::RandomGraphOptions options;
  options.num_states = static_cast<int32_t>(state.range(0));
  options.crash_probability = 0.1;
  ftx_sm::StateMachineGraph graph = ftx_sm::MakeRandomGraph(&rng, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftx_sm::ColorDangerousPaths(graph).num_colored);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_edges());
}
BENCHMARK(BM_DangerousPathsColoring)->Arg(64)->Arg(512)->Arg(4096);

void BM_SaveWorkChecker(benchmark::State& state) {
  ftx::Rng rng(42);
  ftx_sm::RandomTraceOptions options;
  options.num_processes = 3;
  options.events_per_process = static_cast<int>(state.range(0));
  ftx_sm::Trace trace = ftx_sm::MakeRandomComputation(&rng, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftx_sm::CheckSaveWork(trace).violations.size());
  }
  state.SetItemsProcessed(state.iterations() * trace.TotalEvents());
}
BENCHMARK(BM_SaveWorkChecker)->Arg(50)->Arg(200);

// One fleet-shaped 2PC round per iteration, on a lean trace of the fleet's
// 5,016 processes (16 servers + 5,000 clients) with the critical-path
// tracker attached, as bench/fleet_faults runs it. The coordinator has
// crashed, so every prepare and ack is a tainted send, as after a server
// crash in the fleet. Each participant does send, receive, commit, send,
// receive with coordination-range message ids (from 1e15), and the
// coordinator commits last. A fresh trace every kRoundsPerTrace rounds
// (untimed) keeps the per-process event counts near a fleet run's.
void BM_TraceAppend2pc(benchmark::State& state) {
  constexpr int kProcesses = 5016;
  constexpr int kRoundsPerTrace = 16;
  constexpr int64_t kFirstCoordId = 1000000000000000;
  ftx_sm::TraceOptions lean;
  lean.record_clocks = false;
  int64_t now_ns = 0;
  int64_t next_id = kFirstCoordId;
  int rounds = 0;
  std::unique_ptr<ftx_causal::CriticalPathTracker> tracker;
  std::unique_ptr<ftx_sm::Trace> trace;
  auto fresh = [&]() {
    trace.reset();
    tracker = std::make_unique<ftx_causal::CriticalPathTracker>(
        kProcesses, [&now_ns]() { return now_ns; });
    tracker->OnCrash(0);
    trace = std::make_unique<ftx_sm::Trace>(kProcesses, lean);
    trace->SetAppendObserver([&tracker](ftx_sm::EventRef ref, const ftx_sm::TraceEvent& ev,
                                        const ftx_sm::VectorClock&) {
      tracker->OnTraceEvent(ref, ev);
    });
    next_id = kFirstCoordId;
    rounds = 0;
  };
  fresh();
  for (auto _ : state) {
    if (rounds == kRoundsPerTrace) {
      state.PauseTiming();
      fresh();
      state.ResumeTiming();
    }
    ++rounds;
    const int64_t group = rounds;
    for (ftx_sm::ProcessId p = 1; p < kProcesses; ++p) {
      ++now_ns;
      const int64_t prepare = next_id++;
      trace->Append(0, ftx_sm::EventKind::kSend, prepare, false, "2pc");
      trace->Append(p, ftx_sm::EventKind::kReceive, prepare, true, "2pc");
      trace->Append(p, ftx_sm::EventKind::kCommit, -1, false, "", group);
      const int64_t ack = next_id++;
      trace->Append(p, ftx_sm::EventKind::kSend, ack, false, "2pc");
      trace->Append(0, ftx_sm::EventKind::kReceive, ack, true, "2pc");
    }
    trace->Append(0, ftx_sm::EventKind::kCommit, -1, false, "", group);
    benchmark::DoNotOptimize(trace->NumEvents(0));
  }
  state.SetItemsProcessed(state.iterations() * (5 * (kProcesses - 1) + 1));
}
BENCHMARK(BM_TraceAppend2pc);

void BM_RioPersistCostModel(benchmark::State& state) {
  ftx_store::RioStore rio;
  int64_t bytes = 16 * 1024;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rio.PersistCost(bytes).nanos());
  }
}
BENCHMARK(BM_RioPersistCostModel);

void BM_DiskPersistCostModel(benchmark::State& state) {
  ftx_store::DiskStore disk;
  int64_t bytes = 16 * 1024;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.PersistCost(bytes).nanos());
  }
}
BENCHMARK(BM_DiskPersistCostModel);

}  // namespace

BENCHMARK_MAIN();
