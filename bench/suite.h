// Declarative bench suite: the one way the paper-reproduction binaries
// describe themselves.
//
// A bench main declares its output — header text, measurement rows, and
// summaries — instead of interleaving computation with printf and
// hand-assembled JSON. The suite then:
//
//  * computes every row on a shared ftx::TrialPool (--jobs), rows
//    concurrently and each row free to shard further through ctx.pool;
//  * renders console text and appends ftx.bench-results JSON rows strictly
//    in declaration order, so stdout and the --json file are byte-identical
//    for every --jobs value;
//  * hands the --trace path to exactly one row (the last declared), keeping
//    the documented "the last traced run's file is kept" behaviour without a
//    file race between concurrent rows.
//
// Rows must not print or touch shared mutable state: they return their
// console text and JSON rows in a RowResult, plus any numbers a later
// Summarize item folds over (averages, totals).

#ifndef FTX_BENCH_SUITE_H_
#define FTX_BENCH_SUITE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/parallel.h"
#include "src/obs/json.h"
#include "src/obs/results.h"

namespace ftx_bench {

// Common bench command line (see kBenchFlags in suite.cc for the table the
// parser and usage text are generated from):
//   --full         paper-scale run (default is a fast small-scale run)
//   --scale N      explicit workload scale / trial count, overriding both
//   --jobs N       worker threads for independent trials
//                  (default: all hardware threads; 1 = fully serial)
//   --seed S       base seed overriding the bench's built-in one; per-row
//                  seeds derive from it via ftx::DeriveTrialSeed
//   --json PATH    write machine-readable results (ftx.bench-results JSON)
//   --trace PATH   write a Chrome trace_event JSON of the traced run
//   --timeseries PATH  write the traced run's simulated-time telemetry as
//                  ftx.timeseries JSONL (src/obs/tsdb/; same last-row rule
//                  as --trace)
//   --audit        enable the live causal audit (src/obs/causal/) on every
//                  recoverable run; rows report it under "audit"
//   --repeat N     host-time repetitions for wall-clock rows; rows report
//                  min/median over the samples (simulated rows ignore it)
//   --prof PATH    write a collapsed-stack host-time profile of the run
//                  (ftx::prof; FlameGraph / speedscope compatible)
//   --batch N      group-commit window size for DC-disk runs (records per
//                  sync window; 0 or 1 = the one-sync-pair-per-commit path)
//   --shards N     partitioned event-engine shard count for benches that
//                  build fleet-scale computations (results byte-identical
//                  for every value; 0 = the bench's own choice)
//   --log-level L  error|warning|info|debug (default warning)
// Unknown flags, missing values, and bad --log-level names print the usage
// table and exit 2.
struct BenchOptions {
  bool full_scale = false;
  int scale_override = 0;
  int jobs = 0;       // 0 = hardware concurrency
  uint64_t seed = 0;  // 0 = use the bench's built-in seeds
  std::string json_path;
  std::string trace_path;
  std::string timeseries_path;
  bool audit = false;
  int repeat = 1;          // wall-clock repetitions (clamped to >= 1)
  std::string prof_path;   // collapsed-stack profile output; empty = prof off
  int64_t batch = 0;      // group-commit window size; <= 1 = batching off
  int shards = 0;         // event-engine shards; 0 = the bench's own choice
  std::string log_level;  // as given; applied via ftx::SetLogLevel at parse
};

BenchOptions ParseBenchOptions(int argc, char** argv);

// The generated usage table (tests pin that every kBenchFlags entry renders).
std::string BenchUsageText(const char* argv0);

// printf into a std::string (rows build their console text with this).
std::string Sprintf(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Aggregation for --repeat wall-clock samples. Min is the canonical "best
// case, least noise" statistic; median is robust to a slow outlier run.
// Both FTX_CHECK on an empty vector.
double MinOf(const std::vector<double>& samples);
double MedianOf(std::vector<double> samples);

// What one row hands back to the suite.
struct RowResult {
  // Printed verbatim at the row's declaration position (include newlines).
  std::string console;
  // Appended to the results file in declaration order.
  std::vector<ftx_obs::Json> json;
  // Numbers for Summarize items (e.g. per-app fractions to average).
  std::vector<double> values;
};

// What the suite hands each row.
struct RowContext {
  ftx::TrialPool* pool = nullptr;  // shared pool; shard further through it
  const BenchOptions* options = nullptr;
  int row_index = 0;       // declaration index among rows
  std::string trace_path;  // non-empty only for the row that traces
  std::string timeseries_path;  // non-empty only for the row that samples

  // The bench's built-in seed, unless --seed was given — then a per-row
  // seed derived from it (so rows never share an overridden seed).
  uint64_t SeedOr(uint64_t bench_default) const;
};

class Suite {
 public:
  // `bench_name` names the results file ("fig8_nvi", ...). The pool is
  // created from options.jobs and shared by every row.
  Suite(const std::string& bench_name, const BenchOptions& options);

  const BenchOptions& options() const { return options_; }
  ftx::TrialPool& pool() { return pool_; }

  // Bench-level context for the results file ("scale", "seed", ...).
  void SetMeta(const std::string& key, ftx_obs::Json value);

  // Console text printed verbatim at this position (include newlines).
  void Text(std::string text);

  // One measurement row; `fn` runs on the pool and must confine its state.
  void AddRow(std::function<RowResult(RowContext&)> fn);

  // Runs after every row has finished; receives all RowResults in
  // declaration order and returns console text for this position.
  void Summarize(std::function<std::string(const std::vector<RowResult>&)> fn);

  // Computes all rows on the pool, renders everything in declaration
  // order, and writes the --json file if requested. Returns the process
  // exit code, so mains end with `return suite.Run();`.
  int Run();

 private:
  struct Item {
    enum class Kind { kText, kRow, kSummarize };
    Kind kind = Kind::kText;
    std::string text;
    std::function<RowResult(RowContext&)> row_fn;
    std::function<std::string(const std::vector<RowResult>&)> summarize_fn;
    int row_index = 0;  // kRow: index into the computed results
  };

  BenchOptions options_;
  ftx::TrialPool pool_;
  ftx_obs::ResultsFile results_;
  std::vector<Item> items_;
  int num_rows_ = 0;
};

}  // namespace ftx_bench

#endif  // FTX_BENCH_SUITE_H_
