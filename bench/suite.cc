#include "bench/suite.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/obs/prof/prof.h"

namespace ftx_bench {
namespace {

// The option table ParseBenchOptions and its usage text are generated from.
struct FlagSpec {
  const char* name;
  const char* value_name;  // nullptr: boolean switch
  const char* doc;
  void (*apply)(BenchOptions* options, const char* value);
};

constexpr FlagSpec kBenchFlags[] = {
    {"--full", nullptr, "paper-scale run (default is a fast small-scale run)",
     [](BenchOptions* options, const char*) { options->full_scale = true; }},
    {"--scale", "N", "explicit workload scale / trial count, overriding --full",
     [](BenchOptions* options, const char* value) { options->scale_override = std::atoi(value); }},
    {"--jobs", "N", "worker threads for independent trials (default: all hardware threads)",
     [](BenchOptions* options, const char* value) { options->jobs = std::atoi(value); }},
    {"--seed", "S", "base seed overriding the bench's built-in one",
     [](BenchOptions* options, const char* value) {
       options->seed = std::strtoull(value, nullptr, 10);
     }},
    {"--json", "PATH", "write machine-readable results (ftx.bench-results JSON)",
     [](BenchOptions* options, const char* value) { options->json_path = value; }},
    {"--trace", "PATH", "write a Chrome trace_event JSON of the traced run",
     [](BenchOptions* options, const char* value) { options->trace_path = value; }},
    {"--timeseries", "PATH", "write the traced run's sim-time telemetry (ftx.timeseries JSONL)",
     [](BenchOptions* options, const char* value) { options->timeseries_path = value; }},
    {"--audit", nullptr, "enable the live causal audit on every recoverable run",
     [](BenchOptions* options, const char*) { options->audit = true; }},
    {"--repeat", "N", "host-time repetitions for wall-clock rows (min/median reported)",
     [](BenchOptions* options, const char* value) {
       options->repeat = std::max(1, std::atoi(value));
     }},
    {"--prof", "PATH", "write a collapsed-stack host-time profile (FlameGraph format)",
     [](BenchOptions* options, const char* value) { options->prof_path = value; }},
    {"--batch", "N", "group-commit window size for DC-disk runs (records per sync; 0 = off)",
     [](BenchOptions* options, const char* value) {
       options->batch = std::strtoll(value, nullptr, 10);
     }},
    {"--shards", "N", "partitioned event-engine shards (byte-identical results; 0 = default)",
     [](BenchOptions* options, const char* value) { options->shards = std::atoi(value); }},
    {"--log-level", "LEVEL", "error|warning|info|debug (default warning)",
     [](BenchOptions* options, const char* value) {
       ftx::LogLevel level;
       if (!ftx::ParseLogLevel(value, &level)) {
         std::fprintf(stderr, "invalid --log-level: %s\n", value);
         std::exit(2);
       }
       options->log_level = value;
       ftx::SetLogLevel(level);
     }},
};

void PrintUsage(const char* argv0) { std::fputs(BenchUsageText(argv0).c_str(), stderr); }

const FlagSpec* FindFlag(const char* name) {
  for (const FlagSpec& flag : kBenchFlags) {
    if (std::strcmp(flag.name, name) == 0) {
      return &flag;
    }
  }
  return nullptr;
}

}  // namespace

std::string BenchUsageText(const char* argv0) {
  std::string text = Sprintf("usage: %s [flags]\n", argv0);
  for (const FlagSpec& flag : kBenchFlags) {
    char left[32];
    std::snprintf(left, sizeof left, "%s %s", flag.name,
                  flag.value_name == nullptr ? "" : flag.value_name);
    text += Sprintf("  %-16s %s\n", left, flag.doc);
  }
  return text;
}

BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const FlagSpec* flag = FindFlag(argv[i]);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage(argv[0]);
      std::exit(2);
    }
    const char* value = nullptr;
    if (flag->value_name != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag->name);
        PrintUsage(argv[0]);
        std::exit(2);
      }
      value = argv[++i];
    }
    flag->apply(&options, value);
  }
  return options;
}

std::string Sprintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string text;
  if (needed > 0) {
    text.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(text.data(), text.size(), format, args_copy);
    text.resize(static_cast<size_t>(needed));
  }
  va_end(args_copy);
  return text;
}

double MinOf(const std::vector<double>& samples) {
  FTX_CHECK(!samples.empty());
  return *std::min_element(samples.begin(), samples.end());
}

double MedianOf(std::vector<double> samples) {
  FTX_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

uint64_t RowContext::SeedOr(uint64_t bench_default) const {
  if (options == nullptr || options->seed == 0) {
    return bench_default;
  }
  return ftx::DeriveTrialSeed(options->seed, static_cast<uint64_t>(row_index));
}

Suite::Suite(const std::string& bench_name, const BenchOptions& options)
    : options_(options), pool_(options.jobs), results_(bench_name) {
  results_.SetFullScale(options.full_scale);
}

void Suite::SetMeta(const std::string& key, ftx_obs::Json value) {
  results_.SetMeta(key, std::move(value));
}

void Suite::Text(std::string text) {
  Item item;
  item.kind = Item::Kind::kText;
  item.text = std::move(text);
  items_.push_back(std::move(item));
}

void Suite::AddRow(std::function<RowResult(RowContext&)> fn) {
  Item item;
  item.kind = Item::Kind::kRow;
  item.row_fn = std::move(fn);
  item.row_index = num_rows_++;
  items_.push_back(std::move(item));
}

void Suite::Summarize(std::function<std::string(const std::vector<RowResult>&)> fn) {
  Item item;
  item.kind = Item::Kind::kSummarize;
  item.summarize_fn = std::move(fn);
  items_.push_back(std::move(item));
}

int Suite::Run() {
  // Compute every row on the pool. Rows may finish in any order; nothing
  // here depends on it — results land in a declaration-indexed vector.
  std::vector<const Item*> rows(static_cast<size_t>(num_rows_));
  for (const Item& item : items_) {
    if (item.kind == Item::Kind::kRow) {
      rows[static_cast<size_t>(item.row_index)] = &item;
    }
  }
  std::vector<RowResult> row_results(static_cast<size_t>(num_rows_));
  // With --prof, the whole computation runs under one profiler; ParallelFor
  // propagates the activation to every worker, so scopes from concurrent
  // rows merge into a single profile. Simulated results are untouched — the
  // profiler only ever reads the host clock.
  ftx_prof::Profiler profiler;
  {
    ftx_prof::Activation prof_on(options_.prof_path.empty() ? nullptr : &profiler);
    pool_.ParallelFor(num_rows_, [&](int64_t i) {
      RowContext ctx;
      ctx.pool = &pool_;
      ctx.options = &options_;
      ctx.row_index = static_cast<int>(i);
      if (i == num_rows_ - 1) {
        ctx.trace_path = options_.trace_path;  // "last traced run wins"
        ctx.timeseries_path = options_.timeseries_path;  // same single-file rule
      }
      row_results[static_cast<size_t>(i)] = rows[static_cast<size_t>(i)]->row_fn(ctx);
    });
  }

  // Render strictly in declaration order: identical output for any --jobs.
  for (const Item& item : items_) {
    switch (item.kind) {
      case Item::Kind::kText:
        std::fputs(item.text.c_str(), stdout);
        break;
      case Item::Kind::kRow: {
        RowResult& result = row_results[static_cast<size_t>(item.row_index)];
        std::fputs(result.console.c_str(), stdout);
        for (ftx_obs::Json& row : result.json) {
          results_.AddRow(std::move(row));
        }
        break;
      }
      case Item::Kind::kSummarize:
        std::fputs(item.summarize_fn(row_results).c_str(), stdout);
        break;
    }
  }

  if (!options_.prof_path.empty()) {
    ftx_prof::Profile profile = profiler.Merge();
    ftx::Status status =
        ftx_obs::WriteFileContents(options_.prof_path, profile.ToCollapsed(/*weight_ns=*/true));
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", options_.prof_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu profile stacks to %s\n", profile.entries.size(),
                options_.prof_path.c_str());
  }

  if (options_.json_path.empty()) {
    return 0;
  }
  ftx::Status status = results_.WriteTo(options_.json_path);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", options_.json_path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu result rows to %s\n", results_.num_rows(), options_.json_path.c_str());
  return 0;
}

}  // namespace ftx_bench
