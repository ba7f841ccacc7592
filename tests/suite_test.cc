// Tests for the bench suite's option table: the generated usage text covers
// every flag (with its value placeholder and doc line), ParseBenchOptions
// fills BenchOptions from a synthetic argv, and --log-level names map to
// ftx::LogLevel exactly as the parser the flag delegates to.

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/suite.h"
#include "src/common/log.h"

namespace {

TEST(BenchUsage, GeneratedTextCoversEveryFlag) {
  std::string usage = ftx_bench::BenchUsageText("bench_binary");
  EXPECT_NE(usage.find("usage: bench_binary [flags]"), std::string::npos);
  // One line per kBenchFlags entry; a flag added without a doc line (or a
  // doc edited without its flag) fails here.
  for (const char* needle : {"--full", "--scale N", "--jobs N", "--seed S", "--json PATH",
                             "--trace PATH", "--audit", "--log-level LEVEL", "--repeat N",
                             "--prof PATH", "--shards N"}) {
    EXPECT_NE(usage.find(needle), std::string::npos) << "missing from usage: " << needle;
  }
  EXPECT_NE(usage.find("live causal audit"), std::string::npos);
  EXPECT_NE(usage.find("error|warning|info|debug"), std::string::npos);
  EXPECT_NE(usage.find("byte-identical"), std::string::npos);  // the --shards contract
}

TEST(BenchUsage, ParseFillsOptionsFromArgv) {
  const char* argv[] = {"bench",  "--full", "--scale",     "40",   "--jobs", "3",
                        "--seed", "99",     "--json",      "r.json", "--trace", "t.json",
                        "--audit", "--log-level", "debug", "--repeat", "5",
                        "--prof", "p.collapsed", "--shards", "16"};
  ftx_bench::BenchOptions options =
      ftx_bench::ParseBenchOptions(static_cast<int>(std::size(argv)),
                                   const_cast<char**>(argv));
  EXPECT_TRUE(options.full_scale);
  EXPECT_EQ(options.scale_override, 40);
  EXPECT_EQ(options.jobs, 3);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(options.json_path, "r.json");
  EXPECT_EQ(options.trace_path, "t.json");
  EXPECT_TRUE(options.audit);
  EXPECT_EQ(options.log_level, "debug");
  EXPECT_EQ(options.repeat, 5);
  EXPECT_EQ(options.prof_path, "p.collapsed");
  EXPECT_EQ(options.shards, 16);
  EXPECT_EQ(ftx::GetLogLevel(), ftx::LogLevel::kDebug);
  ftx::SetLogLevel(ftx::LogLevel::kWarning);  // restore the default
}

TEST(BenchUsage, DefaultsLeaveEverythingOff) {
  const char* argv[] = {"bench"};
  ftx_bench::BenchOptions options =
      ftx_bench::ParseBenchOptions(1, const_cast<char**>(argv));
  EXPECT_FALSE(options.full_scale);
  EXPECT_EQ(options.scale_override, 0);
  EXPECT_EQ(options.jobs, 0);
  EXPECT_EQ(options.seed, 0u);
  EXPECT_TRUE(options.json_path.empty());
  EXPECT_TRUE(options.trace_path.empty());
  EXPECT_FALSE(options.audit);
  EXPECT_TRUE(options.log_level.empty());
  EXPECT_EQ(options.repeat, 1);
  EXPECT_TRUE(options.prof_path.empty());
  EXPECT_EQ(options.shards, 0);  // 0 = the bench's own choice
}

TEST(LogLevelParse, AcceptsNamesAliasesAndDigits) {
  ftx::LogLevel level = ftx::LogLevel::kError;
  EXPECT_TRUE(ftx::ParseLogLevel("debug", &level));
  EXPECT_EQ(level, ftx::LogLevel::kDebug);
  EXPECT_TRUE(ftx::ParseLogLevel("WARNING", &level));
  EXPECT_EQ(level, ftx::LogLevel::kWarning);
  EXPECT_TRUE(ftx::ParseLogLevel("warn", &level));
  EXPECT_EQ(level, ftx::LogLevel::kWarning);
  EXPECT_TRUE(ftx::ParseLogLevel("info", &level));
  EXPECT_EQ(level, ftx::LogLevel::kInfo);
  EXPECT_TRUE(ftx::ParseLogLevel("0", &level));
  EXPECT_EQ(level, ftx::LogLevel::kError);
  EXPECT_TRUE(ftx::ParseLogLevel("3", &level));
  EXPECT_EQ(level, ftx::LogLevel::kDebug);
  EXPECT_FALSE(ftx::ParseLogLevel("loud", &level));
  EXPECT_FALSE(ftx::ParseLogLevel("", &level));
  EXPECT_EQ(level, ftx::LogLevel::kDebug);  // junk leaves *out alone
}

}  // namespace
