// Unit tests for src/common: Status/Result, Rng, CRC32, sim-time, bytes,
// IdMap.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/id_map.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace {

// --- Status / Result ---

TEST(Status, DefaultIsOk) {
  ftx::Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  ftx::Status status = ftx::DataLossError("guard smashed");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ftx::StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), "guard smashed");
  EXPECT_EQ(status.ToString(), "data_loss: guard smashed");
}

TEST(Status, AllConstructorsProduceDistinctCodes) {
  std::set<ftx::StatusCode> codes;
  codes.insert(ftx::InvalidArgumentError("x").code());
  codes.insert(ftx::NotFoundError("x").code());
  codes.insert(ftx::FailedPreconditionError("x").code());
  codes.insert(ftx::OutOfRangeError("x").code());
  codes.insert(ftx::ResourceExhaustedError("x").code());
  codes.insert(ftx::AbortedError("x").code());
  codes.insert(ftx::DataLossError("x").code());
  codes.insert(ftx::UnavailableError("x").code());
  codes.insert(ftx::InternalError("x").code());
  EXPECT_EQ(codes.size(), 9u);
}

TEST(Result, HoldsValue) {
  ftx::Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(Result, HoldsError) {
  ftx::Result<int> result(ftx::NotFoundError("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ftx::StatusCode::kNotFound);
}

// --- Rng ---

TEST(Rng, DeterministicFromSeed) {
  ftx::Rng a(123);
  ftx::Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  ftx::Rng a(1);
  ftx::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInRange) {
  ftx::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  ftx::Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBounded(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, InRangeInclusive) {
  ftx::Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  ftx::Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  ftx::Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) {
      ++hits;
    }
  }
  double p = static_cast<double>(hits) / n;
  EXPECT_NEAR(p, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  ftx::Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  ftx::Rng rng(15);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  ftx::Rng parent(21);
  ftx::Rng child_a = parent.Fork(1);
  ftx::Rng child_b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_a.NextU64() == child_b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ShufflePermutes) {
  ftx::Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> sorted_v(v.begin(), v.end());
  std::multiset<int> sorted_orig(original.begin(), original.end());
  EXPECT_EQ(sorted_v, sorted_orig);
}

// --- Crc32 ---

TEST(Crc32, KnownVector) {
  // Standard CRC-32 of "123456789" is 0xcbf43926.
  const char* data = "123456789";
  EXPECT_EQ(ftx::Crc32(data, 9), 0xcbf43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(ftx::Crc32("", 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t n = 44;
  uint32_t one_shot = ftx::Crc32(data, n);
  for (size_t split = 0; split <= n; split += 7) {
    uint32_t crc = ftx::Crc32Extend(0, data, split);
    crc = ftx::Crc32Extend(crc, data + split, n - split);
    EXPECT_EQ(crc, one_shot) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  ftx::Bytes data(256, 0xab);
  uint32_t before = ftx::Crc32(data.data(), data.size());
  data[100] ^= 0x04;
  EXPECT_NE(ftx::Crc32(data.data(), data.size()), before);
}

// --- sim_time ---

TEST(SimTime, UnitConstructors) {
  EXPECT_EQ(ftx::Microseconds(3).nanos(), 3000);
  EXPECT_EQ(ftx::Milliseconds(2).nanos(), 2000000);
  EXPECT_EQ(ftx::Seconds(1.5).nanos(), 1500000000);
}

TEST(SimTime, Arithmetic) {
  ftx::Duration d = ftx::Milliseconds(5) + ftx::Microseconds(250);
  EXPECT_EQ(d.micros(), 5250);
  EXPECT_EQ((d * 2).micros(), 10500);
  EXPECT_EQ((d / 5).micros(), 1050);
  ftx::TimePoint t = ftx::TimePoint() + d;
  EXPECT_EQ((t - ftx::TimePoint()).nanos(), d.nanos());
}

TEST(SimTime, Ordering) {
  EXPECT_LT(ftx::Microseconds(1), ftx::Milliseconds(1));
  EXPECT_GT(ftx::TimePoint(100), ftx::TimePoint(99));
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(ftx::Nanoseconds(17).ToString(), "17ns");
  EXPECT_EQ(ftx::Milliseconds(5).ToString(), "5.000ms");
  EXPECT_EQ(ftx::Seconds(2.0).ToString(), "2.000s");
}

// --- bytes ---

TEST(Bytes, ValueRoundTrip) {
  ftx::Bytes buffer;
  ftx::AppendValue(&buffer, int64_t{-77});
  ftx::AppendValue(&buffer, uint32_t{0xdeadbeef});
  size_t offset = 0;
  int64_t a = 0;
  uint32_t b = 0;
  ASSERT_TRUE(ftx::ReadValue(buffer, &offset, &a));
  ASSERT_TRUE(ftx::ReadValue(buffer, &offset, &b));
  EXPECT_EQ(a, -77);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(offset, buffer.size());
}

TEST(Bytes, ReadPastEndFails) {
  ftx::Bytes buffer;
  ftx::AppendValue(&buffer, uint16_t{1});
  size_t offset = 0;
  int64_t value = 0;
  EXPECT_FALSE(ftx::ReadValue(buffer, &offset, &value));
  EXPECT_EQ(offset, 0u);  // offset unchanged on failure
}

TEST(Bytes, StringRoundTrip) {
  ftx::Bytes buffer;
  ftx::AppendString(&buffer, "hello");
  ftx::AppendString(&buffer, "");
  size_t offset = 0;
  std::string a;
  std::string b;
  ASSERT_TRUE(ftx::ReadString(buffer, &offset, &a));
  ASSERT_TRUE(ftx::ReadString(buffer, &offset, &b));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(Bytes, HexDumpTruncates) {
  ftx::Bytes data(100, 0xff);
  std::string dump = ftx::HexDump(data, 4);
  EXPECT_EQ(dump, "ff ff ff ff ...");
}

// --- IdMap ---

TEST(IdMap, DenseRunsFromEveryCounterBase) {
  ftx::IdMap<int64_t> map;
  const int64_t bases[] = {0, int64_t{1} << 40, 1000000000000000};
  for (int64_t base : bases) {
    for (int64_t i = 0; i < 5000; ++i) {
      EXPECT_TRUE(map.Insert(base + i, -(base + i)));
    }
  }
  EXPECT_EQ(map.size(), 15000);
  for (int64_t base : bases) {
    for (int64_t i = 0; i < 5000; ++i) {
      const int64_t* value = map.Find(base + i);
      ASSERT_NE(value, nullptr) << base + i;
      EXPECT_EQ(*value, -(base + i));
    }
    EXPECT_EQ(map.Find(base + 5000), nullptr);
  }
  EXPECT_EQ(map.Find((int64_t{1} << 40) - 1), nullptr);
}

TEST(IdMap, SparseAndOutOfOrderIds) {
  ftx::IdMap<int> map;
  // Descending, with gaps of every size: within a page, across a few pages,
  // and far beyond any run.
  const int64_t ids[] = {std::numeric_limits<int64_t>::max(),
                         int64_t{1} << 62,
                         5000000,
                         70000,
                         4096,
                         1025,
                         1023,
                         7,
                         0};
  int n = 0;
  for (int64_t id : ids) {
    EXPECT_TRUE(map.Insert(id, ++n));
  }
  n = 0;
  for (int64_t id : ids) {
    const int* value = map.Find(id);
    ASSERT_NE(value, nullptr) << id;
    EXPECT_EQ(*value, ++n);
  }
  for (int64_t absent : {int64_t{1}, int64_t{1024}, int64_t{4095}, int64_t{69999},
                         int64_t{5000001}, (int64_t{1} << 62) + 1, int64_t{-1}}) {
    EXPECT_EQ(map.Find(absent), nullptr) << absent;
  }
}

TEST(IdMap, FirstInsertWins) {
  ftx::IdMap<int> map;
  EXPECT_TRUE(map.Insert(12, 1));
  EXPECT_FALSE(map.Insert(12, 2));
  EXPECT_EQ(*map.Find(12), 1);
  EXPECT_EQ(map.size(), 1);
}

TEST(IdMapDeathTest, NegativeIdAborts) {
  ftx::IdMap<int> map;
  EXPECT_DEATH(map.Insert(-3, 1), "IdMap id -3 is negative");
}

}  // namespace
