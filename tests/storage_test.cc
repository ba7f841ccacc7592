// Tests for the storage substrate: undo/redo logs, group-commit windows,
// stable-store cost policies.

#include <gtest/gtest.h>

#include "src/storage/log_image.h"
#include "src/storage/redo_log.h"
#include "src/storage/stable_store.h"
#include "src/storage/undo_log.h"
#include "src/storage/write_journal.h"

namespace {

// --- UndoLog ---

TEST(UndoLog, ApplyReverseRestoresOriginal) {
  std::vector<uint8_t> buffer(64, 0);
  ftx_store::UndoLog log;

  log.RecordBeforeImage(0, buffer.data(), 16);  // before-image: zeros
  std::fill(buffer.begin(), buffer.begin() + 16, 0xaa);
  log.RecordBeforeImage(16, buffer.data() + 16, 16);
  std::fill(buffer.begin() + 16, buffer.begin() + 32, 0xbb);

  log.ApplyReverseInto(buffer.data(), buffer.size());
  EXPECT_EQ(buffer, std::vector<uint8_t>(64, 0));
  EXPECT_TRUE(log.empty());
}

TEST(UndoLog, ReverseOrderMattersForOverlaps) {
  // Two records touching the same range: the OLDEST before-image must win.
  std::vector<uint8_t> buffer(8, 1);
  ftx_store::UndoLog log;
  log.RecordBeforeImage(0, buffer.data(), 8);  // image: all 1s
  std::fill(buffer.begin(), buffer.end(), 2);
  log.RecordBeforeImage(0, buffer.data(), 8);  // image: all 2s
  std::fill(buffer.begin(), buffer.end(), 3);

  log.ApplyReverseInto(buffer.data(), buffer.size());
  EXPECT_EQ(buffer, std::vector<uint8_t>(8, 1));
}

TEST(UndoLog, DiscardForgetsEverything) {
  std::vector<uint8_t> buffer(8, 1);
  ftx_store::UndoLog log;
  log.RecordBeforeImage(0, buffer.data(), 8);
  std::fill(buffer.begin(), buffer.end(), 9);
  log.Discard();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.byte_size(), 0);
  log.ApplyReverseInto(buffer.data(), buffer.size());  // no-op
  EXPECT_EQ(buffer, std::vector<uint8_t>(8, 9));
}

TEST(UndoLog, TracksByteSize) {
  std::vector<uint8_t> buffer(128, 0);
  ftx_store::UndoLog log;
  log.RecordBeforeImage(0, buffer.data(), 100);
  log.RecordBeforeImage(100, buffer.data(), 28);
  EXPECT_EQ(log.byte_size(), 128);
  EXPECT_EQ(log.record_count(), 2u);
}

TEST(UndoLog, PooledSlotsAreReusedAcrossEpochs) {
  // Steady state — the same number of slot-sized regions logged every
  // commit epoch — must not allocate new slots after the first epoch, and
  // reused slots must never leak a previous epoch's before-image.
  constexpr size_t kSlot = 64;
  std::vector<uint8_t> buffer(4 * kSlot, 0);
  ftx_store::UndoLog log(kSlot);

  for (uint8_t epoch = 1; epoch <= 10; ++epoch) {
    for (size_t page = 0; page < 4; ++page) {
      log.RecordBeforeImage(static_cast<int64_t>(page * kSlot), buffer.data() + page * kSlot,
                            kSlot);
      std::fill(buffer.begin() + page * kSlot, buffer.begin() + (page + 1) * kSlot, epoch);
    }
    EXPECT_EQ(log.allocated_slots(), 4u) << "epoch " << int(epoch);
    if (epoch % 2 == 0) {
      // Abort path: before-images of THIS epoch come back, not stale ones.
      std::vector<uint8_t> expected(buffer.size(), static_cast<uint8_t>(epoch - 1));
      log.ApplyReverseInto(buffer.data(), buffer.size());
      EXPECT_EQ(buffer, expected) << "epoch " << int(epoch);
      std::fill(buffer.begin(), buffer.end(), epoch);
    } else {
      log.Discard();  // commit path: slots return to the free list
    }
    EXPECT_EQ(log.free_slots(), 4u);
    EXPECT_TRUE(log.empty());
  }
  EXPECT_EQ(log.allocated_slots(), 4u);
}

TEST(UndoLogDeathTest, RegionOutsideOneSlotWindowAborts) {
  // The page barrier clips every before-image to its page, so a region that
  // straddles a slot window, or an empty one, is a caller's bug.
  std::vector<uint8_t> buffer(128, 7);
  ftx_store::UndoLog log(64);
  EXPECT_DEATH(log.RecordBeforeImage(0, buffer.data(), 100),
               "undo region \\[0, 100\\) is empty or straddles a 64-byte slot window");
  EXPECT_DEATH(log.RecordBeforeImage(32, buffer.data() + 32, 64),
               "undo region \\[32, 96\\) is empty");
  EXPECT_DEATH(log.RecordBeforeImage(16, buffer.data() + 16, 0), "undo region \\[16, 16\\)");
  // A region ending exactly at a window boundary fits.
  log.RecordBeforeImage(32, buffer.data() + 32, 32);
  EXPECT_EQ(log.allocated_slots(), 1u);
}

TEST(UndoLog, PartialExtentUsesPooledSlotAtWindowOffset) {
  std::vector<uint8_t> buffer(128);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i);
  }
  ftx_store::UndoLog log(64);
  // 16 bytes inside window 1: pooled despite not being slot-sized.
  int32_t index = log.RecordBeforeImage(80, buffer.data() + 80, 16);
  EXPECT_EQ(log.allocated_slots(), 1u);
  EXPECT_GE(log.records()[index].slot, 0);
  std::fill(buffer.begin() + 80, buffer.begin() + 96, 0xff);
  log.ApplyReverseInto(buffer.data(), buffer.size());
  for (size_t i = 0; i < buffer.size(); ++i) {
    EXPECT_EQ(buffer[i], static_cast<uint8_t>(i)) << i;
  }
}

TEST(UndoLog, WidenToWindowCompletesPartialImageInPlace) {
  std::vector<uint8_t> buffer(128);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i);
  }
  const std::vector<uint8_t> committed = buffer;
  ftx_store::UndoLog log(64);
  int32_t index = log.RecordBeforeImage(80, buffer.data() + 80, 16);
  // Mutate inside the extent, then widen with the live window (bytes
  // outside the extent are still committed), then mutate outside it.
  std::fill(buffer.begin() + 80, buffer.begin() + 96, 0xaa);
  log.WidenToWindow(index, buffer.data() + 64);
  EXPECT_EQ(log.records()[index].offset, 64);
  EXPECT_EQ(log.records()[index].size, 64);
  EXPECT_EQ(log.byte_size(), 64);
  std::fill(buffer.begin() + 64, buffer.end(), 0xbb);
  log.ApplyReverseInto(buffer.data(), buffer.size());
  EXPECT_EQ(buffer, committed);
  // The widened record's slot went back to the pool.
  EXPECT_EQ(log.free_slots(), 1u);
}

// --- RedoLog ---

TEST(RedoLog, AppendsAssignSequences) {
  ftx_store::RedoLog log;
  ftx::Bytes image(4096, 1);
  ftx_store::RedoRecord a;
  a.AppendPage(0, image.data(), image.size());
  log.AppendBatch({std::move(a)});
  ftx_store::RedoRecord b;
  b.metadata = ftx::Bytes(64, 2);
  log.AppendBatch({std::move(b)});

  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].sequence, 0);
  EXPECT_EQ(log.records()[1].sequence, 1);
  EXPECT_EQ(log.Latest()->sequence, 1);
}

TEST(RedoLog, PayloadBytesCountPagesAndMetadata) {
  ftx_store::RedoRecord record;
  ftx::Bytes image(4096, 0);
  record.AppendPage(0, image.data(), image.size());
  record.AppendPage(4096, image.data(), image.size());
  record.metadata = ftx::Bytes(100, 0);
  EXPECT_EQ(record.PayloadBytes(), 2 * (4096 + 8) + 100);
}

TEST(RedoRecord, SerializationRoundTripsAndValidates) {
  ftx_store::RedoRecord record;
  ftx::Bytes first(64, 0xaa);
  ftx::Bytes second(64, 0xbb);
  record.AppendPage(0, first.data(), first.size());
  record.AppendPage(128, second.data(), second.size());
  EXPECT_EQ(record.page_count, 2);
  EXPECT_EQ(record.page_bytes, 128);
  EXPECT_TRUE(record.ValidatePages());

  std::vector<std::pair<int64_t, ftx::Bytes>> decoded;
  EXPECT_TRUE(record.ForEachPage([&](int64_t offset, const uint8_t* data, size_t size) {
    decoded.emplace_back(offset, ftx::Bytes(data, data + size));
  }));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].first, 0);
  EXPECT_EQ(decoded[0].second, first);
  EXPECT_EQ(decoded[1].first, 128);
  EXPECT_EQ(decoded[1].second, second);
}

TEST(RedoRecord, ValidationCatchesCorruptedPayload) {
  ftx_store::RedoRecord record;
  ftx::Bytes image(64, 0x5c);
  record.AppendPage(0, image.data(), image.size());
  ASSERT_TRUE(record.ValidatePages());
  record.pages_payload[20] ^= 0x01;  // bit rot in a page image
  EXPECT_FALSE(record.ValidatePages());
}

ftx_store::RedoRecord RecordOfPages(const std::vector<int64_t>& pages) {
  ftx_store::RedoRecord record;
  ftx::Bytes image(64, 0x3c);
  for (int64_t page : pages) {
    record.AppendPage(page * 64, image.data(), image.size());
  }
  record.metadata = ftx::Bytes(16, 0x7e);
  return record;
}

// Records holding pages {0,1}, {1}, {0}: the second append takes page 1
// from record 0, which still holds page 0 until the third append rewrites
// it. Only then is record 0's payload released.
TEST(RedoLog, ReleasesOnlyFullySupersededRecords) {
  ftx_store::RedoLog log;
  log.AppendBatch({RecordOfPages({0, 1})});
  const ftx_store::RedoRecord before = log.records()[0];
  log.AppendBatch({RecordOfPages({1})});
  EXPECT_FALSE(log.records()[0].released);
  EXPECT_EQ(log.records()[0].pages_payload, before.pages_payload);
  log.AppendBatch({RecordOfPages({0})});

  const ftx_store::RedoRecord& released = log.records()[0];
  EXPECT_TRUE(released.released);
  EXPECT_TRUE(released.pages_payload.empty());
  EXPECT_EQ(released.sequence, before.sequence);
  EXPECT_EQ(released.page_count, before.page_count);
  EXPECT_EQ(released.page_bytes, before.page_bytes);
  EXPECT_EQ(released.pages_crc, before.pages_crc);
  EXPECT_EQ(released.metadata, before.metadata);
  EXPECT_EQ(released.PayloadBytes(), before.PayloadBytes());
  EXPECT_FALSE(log.records()[1].released);
  EXPECT_FALSE(log.records()[2].released);

  // The newest record is kept even when it holds no page, and it takes
  // nothing from the records before it. Once a newer record lands, it is
  // released like any record left holding no page.
  log.AppendBatch({RecordOfPages({})});
  EXPECT_EQ(log.Latest()->page_count, 0);
  EXPECT_FALSE(log.Latest()->released);
  EXPECT_FALSE(log.records()[1].released);
  EXPECT_FALSE(log.records()[2].released);
  log.AppendBatch({RecordOfPages({2})});
  EXPECT_TRUE(log.records()[3].released);
  EXPECT_EQ(log.records()[3].metadata, before.metadata);
  EXPECT_FALSE(log.records()[1].released);
  EXPECT_FALSE(log.records()[2].released);

  // A journaled log releases nothing.
  ftx_store::RedoLog journaled;
  ftx_store::WriteJournal journal;
  journaled.AttachJournal(&journal);
  for (const std::vector<int64_t>& pages : {std::vector<int64_t>{0, 1}, {1}, {0}}) {
    journaled.AppendBatch({RecordOfPages(pages)});
  }
  for (const ftx_store::RedoRecord& record : journaled.records()) {
    EXPECT_FALSE(record.released) << record.sequence;
    EXPECT_TRUE(record.ValidatePages()) << record.sequence;
  }
}

TEST(RedoLog, LongRunKeepsBoundedPayload) {
  ftx_store::RedoLog log;
  std::vector<int64_t> pages(64);
  for (int64_t page = 0; page < 64; ++page) {
    pages[static_cast<size_t>(page)] = page;
  }
  for (int i = 0; i < 1000; ++i) {
    log.AppendBatch({RecordOfPages(pages)});
  }
  ASSERT_EQ(log.records().size(), 1000u);
  int64_t payloads = 0;
  for (const ftx_store::RedoRecord& record : log.records()) {
    payloads += record.pages_payload.empty() ? 0 : 1;
  }
  EXPECT_LE(payloads, 2);
  EXPECT_FALSE(log.Latest()->released);
  EXPECT_TRUE(log.Latest()->ValidatePages());
}

// --- CommitPipeline (group commit) ---
//
// A DC-disk runtime stages its commits' records and persists each window
// with one RedoLog::AppendBatch; runtime_test.cc covers the staging.

ftx_store::RedoRecord PageRecord(uint8_t fill) {
  ftx_store::RedoRecord record;
  ftx::Bytes image(4096, fill);
  record.AppendPage(0, image.data(), image.size());
  return record;
}

TEST(CommitPipeline, WindowFillsAtMaxRecordsAndFlushesUnderOneSlot) {
  ftx_store::BatchPolicy policy;
  policy.max_records = 3;
  EXPECT_FALSE(policy.WindowFull(2, 2 * 4200));
  EXPECT_TRUE(policy.WindowFull(3, 3 * 4200));  // window full: flush now
  // A single record at the byte cap closes its window alone, so an
  // oversized commit never wedges the window.
  EXPECT_TRUE(policy.WindowFull(1, ftx_store::BatchPolicy::kMaxBytes));

  ftx_store::RedoLog log;
  ftx_store::WriteJournal journal;
  log.AttachJournal(&journal);
  std::vector<ftx_store::RedoRecord> window;
  for (uint8_t fill : {1, 2, 3}) {
    window.push_back(PageRecord(fill));
  }
  EXPECT_GT(log.AppendBatch(std::move(window)), 0);

  // One window: three record bodies, ONE commit slot, two barriers — and
  // the slot (the only write below the record area) vouches for the last
  // sequence of the window.
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().back().sequence, 2);
  EXPECT_EQ(journal.barriers(), 2);
  int slot_writes = 0;
  for (const ftx_store::DiskOp& op : journal.ops()) {
    if (op.kind == ftx_store::DiskOpKind::kSectorWrite &&
        op.offset < ftx_store::kLogStartOffset) {
      ++slot_writes;
      EXPECT_EQ(op.sequence, 2);
    }
  }
  EXPECT_EQ(slot_writes, 1);
}

// --- StableStore policies ---

TEST(StableStore, RioIsOrdersOfMagnitudeFasterThanDisk) {
  ftx_store::RioStore rio;
  ftx_store::DiskStore disk;

  int64_t commit_bytes = 16 * 1024;
  EXPECT_LT(rio.PersistCost(commit_bytes).nanos() * 100, disk.PersistCost(commit_bytes).nanos());
  EXPECT_LT(rio.LogAppendCost(64).nanos() * 100, disk.LogAppendCost(64).nanos());
}

TEST(StableStore, DiskCommitCostsAboutFortyMilliseconds) {
  // The calibration behind Fig. 8's DC-disk overheads (DESIGN.md §5).
  ftx_store::DiskStore disk;
  ftx_obs::Registry registry;
  disk.BindMetrics(&registry, 3);
  ftx::Duration commit = disk.PersistCost(16 * 1024);
  EXPECT_GT(commit.millis(), 30);
  EXPECT_LT(commit.millis(), 55);
  ftx::Duration log_append = disk.LogAppendCost(64);
  EXPECT_GT(log_append.millis(), 8);
  EXPECT_LT(log_append.millis(), 15);
  // A commit is two synchronous I/Os, an ND-log append one.
  const ftx_obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_NE(snapshot.Find("p3.disk.sync_writes"), nullptr);
  EXPECT_EQ(snapshot.TotalCounter("disk.sync_writes"), 3);
  EXPECT_EQ(snapshot.TotalCounter("disk.bytes_written"), 16 * 1024 + 64);
}

TEST(StableStore, BothSurviveOsCrash) {
  ftx_store::RioStore rio;
  ftx_store::DiskStore disk;
  EXPECT_TRUE(rio.SurvivesOsCrash());
  EXPECT_TRUE(disk.SurvivesOsCrash());
  EXPECT_EQ(rio.name(), "rio");
  EXPECT_EQ(disk.name(), "dc-disk");
}

}  // namespace
