// Tests for the crash-state exploration stack: the sector-granular write
// journal, the on-disk log image codec, the survivor decoder, RedoLog
// framing under truncation/corruption, Runtime::Recover's refusal of
// frankenstates, and a small end-to-end run of the torture engine itself.

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/rng.h"
#include "src/core/experiment.h"
#include "src/storage/log_image.h"
#include "src/storage/redo_log.h"
#include "src/storage/write_journal.h"
#include "src/torture/torture.h"

namespace {

using ftx_store::CommitSlot;
using ftx_store::DecodeStatus;
using ftx_store::DiskOp;
using ftx_store::DiskOpKind;
using ftx_store::kLogStartOffset;
using ftx_store::kSectorBytes;
using ftx_store::RedoLog;
using ftx_store::RedoRecord;
using ftx_store::WriteJournal;

RedoRecord MakeRecord(ftx::Rng* rng, int pages, size_t page_size) {
  RedoRecord record;
  ftx::Bytes image(page_size);
  for (int p = 0; p < pages; ++p) {
    for (uint8_t& b : image) {
      b = static_cast<uint8_t>(rng->NextBounded(256));
    }
    record.AppendPage(static_cast<int64_t>(p) * static_cast<int64_t>(page_size), image.data(),
                      image.size());
  }
  ftx::AppendValue(&record.metadata, rng->NextU64());
  return record;
}

// --- WriteJournal ---

TEST(WriteJournal, SplitsWritesIntoPaddedSectors) {
  WriteJournal journal;
  ftx::Bytes data(kSectorBytes + 100, 0xab);
  journal.Write(kLogStartOffset, data.data(), data.size(), 7);
  journal.Barrier(7);

  ASSERT_EQ(journal.ops().size(), 3u);
  EXPECT_EQ(journal.ops()[0].kind, DiskOpKind::kSectorWrite);
  EXPECT_EQ(journal.ops()[0].offset, kLogStartOffset);
  EXPECT_EQ(journal.ops()[1].offset, kLogStartOffset + kSectorBytes);
  // The final partial sector is zero-padded.
  EXPECT_EQ(journal.ops()[1].data[99], 0xab);
  EXPECT_EQ(journal.ops()[1].data[100], 0);
  EXPECT_EQ(journal.ops()[2].kind, DiskOpKind::kBarrier);
  EXPECT_EQ(journal.barriers(), 1);
  for (const DiskOp& op : journal.ops()) {
    EXPECT_EQ(op.sequence, 7);
  }
}

TEST(WriteJournal, MaterializeAppliesPrefixInOrder) {
  WriteJournal journal;
  ftx::Bytes first(kSectorBytes, 0x11);
  ftx::Bytes second(kSectorBytes, 0x22);
  journal.Write(0, first.data(), first.size(), 0);
  journal.Write(0, second.data(), second.size(), 1);

  ftx::Bytes after_first = journal.MaterializeImage(1, kSectorBytes);
  EXPECT_EQ(after_first[0], 0x11);
  ftx::Bytes after_both = journal.MaterializeImage(2, kSectorBytes);
  EXPECT_EQ(after_both[0], 0x22);
}

// With a payload horizon of 2, a journaled log records exactly the ops of
// an unlimited one (kind, offset, sequence, time, barrier count) and keeps
// bytes, equal to the full journal's, on exactly the record sectors of
// sequences 0 and 1 and on every commit slot — unbatched, and at
// max_records 3, whose slots carry sequences past the horizon. It bills
// the same bytes and keeps every record's header; records 2 and later
// keep no payload.
TEST(WriteJournal, ByteHorizonKeepsEveryOpAndOnlyEarlyRecordBytes) {
  constexpr int64_t kHorizon = 2;
  constexpr int kRecords = 7;
  for (int64_t max_records : {1, 3}) {
    SCOPED_TRACE("max_records " + std::to_string(max_records));
    int64_t now_ns = 0;
    auto clock = [&now_ns]() { return ftx::TimePoint() + ftx::Nanoseconds(now_ns); };
    WriteJournal full;
    WriteJournal capped;
    full.SetClock(clock);
    capped.SetClock(clock);
    RedoLog full_log;
    RedoLog capped_log;
    full_log.AttachJournal(&full);
    capped_log.AttachJournal(&capped);
    capped_log.KeepPayloadsBelow(kHorizon);

    // Windows of max_records records (the last one shorter), appended to
    // both logs.
    ftx::Rng rng(11);
    std::vector<RedoRecord> window;
    for (int i = 0; i < kRecords; ++i) {
      now_ns += 1000;
      window.push_back(MakeRecord(&rng, 1 + i % 3, 1024));
      if (static_cast<int64_t>(window.size()) == max_records || i + 1 == kRecords) {
        const int64_t billed = full_log.AppendBatch(window);
        EXPECT_EQ(capped_log.AppendBatch(std::move(window)), billed);
        window.clear();
      }
    }

    ASSERT_EQ(capped_log.records().size(), full_log.records().size());
    for (size_t i = 0; i < full_log.records().size(); ++i) {
      SCOPED_TRACE("record " + std::to_string(i));
      const RedoRecord& want = full_log.records()[i];
      const RedoRecord& got = capped_log.records()[i];
      EXPECT_EQ(got.sequence, want.sequence);
      EXPECT_EQ(got.page_count, want.page_count);
      EXPECT_EQ(got.page_bytes, want.page_bytes);
      EXPECT_EQ(got.metadata, want.metadata);
      EXPECT_EQ(got.PayloadBytes(), want.PayloadBytes());
      EXPECT_EQ(ftx_store::EncodedRecordBytes(got), ftx_store::EncodedRecordBytes(want));
      EXPECT_EQ(got.payload_dropped, got.sequence >= kHorizon);
      if (got.payload_dropped) {
        EXPECT_TRUE(got.pages_payload.empty());
      } else {
        EXPECT_EQ(ftx_store::EncodeRecord(got), ftx_store::EncodeRecord(want));
      }
    }
    EXPECT_EQ(capped.barriers(), full.barriers());
    ASSERT_EQ(capped.ops().size(), full.ops().size());
    int kept_records = 0;
    int bare_records = 0;
    int slots = 0;
    for (size_t i = 0; i < full.ops().size(); ++i) {
      const DiskOp& want = full.ops()[i];
      const DiskOp& got = capped.ops()[i];
      ASSERT_EQ(got.kind, want.kind) << "op " << i;
      EXPECT_EQ(got.offset, want.offset) << "op " << i;
      EXPECT_EQ(got.sequence, want.sequence) << "op " << i;
      EXPECT_EQ(got.time, want.time) << "op " << i;
      if (want.kind == DiskOpKind::kBarrier) {
        EXPECT_TRUE(got.data.empty()) << "op " << i;
        continue;
      }
      ASSERT_EQ(want.data.size(), static_cast<size_t>(kSectorBytes)) << "op " << i;
      const bool slot = want.offset < kLogStartOffset;
      if (slot || want.sequence < kHorizon) {
        EXPECT_EQ(got.data, want.data) << "op " << i;
        ++(slot ? slots : kept_records);
      } else {
        EXPECT_TRUE(got.data.empty()) << "op " << i;
        ++bare_records;
      }
    }
    EXPECT_EQ(slots, (kRecords + max_records - 1) / max_records);
    EXPECT_GT(kept_records, 0);
    EXPECT_GT(bare_records, 0);
  }
}

TEST(WriteJournalDeathTest, MaterializePastByteHorizonAborts) {
  WriteJournal journal;
  RedoLog log;
  log.AttachJournal(&journal);
  log.KeepPayloadsBelow(1);
  ftx::Rng rng(5);
  log.AppendBatch({MakeRecord(&rng, 1, 1024)});
  const size_t first_window_ops = journal.ops().size();
  log.AppendBatch({MakeRecord(&rng, 1, 1024)});
  constexpr int64_t kImageBytes = 64 * 1024;
  // Record 0's window has every byte; record 1's body has none.
  const ftx::Bytes image = journal.MaterializeImage(first_window_ops, kImageBytes);
  ftx_store::SurvivorLog survivor = ftx_store::DecodeSurvivorImage(image);
  EXPECT_TRUE(survivor.decode_ok);
  EXPECT_EQ(survivor.last_sequence, 0);
  EXPECT_DEATH(journal.MaterializeImage(journal.ops().size(), kImageBytes),
               "journal kept no bytes for the sector");
}

// --- CommitSlot codec ---

TEST(CommitSlot, RoundTripsThroughOneSector) {
  CommitSlot slot;
  slot.sequence = 42;
  slot.log_start = kLogStartOffset + 3 * kSectorBytes;
  slot.log_end = kLogStartOffset + 9 * kSectorBytes;
  slot.start_sequence = 40;

  ftx::Bytes sector = ftx_store::EncodeCommitSlot(slot);
  ASSERT_EQ(sector.size(), static_cast<size_t>(kSectorBytes));

  CommitSlot decoded;
  ASSERT_TRUE(ftx_store::DecodeCommitSlot(sector.data(), sector.size(), &decoded));
  EXPECT_EQ(decoded.sequence, 42);
  EXPECT_EQ(decoded.log_start, slot.log_start);
  EXPECT_EQ(decoded.log_end, slot.log_end);
  EXPECT_EQ(decoded.start_sequence, 40);
}

TEST(CommitSlot, RejectsZeroedTornAndBitFlippedSectors) {
  ftx::Bytes zeros(kSectorBytes, 0);
  CommitSlot decoded;
  EXPECT_FALSE(ftx_store::DecodeCommitSlot(zeros.data(), zeros.size(), &decoded));

  // High bytes of every field are nonzero so each torn cut genuinely
  // differs from the full sector (a cut across trailing zero bytes would
  // be byte-identical to the complete write and rightly accepted).
  CommitSlot slot;
  slot.sequence = INT64_MAX - 3;
  slot.log_start = INT64_MAX - 5;
  slot.log_end = INT64_MAX - 7;
  slot.start_sequence = INT64_MAX - 11;
  ftx::Bytes sector = ftx_store::EncodeCommitSlot(slot);
  for (size_t cut : {4u, 8u, 20u, 39u}) {
    ftx::Bytes torn(kSectorBytes, 0);
    std::memcpy(torn.data(), sector.data(), cut);
    EXPECT_FALSE(ftx_store::DecodeCommitSlot(torn.data(), torn.size(), &decoded))
        << "torn at " << cut;
  }
  sector[17] ^= 0x40;
  EXPECT_FALSE(ftx_store::DecodeCommitSlot(sector.data(), sector.size(), &decoded));
}

// --- Record codec ---

TEST(LogImage, RecordRoundTripsAndIsSectorPadded) {
  ftx::Rng rng(5);
  RedoRecord record = MakeRecord(&rng, 3, 4096);
  record.sequence = 9;

  ftx::Bytes encoded = ftx_store::EncodeRecord(record);
  EXPECT_EQ(encoded.size() % kSectorBytes, 0u);
  EXPECT_EQ(ftx_store::EncodedRecordBytes(record), static_cast<int64_t>(encoded.size()));

  RedoRecord decoded;
  int64_t next = 0;
  ASSERT_EQ(ftx_store::DecodeRecord(encoded, 0, &decoded, &next), DecodeStatus::kOk);
  EXPECT_EQ(next, static_cast<int64_t>(encoded.size()));
  EXPECT_EQ(decoded.sequence, 9);
  EXPECT_EQ(decoded.page_count, 3);
  EXPECT_EQ(decoded.pages_payload, record.pages_payload);
  EXPECT_EQ(decoded.metadata, record.metadata);
  EXPECT_TRUE(decoded.ValidatePages());
}

// Satellite regression: a tail truncated *inside the header* — before the
// length fields are even complete — must be classified by arithmetic, never
// read past the buffer. (The old additive bounds check in ForEachPage could
// wrap on a huge claimed size; DecodeRecord validates lengths against the
// remaining bytes before computing any CRC.)
TEST(LogImage, MidHeaderTruncationIsRejectedCleanly) {
  ftx::Rng rng(6);
  RedoRecord record = MakeRecord(&rng, 2, 4096);
  ftx::Bytes encoded = ftx_store::EncodeRecord(record);

  RedoRecord decoded;
  for (size_t keep : {0u, 3u, 7u, 11u, 19u, 30u, 47u, 55u}) {
    ftx::Bytes truncated(encoded.begin(), encoded.begin() + keep);
    EXPECT_EQ(ftx_store::DecodeRecord(truncated, 0, &decoded, nullptr), DecodeStatus::kTruncated)
        << "kept " << keep << " bytes";
  }
}

TEST(LogImage, PayloadTruncationRejectedBeforeCrcSeesIt) {
  ftx::Rng rng(7);
  RedoRecord record = MakeRecord(&rng, 4, 4096);
  ftx::Bytes encoded = ftx_store::EncodeRecord(record);

  RedoRecord decoded;
  // Keep the whole header but cut the payload: the header's length fields
  // now claim more bytes than remain.
  ftx::Bytes truncated(encoded.begin(), encoded.begin() + 64 + 1000);
  EXPECT_EQ(ftx_store::DecodeRecord(truncated, 0, &decoded, nullptr), DecodeStatus::kTruncated);
}

TEST(RedoRecord, ForEachPageRejectsHugeClaimedSizeWithoutOverflow) {
  RedoRecord record;
  ftx::Bytes image(64, 0x5c);
  record.AppendPage(0, image.data(), image.size());
  // Forge the size field of the only run to a huge value that would wrap an
  // additive cursor+size bounds check back into range.
  int64_t huge = INT64_MAX - 8;
  std::memcpy(record.pages_payload.data() + 8, &huge, sizeof(huge));
  int visited = 0;
  EXPECT_FALSE(record.ForEachPage([&](int64_t, const uint8_t*, size_t) { ++visited; }));
  EXPECT_EQ(visited, 0);
}

// --- Model-based property test: append / persist / recover round-trips
// under random record shapes and random tail truncation or corruption
// (mirrors the SegmentProperty style in vista_test.cc). ---

class RedoLogProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RedoLogProperty, SurvivorDecodeYieldsExactCommittedPrefix) {
  ftx::Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 11);

  RedoLog log;
  WriteJournal journal;
  log.AttachJournal(&journal);

  // Append a random chain; keep canonical copies of what was committed.
  const int num_records = 2 + static_cast<int>(rng.NextBounded(6));
  std::vector<RedoRecord> canonical;
  for (int i = 0; i < num_records; ++i) {
    const int pages = 1 + static_cast<int>(rng.NextBounded(4));
    const size_t page_size = 256 << rng.NextBounded(5);  // 256..4096
    RedoRecord record = MakeRecord(&rng, pages, page_size);
    log.AppendBatch({record});  // assigns sequence i
    record.sequence = i;
    EXPECT_EQ(ftx_store::EncodedRecordBytes(record),
              static_cast<int64_t>(ftx_store::EncodeRecord(record).size()));
    canonical.push_back(std::move(record));
  }

  const std::vector<DiskOp>& ops = journal.ops();
  int64_t image_bytes = kLogStartOffset;
  for (const DiskOp& op : ops) {
    if (op.kind == DiskOpKind::kSectorWrite) {
      image_bytes = std::max(image_bytes, op.offset + kSectorBytes);
    }
  }

  // Crash after a random prefix of the op trace; optionally corrupt one
  // byte in the unsynced epoch (bytes written since the last barrier).
  for (int trial = 0; trial < 40; ++trial) {
    const size_t prefix = static_cast<size_t>(rng.NextBounded(ops.size() + 1));
    ftx::Bytes image = journal.MaterializeImage(prefix, image_bytes);

    int64_t committed = -1;
    int64_t barriers = 0;
    int64_t synced_extent = kLogStartOffset;  // bytes barriered in the record area
    for (size_t i = 0; i < prefix; ++i) {
      if (ops[i].kind == DiskOpKind::kBarrier) {
        ++barriers;
        continue;
      }
      if (barriers % 2 == 0 && ops[i].offset >= kLogStartOffset) {
        // Record-area write in a record epoch; synced once the epoch's
        // barrier lands. Tracked pessimistically below.
      }
    }
    committed = barriers / 2 - 1;
    (void)synced_extent;

    if (rng.NextBernoulli(0.5) && prefix > 0) {
      // Corrupt a byte of the in-flight (unsynced) sector: find the last
      // barrier; any write after it is fair game for the crash to mangle.
      size_t epoch_begin = 0;
      for (size_t i = prefix; i-- > 0;) {
        if (ops[i].kind == DiskOpKind::kBarrier) {
          epoch_begin = i + 1;
          break;
        }
      }
      std::vector<const DiskOp*> unsynced;
      for (size_t i = epoch_begin; i < prefix; ++i) {
        if (ops[i].kind == DiskOpKind::kSectorWrite) {
          unsynced.push_back(&ops[i]);
        }
      }
      if (!unsynced.empty()) {
        const DiskOp* victim = unsynced[rng.NextBounded(unsynced.size())];
        image[static_cast<size_t>(victim->offset) + rng.NextBounded(kSectorBytes)] ^=
            static_cast<uint8_t>(1 + rng.NextBounded(255));
      }
    }

    ftx_store::SurvivorLog survivor = ftx_store::DecodeSurvivorImage(image);
    ASSERT_TRUE(survivor.decode_ok) << survivor.diagnostic;
    ASSERT_GE(survivor.last_sequence, committed);
    ASSERT_LE(survivor.last_sequence, committed + 1);
    ASSERT_EQ(static_cast<int64_t>(survivor.records.size()), survivor.last_sequence + 1);
    for (size_t i = 0; i < survivor.records.size(); ++i) {
      EXPECT_EQ(survivor.records[i].sequence, canonical[i].sequence);
      EXPECT_EQ(survivor.records[i].pages_payload, canonical[i].pages_payload);
      EXPECT_EQ(survivor.records[i].metadata, canonical[i].metadata);
      EXPECT_TRUE(survivor.records[i].ValidatePages());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedoLogProperty, ::testing::Range<uint64_t>(1, 13));

// A chain copied from a journaled log, which releases no record. Every
// record holds page 0, so each one supersedes the one before it.
std::vector<RedoRecord> JournaledChain(uint64_t seed, int records) {
  ftx::Rng rng(seed);
  RedoLog log;
  WriteJournal journal;
  log.AttachJournal(&journal);
  for (int i = 0; i < records; ++i) {
    log.AppendBatch({MakeRecord(&rng, 1, 512)});
  }
  return log.records();
}

TEST(RedoLog, RestoreForRecoveryReplacesChainAndResumesSequences) {
  std::vector<RedoRecord> chain = JournaledChain(22, 6);
  ftx::Rng rng(22);
  RedoLog log;
  for (int i = 0; i < 6; ++i) {
    log.AppendBatch({MakeRecord(&rng, 1, 512)});
  }
  std::vector<RedoRecord> survivors(chain.begin(), chain.begin() + 3);
  log.RestoreForRecovery(std::move(survivors));
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().back().sequence, 2);
  EXPECT_EQ(log.next_sequence(), 3);
  // The rebuilt index releases the survivors a later survivor supersedes.
  EXPECT_TRUE(log.records()[0].released);
  EXPECT_TRUE(log.records()[1].released);
  EXPECT_FALSE(log.records()[2].released);
  EXPECT_EQ(log.records()[2].pages_payload, chain[2].pages_payload);
  log.AppendBatch({MakeRecord(&rng, 1, 512)});
  EXPECT_EQ(log.records().back().sequence, 3);
  EXPECT_TRUE(log.records()[2].released);
}

// Rebuilding the index validates a superseded survivor before releasing
// it, with the message Recover uses.
TEST(RedoLogDeathTest, RestoreValidatesSupersededRecordsBeforeReleasing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<RedoRecord> chain = JournaledChain(23, 3);
  chain[0].pages_payload[chain[0].pages_payload.size() / 2] ^= 0x10;
  RedoLog log;
  EXPECT_DEATH(log.RestoreForRecovery(std::move(chain)), "redo record failed CRC validation");
}

// A prefix of a live chain can have lost pages to records beyond the
// prefix, so restoring a released record aborts.
TEST(RedoLogDeathTest, RestoreRefusesReleasedRecords) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ftx::Rng rng(24);
  RedoLog live;
  for (int i = 0; i < 3; ++i) {
    live.AppendBatch({MakeRecord(&rng, 1, 512)});
  }
  ASSERT_TRUE(live.records()[0].released);
  std::vector<RedoRecord> prefix(live.records().begin(), live.records().begin() + 2);
  RedoLog log;
  EXPECT_DEATH(log.RestoreForRecovery(std::move(prefix)), "cannot restore released redo record 0");
}

// An unjournaled log with horizon 0 keeps no payload and releases nothing,
// yet bills every append as a log without a horizon does.
TEST(RedoLog, PayloadHorizonZeroKeepsNoPayload) {
  ftx::Rng rng(13);
  RedoLog full;
  RedoLog bare;
  bare.KeepPayloadsBelow(0);
  for (int i = 0; i < 5; ++i) {
    RedoRecord record = MakeRecord(&rng, 1 + i % 2, 512);
    EXPECT_EQ(bare.AppendBatch({record}), full.AppendBatch({record}));
  }
  ASSERT_EQ(bare.records().size(), 5u);
  EXPECT_EQ(bare.next_sequence(), full.next_sequence());
  for (const RedoRecord& record : bare.records()) {
    EXPECT_TRUE(record.payload_dropped);
    EXPECT_FALSE(record.released);
    EXPECT_TRUE(record.pages_payload.empty());
    EXPECT_EQ(record.pages_crc, 0u);
  }
}

// A record without its payload can be neither restored for recovery nor
// encoded.
TEST(RedoLogDeathTest, PayloadHorizonRefusesRestoreAndEncode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ftx::Rng rng(14);
  RedoLog bare;
  bare.KeepPayloadsBelow(1);
  bare.AppendBatch({MakeRecord(&rng, 1, 512)});
  bare.AppendBatch({MakeRecord(&rng, 1, 512)});
  ASSERT_FALSE(bare.records()[0].payload_dropped);
  ASSERT_TRUE(bare.records()[1].payload_dropped);
  RedoLog restored;
  EXPECT_DEATH(restored.RestoreForRecovery(bare.records()),
               "cannot restore redo record 1: its payload was dropped");
  EXPECT_DEATH(ftx_store::EncodeRecord(bare.records()[1]),
               "cannot encode redo record 1: its payload was dropped");
}

// --- Death tests: Runtime::Recover must refuse a frankenstate — a redo
// stream whose commit sector exists (the record is in the chain recovery
// reads) but whose page payload fails ValidatePages, or whose framing
// over-claims pages. These pin the exact aborts the torture engine relies
// on at scale. ---

void RunRecoveryWithTamper(const std::function<void(RedoRecord*)>& tamper) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 20;
  spec.seed = 3;
  spec.store = ftx::StoreKind::kDisk;
  spec.mode = ftx_dc::RuntimeMode::kRecoverable;
  // Journaled, so the copied chain still holds every record's pages.
  WriteJournal journal;
  std::unique_ptr<ftx::Computation> computation = ftx::BuildComputation(spec);
  computation->redo_log(0)->AttachJournal(&journal);

  const ftx::TimePoint kill_at = ftx::TimePoint() + ftx::Seconds(1.0);
  computation->ScheduleStopFailure(0, kill_at, ftx::Milliseconds(50));
  computation->sim().ScheduleAt(kill_at + ftx::Milliseconds(25), [&computation, &tamper]() {
    std::vector<RedoRecord> records = computation->redo_log(0)->records();
    ASSERT_GE(records.size(), 2u);
    tamper(&records.back());
    computation->redo_log(0)->RestoreForRecovery(std::move(records));
  });
  computation->Run();
}

TEST(RecoverDeathTest, RefusesCommittedRecordWithCorruptPagePayload) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RunRecoveryWithTamper([](RedoRecord* record) {
                 ASSERT_FALSE(record->pages_payload.empty());
                 record->pages_payload[record->pages_payload.size() / 2] ^= 0x10;
               }),
               "redo record failed CRC validation");
}

TEST(RecoverDeathTest, RefusesCommittedRecordWithOverclaimedPageCount) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // page_count claims one more run than the payload holds; the CRC still
  // matches (payload untouched), so the malformed-framing check must fire.
  EXPECT_DEATH(RunRecoveryWithTamper([](RedoRecord* record) { ++record->page_count; }),
               "redo record page payload malformed");
}

// --- End-to-end: a small torture run must explore prefix, torn, and
// reorder states, replay survivors, and find zero violations. ---

TEST(TortureEngine, SmallNviExplorationHoldsInvariant) {
  ftx_torture::TortureSpec spec;
  spec.workload = "nvi";
  spec.scale = 20;
  spec.seed = 17;
  spec.max_commit_windows = 6;
  ftx_torture::TortureReport report = ftx_torture::ExploreCommitPath(spec, nullptr);

  EXPECT_EQ(report.violations, 0) << (report.violation_diagnostics.empty()
                                          ? ""
                                          : report.violation_diagnostics.front());
  EXPECT_GE(report.commits, 2);
  EXPECT_GT(report.prefix_states, 0);
  EXPECT_GT(report.torn_states, 0);
  EXPECT_GT(report.reorder_states, 0);
  EXPECT_GT(report.survivor_committed, 0);
  EXPECT_GT(report.survivor_none, 0);
  EXPECT_GT(report.replays, 0);
  EXPECT_EQ(report.replays, report.replays_consistent);
  EXPECT_GT(report.tail_records_seen, 0);
}

// Uncapped, as --full runs it, the journal keeps every record's bytes and
// the whole trace is explored.
TEST(TortureEngine, UncappedExplorationExploresEveryOp) {
  ftx_torture::TortureSpec spec;
  spec.workload = "nvi";
  spec.scale = 2;
  spec.seed = 29;
  spec.max_commit_windows = 0;
  ftx_torture::TortureReport report = ftx_torture::ExploreCommitPath(spec, nullptr);

  EXPECT_EQ(report.violations, 0) << (report.violation_diagnostics.empty()
                                          ? ""
                                          : report.violation_diagnostics.front());
  EXPECT_GE(report.commits, 2);
  EXPECT_EQ(report.explored_ops, report.journal_ops);
  EXPECT_GT(report.replays, 0);
  EXPECT_EQ(report.replays, report.replays_consistent);
}

TEST(TortureEngine, ReportIsIdenticalAcrossPoolSizes) {
  ftx_torture::TortureSpec nvi;
  nvi.workload = "nvi";
  nvi.scale = 20;
  nvi.seed = 17;
  nvi.max_commit_windows = 4;
  // The benchmark's shape: one commit window of a long magic run, where the
  // explored ops write one record of the chain.
  ftx_torture::TortureSpec magic;
  magic.workload = "magic";
  magic.scale = 4;
  magic.seed = 17;
  magic.max_commit_windows = 1;

  ftx::TrialPool pool4(4);
  for (const ftx_torture::TortureSpec& spec : {nvi, magic}) {
    SCOPED_TRACE(spec.workload);
    ftx_torture::TortureReport serial = ftx_torture::ExploreCommitPath(spec, nullptr);
    ftx_torture::TortureReport parallel = ftx_torture::ExploreCommitPath(spec, &pool4);
    EXPECT_EQ(serial.ToJsonRow().Dump(2), parallel.ToJsonRow().Dump(2));
    EXPECT_EQ(serial.violations, 0) << (serial.violation_diagnostics.empty()
                                            ? ""
                                            : serial.violation_diagnostics.front());
    EXPECT_GT(serial.replays, 0);
    EXPECT_EQ(serial.replays, serial.replays_consistent);
  }
}

TEST(TortureEngine, MultiProcessExplorationHoldsInvariant) {
  // treadmarks runs four processes; the engine explores machine 0's disk
  // and replays through recovery with its peers' messages in flight.
  ftx_torture::TortureSpec spec;
  spec.workload = "treadmarks";
  spec.scale = 2;
  spec.seed = 29;
  spec.max_commit_windows = 2;

  ftx::TrialPool pool4(4);
  ftx_torture::TortureReport serial = ftx_torture::ExploreCommitPath(spec, nullptr);
  ftx_torture::TortureReport parallel = ftx_torture::ExploreCommitPath(spec, &pool4);
  EXPECT_EQ(serial.ToJsonRow().Dump(2), parallel.ToJsonRow().Dump(2));
  EXPECT_EQ(serial.num_processes, 4);
  EXPECT_EQ(serial.violations, 0) << (serial.violation_diagnostics.empty()
                                          ? ""
                                          : serial.violation_diagnostics.front());
  EXPECT_GT(serial.crash_states, 0);
  EXPECT_GT(serial.replays, 0);
  EXPECT_EQ(serial.replays, serial.replays_consistent);
}

TEST(TortureEngine, BatchedWindowsHoldInvariantWithMultiRecordWindows) {
  // Group-commit torture: CAND commits between output events, so 4-record
  // windows genuinely accumulate. Every crash state must still satisfy
  // Save-work with the batched bound — the survivor is a *window end*, and
  // interrupted windows leave all-or-a-prefix of their records intact.
  ftx_torture::TortureSpec spec;
  spec.workload = "nvi";
  spec.protocol = "cand";
  spec.scale = 20;
  spec.seed = 17;
  spec.max_commit_windows = 6;
  spec.batch_records = 4;
  ftx_torture::TortureReport report = ftx_torture::ExploreCommitPath(spec, nullptr);

  EXPECT_EQ(report.violations, 0) << (report.violation_diagnostics.empty()
                                          ? ""
                                          : report.violation_diagnostics.front());
  EXPECT_EQ(report.batch_records, 4);
  EXPECT_GE(report.commits, 2);
  EXPECT_GT(report.crash_states, 0);
  EXPECT_GT(report.survivor_committed, 0);
  EXPECT_GT(report.replays, 0);
  EXPECT_EQ(report.replays, report.replays_consistent);
  // Interrupted multi-record windows strand intact-but-uncommitted tails.
  EXPECT_GT(report.tail_records_seen, 0);
}

TEST(TortureEngine, BatchedReportIsIdenticalAcrossPoolSizes) {
  ftx_torture::TortureSpec spec;
  spec.workload = "nvi";
  spec.protocol = "cand";
  spec.scale = 20;
  spec.seed = 17;
  spec.max_commit_windows = 4;
  spec.batch_records = 4;

  ftx::TrialPool pool4(4);
  ftx_torture::TortureReport serial = ftx_torture::ExploreCommitPath(spec, nullptr);
  ftx_torture::TortureReport parallel = ftx_torture::ExploreCommitPath(spec, &pool4);
  EXPECT_EQ(serial.ToJsonRow().Dump(2), parallel.ToJsonRow().Dump(2));
}

}  // namespace
