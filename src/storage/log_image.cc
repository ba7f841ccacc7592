#include "src/storage/log_image.h"

#include <cstring>

#include "src/common/check.h"
#include "src/common/crc32.h"
#include "src/obs/prof/prof.h"

namespace ftx_store {
namespace {

int64_t RoundUpToSector(int64_t bytes) {
  return (bytes + kSectorBytes - 1) / kSectorBytes * kSectorBytes;
}

}  // namespace

ftx::Bytes EncodeCommitSlot(const CommitSlot& slot) {
  ftx::Bytes body;
  ftx::AppendValue(&body, slot.sequence);
  ftx::AppendValue(&body, slot.log_start);
  ftx::AppendValue(&body, slot.log_end);
  ftx::AppendValue(&body, slot.start_sequence);

  ftx::Bytes sector;
  ftx::AppendValue(&sector, kCommitSlotMagic);
  ftx::AppendValue(&sector, ftx::Crc32(body.data(), body.size()));
  ftx::AppendRaw(&sector, body.data(), body.size());
  sector.resize(static_cast<size_t>(kSectorBytes), 0);
  return sector;
}

bool DecodeCommitSlot(const uint8_t* sector, size_t size, CommitSlot* slot) {
  if (size < static_cast<size_t>(kSectorBytes)) {
    return false;
  }
  ftx::Bytes buf(sector, sector + kSectorBytes);
  size_t cursor = 0;
  uint32_t magic = 0;
  uint32_t crc = 0;
  CommitSlot decoded;
  if (!ftx::ReadValue(buf, &cursor, &magic) || magic != kCommitSlotMagic ||
      !ftx::ReadValue(buf, &cursor, &crc)) {
    return false;
  }
  const size_t body_begin = cursor;
  if (!ftx::ReadValue(buf, &cursor, &decoded.sequence) ||
      !ftx::ReadValue(buf, &cursor, &decoded.log_start) ||
      !ftx::ReadValue(buf, &cursor, &decoded.log_end) ||
      !ftx::ReadValue(buf, &cursor, &decoded.start_sequence)) {
    return false;
  }
  if (ftx::Crc32(buf.data() + body_begin, cursor - body_begin) != crc) {
    return false;
  }
  *slot = decoded;
  return true;
}

// Record wire format (all fields little-endian host layout, see bytes.h):
//   u32 magic         "FTXR"
//   u32 header_crc    over [sequence .. pages_crc]
//   i64 sequence
//   i64 payload_len   bytes of pages_payload that follow the header
//   i64 metadata_len  bytes of metadata after the payload
//   i64 page_count
//   i64 page_bytes
//   u32 pages_crc
//   u32 metadata_crc
//   payload_len bytes of pages payload
//   metadata_len bytes of metadata
//   zero padding to the next sector boundary
inline constexpr int64_t kRecordHeaderBytes = 4 + 4 + 8 * 5 + 4 + 4;

int64_t EncodedRecordBytes(const RedoRecord& record) {
  return RoundUpToSector(kRecordHeaderBytes + record.PayloadLength() +
                         static_cast<int64_t>(record.metadata.size()));
}

ftx::Bytes EncodeRecord(const RedoRecord& record) {
  FTX_CHECK_MSG(!record.payload_dropped, "cannot encode redo record %lld: its payload was dropped",
                static_cast<long long>(record.sequence));
  ftx::Bytes body;
  ftx::AppendValue(&body, record.sequence);
  ftx::AppendValue(&body, static_cast<int64_t>(record.pages_payload.size()));
  ftx::AppendValue(&body, static_cast<int64_t>(record.metadata.size()));
  ftx::AppendValue(&body, record.page_count);
  ftx::AppendValue(&body, record.page_bytes);
  ftx::AppendValue(&body, record.pages_crc);
  ftx::AppendValue(&body, ftx::Crc32(record.metadata.data(), record.metadata.size()));

  const size_t encoded_bytes = static_cast<size_t>(EncodedRecordBytes(record));
  ftx::Bytes out;
  out.reserve(encoded_bytes);
  ftx::AppendValue(&out, kRecordMagic);
  ftx::AppendValue(&out, ftx::Crc32(body.data(), body.size()));
  ftx::AppendRaw(&out, body.data(), body.size());
  FTX_CHECK_EQ(static_cast<int64_t>(out.size()), kRecordHeaderBytes);
  ftx::AppendRaw(&out, record.pages_payload.data(), record.pages_payload.size());
  ftx::AppendRaw(&out, record.metadata.data(), record.metadata.size());
  out.resize(encoded_bytes, 0);
  return out;
}

DecodeStatus DecodeRecordSpan(const uint8_t* data, int64_t size, int64_t offset,
                              RedoRecord* record, int64_t* next_offset) {
  if (offset < 0 || offset > size) {
    return DecodeStatus::kTruncated;
  }
  const int64_t remaining = size - offset;
  if (remaining < kRecordHeaderBytes) {
    return DecodeStatus::kTruncated;
  }

  const uint8_t* cursor = data + offset;
  auto read = [&cursor](auto* value) {
    std::memcpy(value, cursor, sizeof(*value));
    cursor += sizeof(*value);
  };
  uint32_t magic = 0;
  uint32_t header_crc = 0;
  int64_t payload_len = 0;
  int64_t metadata_len = 0;
  uint32_t metadata_crc = 0;
  RedoRecord decoded;
  read(&magic);
  read(&header_crc);
  const uint8_t* body_begin = cursor;
  read(&decoded.sequence);
  read(&payload_len);
  read(&metadata_len);
  read(&decoded.page_count);
  read(&decoded.page_bytes);
  read(&decoded.pages_crc);
  read(&metadata_crc);
  const uint8_t* body_end = cursor;
  FTX_CHECK_EQ(cursor - (data + offset), kRecordHeaderBytes);

  // Framing before CRC: the length fields must describe bytes that actually
  // remain in the image. Until they do, nothing beyond the fixed-size header
  // is read — a tail truncated mid-record (even mid-header-claimed-payload)
  // is classified by arithmetic alone.
  if (payload_len < 0 || metadata_len < 0 ||
      payload_len > remaining - kRecordHeaderBytes ||
      metadata_len > remaining - kRecordHeaderBytes - payload_len) {
    return DecodeStatus::kTruncated;
  }

  if (magic != kRecordMagic) {
    return DecodeStatus::kCorrupt;
  }
  if (ftx::Crc32(body_begin, static_cast<size_t>(body_end - body_begin)) != header_crc) {
    return DecodeStatus::kCorrupt;
  }

  decoded.pages_payload.assign(cursor, cursor + payload_len);
  cursor += payload_len;
  decoded.metadata.assign(cursor, cursor + metadata_len);
  cursor += metadata_len;

  if (!decoded.ValidatePages() ||
      ftx::Crc32(decoded.metadata.data(), decoded.metadata.size()) != metadata_crc) {
    return DecodeStatus::kCorrupt;
  }

  *record = std::move(decoded);
  if (next_offset != nullptr) {
    *next_offset = offset + RoundUpToSector(cursor - (data + offset));
  }
  return DecodeStatus::kOk;
}

DecodeStatus DecodeRecord(const ftx::Bytes& image, int64_t offset, RedoRecord* record,
                          int64_t* next_offset) {
  return DecodeRecordSpan(image.data(), static_cast<int64_t>(image.size()), offset, record,
                          next_offset);
}

bool SelectCommitSlot(const ftx::Bytes& image, CommitSlot* out) {
  FTX_PROF_SCOPE("logimage.slot_select");
  // Pick the winning slot: the valid one with the highest sequence. A torn
  // or never-written slot simply fails validation and cedes to its sibling.
  CommitSlot best;
  bool have_slot = false;
  for (int i = 0; i < 2; ++i) {
    CommitSlot slot;
    const int64_t offset = i * kSectorBytes;
    if (static_cast<size_t>(offset + kSectorBytes) <= image.size() &&
        DecodeCommitSlot(image.data() + offset, static_cast<size_t>(kSectorBytes), &slot)) {
      if (!have_slot || slot.sequence > best.sequence) {
        best = slot;
        have_slot = true;
      }
    }
  }
  if (have_slot) {
    *out = best;
  }
  return have_slot;
}

SurvivorLog DecodeSurvivorImage(const ftx::Bytes& image) {
  FTX_PROF_SCOPE("logimage.decode");
  SurvivorLog out;

  CommitSlot best;
  const bool have_slot = SelectCommitSlot(image, &best);

  int64_t scan_from = kLogStartOffset;  // where the uncommitted tail starts
  if (!have_slot) {
    // Pristine disk (crash before commit 0's slot write): no committed
    // state, but the record area may still hold commit 0's record.
    out.decode_ok = true;
    out.diagnostic = "no valid commit slot";
  } else {
    out.last_sequence = best.sequence;
    out.start_sequence = best.start_sequence;
    out.decode_ok = true;
    int64_t offset = best.log_start;
    for (int64_t seq = best.start_sequence; seq <= best.sequence; ++seq) {
      RedoRecord record;
      if (offset >= best.log_end) {
        out.decode_ok = false;
        out.diagnostic = "committed range exhausted before sequence " + std::to_string(seq);
        break;
      }
      DecodeStatus status = DecodeRecord(image, offset, &record, &offset);
      if (status != DecodeStatus::kOk) {
        out.decode_ok = false;
        out.diagnostic = "committed record " + std::to_string(seq) +
                         (status == DecodeStatus::kTruncated ? " truncated" : " corrupt");
        break;
      }
      if (record.sequence != seq) {
        out.decode_ok = false;
        out.diagnostic = "committed record sequence mismatch: want " + std::to_string(seq) +
                         " got " + std::to_string(record.sequence);
        break;
      }
      out.records.push_back(std::move(record));
    }
    if (out.decode_ok && out.records.size() !=
            static_cast<size_t>(best.sequence - best.start_sequence + 1)) {
      out.decode_ok = false;
      out.diagnostic = "committed record count mismatch";
    }
    scan_from = best.log_end;
  }

  // Classify the tail: bytes past the committed range belong to an
  // in-flight window whose commit sector never landed (or a crash between
  // the window's two sync I/Os); recovery must and does ignore them. Walk
  // every consecutive intact record — the window was appended in sequence
  // order before its one sync, so intact survivors are always a prefix of
  // the window; the scan stops at the first torn/corrupt frame or sequence
  // gap (stale bytes from a superseded epoch).
  bool tail_bytes_present = false;
  for (size_t i = static_cast<size_t>(scan_from); i < image.size(); ++i) {
    if (image[i] != 0) {
      tail_bytes_present = true;
      break;
    }
  }
  if (tail_bytes_present) {
    out.tail_record_present = true;
    int64_t offset = scan_from;
    for (;;) {
      RedoRecord tail;
      int64_t next_offset = 0;
      DecodeStatus status = DecodeRecord(image, offset, &tail, &next_offset);
      if (out.tail_records.empty()) {
        out.tail_status = status;
      }
      if (status != DecodeStatus::kOk) {
        break;
      }
      if (!out.tail_records.empty() &&
          tail.sequence != out.tail_records.back().sequence + 1) {
        break;
      }
      if (out.tail_records.empty()) {
        out.tail_record = tail;
      }
      out.tail_records.push_back(std::move(tail));
      offset = next_offset;
    }
  }
  return out;
}

}  // namespace ftx_store
