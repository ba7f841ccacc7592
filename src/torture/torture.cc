#include "src/torture/torture.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/apps/workloads.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/experiment.h"
#include "src/obs/causal/audit.h"
#include "src/obs/prof/prof.h"
#include "src/recovery/consistency.h"
#include "src/storage/log_image.h"
#include "src/storage/write_journal.h"

namespace ftx_torture {
namespace {

using ftx_store::CommitSlot;
using ftx_store::DiskOp;
using ftx_store::DiskOpKind;
using ftx_store::EncodeRecord;
using ftx_store::kLogStartOffset;
using ftx_store::kSectorBytes;
using ftx_store::RedoRecord;

// Torn-final-sector variants generated per sector-write prefix (each picks
// a seeded cut point; half stop-early, half trailing-garbage).
constexpr int kTornVariants = 2;
// Reorder variants generated per prefix whose unsynced epoch holds more
// than one in-flight sector write (each applies a seeded strict subset).
constexpr int kReorderVariants = 2;

// One enumerated crash state. `gen_k` is the op index the state was
// generated at; `base` is the op prefix fully applied before any variant
// bytes (for kPrefix it equals gen_k, for kTorn* it is gen_k - 1, for
// kReorder it is the epoch begin the subset extends).
struct CrashState {
  enum class Kind { kPrefix, kTorn, kTornJunk, kReorder };
  Kind kind = Kind::kPrefix;
  size_t gen_k = 0;
  size_t base = 0;
  size_t torn_cut = 0;     // kTorn*: bytes of ops[gen_k-1] that landed
  uint64_t junk_seed = 0;  // kTornJunk: garbage beyond the cut
  int reorder_variant = 0;  // kReorder: which sampled subset of the epoch
};

// What one crash state's decode check reports back to the fold.
struct StateOutcome {
  int64_t survivor = -1;
  int survivor_class = 0;  // 0 none, 1 committed, 2 inflight, 3 violation
  bool tail_seen = false;
  bool blackbox = false;   // also decoded end-to-end from a fresh image
  std::string violation;   // empty = invariant held
};

const char* KindName(CrashState::Kind kind) {
  switch (kind) {
    case CrashState::Kind::kPrefix:
      return "prefix";
    case CrashState::Kind::kTorn:
      return "torn";
    case CrashState::Kind::kTornJunk:
      return "torn-junk";
    case CrashState::Kind::kReorder:
      return "reorder";
  }
  return "?";
}

// Derives the kReorderVariants subsets sampled at op index k: seeded strict
// subsets of the sector writes in [epoch_begin, k), sorted. Both the
// enumeration and the check phases call this, so the subsets never need
// storing.
std::vector<std::vector<size_t>> DeriveReorderSubsets(const std::vector<DiskOp>& ops,
                                                      uint64_t seed, size_t k,
                                                      size_t epoch_begin) {
  std::vector<size_t> epoch;
  for (size_t i = epoch_begin; i < k; ++i) {
    if (ops[i].kind == DiskOpKind::kSectorWrite) {
      epoch.push_back(i);
    }
  }
  std::vector<std::vector<size_t>> subsets;
  if (epoch.size() < 2) {
    return subsets;
  }
  ftx::Rng reorder_rng = ftx::Rng(ftx::DeriveTrialSeed(seed, static_cast<uint64_t>(k))).Fork(2);
  for (int v = 0; v < kReorderVariants; ++v) {
    std::vector<size_t> chosen = epoch;
    reorder_rng.Shuffle(&chosen);
    const size_t keep =
        1 + static_cast<size_t>(reorder_rng.NextBounded(static_cast<uint64_t>(epoch.size() - 1)));
    chosen.resize(keep);
    std::sort(chosen.begin(), chosen.end());
    subsets.push_back(std::move(chosen));
  }
  return subsets;
}

// Everything the per-state checks read; immutable during exploration.
struct CheckContext {
  const std::vector<DiskOp>* ops = nullptr;
  // Concatenation of the canonical encoded records as laid out on disk from
  // kLogStartOffset (sector-aligned), plus each record's end offset in it.
  // Only the records whose sectors the explored ops write are encoded; every
  // record has an end offset.
  const ftx::Bytes* canonical = nullptr;
  const std::vector<int64_t>* record_end = nullptr;  // per sequence
  int64_t num_records = 0;
  // committed_at[c]: last sequence whose both sync barriers lie within the
  // first c ops (-1 = none) — the checkpoint Save-work says must survive.
  const std::vector<int64_t>* committed_at = nullptr;
  // Sorted final sequences of every completed commit window. Under group
  // commit one slot vouches for a whole window, so a crash that exposes the
  // in-flight slot legally advances the survivor to that window's *end* —
  // possibly several sequences past the last durable one, but never a
  // mid-window sequence. Unbatched runs make every entry sequence == window
  // end, reducing the legal in-flight survivor to committed + 1 exactly.
  const std::vector<int64_t>* window_ends = nullptr;
  // Slot tuples the run actually issued, keyed by sequence. A decoded slot
  // must match one of these exactly; anything else is a fabricated commit.
  const std::map<int64_t, std::vector<CommitSlot>>* issued_slots = nullptr;
};

int64_t CanonicalRecordBegin(const CheckContext& ctx, int64_t sequence) {
  return sequence == 0 ? 0 : (*ctx.record_end)[static_cast<size_t>(sequence - 1)];
}

// The end sequence of the window in flight after `committed`: the smallest
// completed-window end strictly greater than it (ctx.num_records when the
// trace holds no later window, which the m >= num_records bound rejects).
int64_t InflightWindowEnd(const CheckContext& ctx, int64_t committed) {
  auto it = std::upper_bound(ctx.window_ends->begin(), ctx.window_ends->end(), committed);
  return it == ctx.window_ends->end() ? ctx.num_records : *it;
}

// Checks one decoded-intact uncommitted tail record against the canonical
// record chain (sequence `next`); returns the violation text ("" = ok).
std::string CheckTailRecord(const CheckContext& ctx, const RedoRecord& tail, int64_t next) {
  if (next >= ctx.num_records) {
    return "intact tail record beyond the last canonical commit";
  }
  const int64_t begin = CanonicalRecordBegin(ctx, next);
  const int64_t end = (*ctx.record_end)[static_cast<size_t>(next)];
  if (end > static_cast<int64_t>(ctx.canonical->size())) {
    return "intact tail record " + std::to_string(next) +
           " lies past the records the explored ops write";
  }
  const ftx::Bytes want = EncodeRecord(tail);
  if (static_cast<int64_t>(want.size()) != end - begin ||
      std::memcmp(want.data(), ctx.canonical->data() + begin, want.size()) != 0) {
    return "intact tail record differs from canonical record " + std::to_string(next);
  }
  return "";
}

bool SlotMatchesIssued(const CheckContext& ctx, const CommitSlot& slot) {
  auto it = ctx.issued_slots->find(slot.sequence);
  if (it == ctx.issued_slots->end()) {
    return false;
  }
  for (const CommitSlot& issued : it->second) {
    if (issued.log_start == slot.log_start && issued.log_end == slot.log_end &&
        issued.start_sequence == slot.start_sequence) {
      return true;
    }
  }
  return false;
}

std::string Describe(const CrashState& state, size_t index, const std::string& why) {
  return "state#" + std::to_string(index) + " kind=" + KindName(state.kind) +
         " k=" + std::to_string(state.gen_k) + ": " + why;
}

// Materializes one crash state's platter image from scratch. The image
// extends just past the highest sector any applied op touches. Used by the
// black-box cross-check path only; the hot path keeps a rolling image.
ftx::Bytes BuildImage(const std::vector<DiskOp>& ops, const CrashState& state,
                      const std::vector<size_t>& subset) {
  int64_t extent = kLogStartOffset;
  auto note = [&extent](const DiskOp& op) {
    if (op.kind == DiskOpKind::kSectorWrite) {
      extent = std::max(extent, op.offset + kSectorBytes);
    }
  };
  const size_t full = state.base;
  for (size_t i = 0; i < full; ++i) {
    note(ops[i]);
  }
  for (size_t i : subset) {
    note(ops[i]);
  }
  if (state.kind == CrashState::Kind::kTorn || state.kind == CrashState::Kind::kTornJunk) {
    note(ops[state.gen_k - 1]);
  }

  ftx::Bytes image(static_cast<size_t>(extent), 0);
  auto apply = [&image](const DiskOp& op) {
    if (op.kind == DiskOpKind::kSectorWrite) {
      std::memcpy(image.data() + op.offset, op.sector(), static_cast<size_t>(kSectorBytes));
    }
  };
  for (size_t i = 0; i < full; ++i) {
    apply(ops[i]);
  }
  for (size_t i : subset) {
    apply(ops[i]);
  }

  if (state.kind == CrashState::Kind::kTorn || state.kind == CrashState::Kind::kTornJunk) {
    const DiskOp& op = ops[state.gen_k - 1];
    uint8_t* sector = image.data() + op.offset;
    // First torn_cut bytes of the new write landed. Beyond the cut, a
    // stop-early tear keeps whatever the sector held before; an interrupted
    // write scribbles deterministic garbage instead.
    std::memcpy(sector, op.sector(), state.torn_cut);
    if (state.kind == CrashState::Kind::kTornJunk) {
      ftx::Rng junk(state.junk_seed);
      for (size_t i = state.torn_cut; i < static_cast<size_t>(kSectorBytes); ++i) {
        sector[i] = static_cast<uint8_t>(junk.NextBounded(256));
      }
    }
  }
  return image;
}

// The end-to-end check: materialize the state's image from scratch and read
// it with the real survivor decoder, exactly like a rebooted machine.
StateOutcome CheckStateBlackBox(const CheckContext& ctx, const CrashState& state, size_t index,
                                const std::vector<size_t>& subset) {
  FTX_PROF_SCOPE("torture.image_check");
  StateOutcome out;
  const ftx::Bytes image = BuildImage(*ctx.ops, state, subset);
  const ftx_store::SurvivorLog survivor = ftx_store::DecodeSurvivorImage(image);
  const int64_t committed = (*ctx.committed_at)[state.base];

  auto violate = [&](const std::string& why) {
    out.survivor_class = 3;
    out.violation = Describe(state, index, why);
  };

  out.survivor = survivor.last_sequence;

  // (a) The decode itself must never fail on the committed range: every
  // record a slot vouches for was fully barriered before the slot landed.
  if (!survivor.decode_ok) {
    violate("committed range failed to decode: " + survivor.diagnostic);
    return out;
  }

  // (b) Save-work invariant: survivor is the last fully-committed window's
  // end, or the in-flight window's end when its slot sector landed — never
  // a mid-window sequence or anything older.
  const int64_t m = survivor.last_sequence;
  const int64_t inflight = InflightWindowEnd(ctx, committed);
  if (m < committed || (m != committed && m != inflight) || m >= ctx.num_records) {
    violate("survivor " + std::to_string(m) + " outside {" + std::to_string(committed) + ", " +
            std::to_string(inflight) + "}");
    return out;
  }
  out.survivor_class = m < 0 ? 0 : (m == committed ? 1 : 2);

  // (c) No frankenstate: the winning slot must be one the run issued, and
  // the range it frames must be byte-identical to the canonical records.
  if (m >= 0) {
    CommitSlot decoded_slot;
    decoded_slot.sequence = m;
    decoded_slot.start_sequence = survivor.start_sequence;
    decoded_slot.log_start = kLogStartOffset + CanonicalRecordBegin(ctx, survivor.start_sequence);
    decoded_slot.log_end = kLogStartOffset + (*ctx.record_end)[static_cast<size_t>(m)];
    if (!SlotMatchesIssued(ctx, decoded_slot)) {
      violate("slot framing {start_seq=" + std::to_string(survivor.start_sequence) +
              ", seq=" + std::to_string(m) + "} was never issued");
      return out;
    }
    const int64_t begin = CanonicalRecordBegin(ctx, survivor.start_sequence);
    const int64_t end = (*ctx.record_end)[static_cast<size_t>(m)];
    if (static_cast<int64_t>(image.size()) < kLogStartOffset + end ||
        end > static_cast<int64_t>(ctx.canonical->size()) ||
        std::memcmp(image.data() + kLogStartOffset + begin, ctx.canonical->data() + begin,
                    static_cast<size_t>(end - begin)) != 0) {
      violate("survivor records differ from canonical commit bytes");
      return out;
    }
    if (static_cast<int64_t>(survivor.records.size()) != m - survivor.start_sequence + 1) {
      violate("decoded record count mismatch");
      return out;
    }
  }

  // (d) Intact uncommitted tail records must be the *next* canonical
  // records in sequence order — fully-landed records the crash denied a
  // commit sector. Group commit can strand several (a prefix of the
  // interrupted window); each must match its canonical counterpart, with
  // no gap in the sequence.
  if (survivor.tail_record_present && survivor.tail_status == ftx_store::DecodeStatus::kOk) {
    out.tail_seen = true;
    int64_t next = m + 1;
    for (const RedoRecord& tail : survivor.tail_records) {
      const std::string why = CheckTailRecord(ctx, tail, next);
      if (!why.empty()) {
        violate(why);
        return out;
      }
      ++next;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rolling-image checker. A window worker walks its op range once, keeping
//   * the image with ops [0, k) applied,
//   * a set of record-area sectors that differ from the canonical layout
//     (canonical record bytes, zeros beyond them),
//   * the record-area extent (highest written offset + sector).
// Each state's check is then O(slot decode + set lookup + tail framing):
// byte-equality below log_end comes from the mismatch set instead of a
// re-decode of megabytes of already-verified committed records. The
// equivalence is exact — decode output is a pure function of image bytes —
// and the seeded black-box samples above re-verify it end to end.
// ---------------------------------------------------------------------------

class RollingChecker {
 public:
  RollingChecker(const CheckContext& ctx, size_t k_begin, size_t window_end)
      : ctx_(ctx), ops_(*ctx.ops) {
    int64_t extent = kLogStartOffset;
    for (size_t i = 0; i < window_end; ++i) {
      if (ops_[i].kind == DiskOpKind::kSectorWrite) {
        extent = std::max(extent, ops_[i].offset + kSectorBytes);
      }
    }
    image_.assign(static_cast<size_t>(extent), 0);
    for (size_t i = 0; i + 1 < k_begin; ++i) {
      ApplySector(ops_[i]);
    }
    prefix_ = k_begin > 0 ? k_begin - 1 : 0;
    // Windows start right after the previous commit's final sync barrier,
    // so the prefix extent is also the current epoch's baseline extent.
    extent_before_epoch_ = record_extent_;
  }

  // Applies op `prefix_` (advancing to prefix_ + 1), remembering the
  // sector's prior content so torn variants can compose old-bytes tails.
  void Advance() {
    const DiskOp& op = ops_[prefix_];
    if (op.kind == DiskOpKind::kSectorWrite) {
      std::memcpy(prev_sector_, image_.data() + op.offset, static_cast<size_t>(kSectorBytes));
      ApplySector(op);
    }
    ++prefix_;
  }

  StateOutcome CheckPrefix(const CrashState& state, size_t index) {
    return Check(state, index, record_extent_);
  }

  StateOutcome CheckTorn(const CrashState& state, size_t index) {
    const DiskOp& op = ops_[state.gen_k - 1];
    // Compose the torn sector in place: the new write's first torn_cut
    // bytes, then either the sector's prior content or seeded garbage.
    ftx::Bytes torn(op.sector(), op.sector() + kSectorBytes);
    if (state.kind == CrashState::Kind::kTornJunk) {
      ftx::Rng junk(state.junk_seed);
      for (size_t i = state.torn_cut; i < static_cast<size_t>(kSectorBytes); ++i) {
        torn[i] = static_cast<uint8_t>(junk.NextBounded(256));
      }
    } else {
      std::memcpy(torn.data() + state.torn_cut, prev_sector_ + state.torn_cut,
                  static_cast<size_t>(kSectorBytes) - state.torn_cut);
    }
    WriteSector(op.offset, torn.data());
    StateOutcome out = Check(state, index, record_extent_);
    WriteSector(op.offset, op.sector());  // restore the fully-landed write
    return out;
  }

  StateOutcome CheckReorder(const CrashState& state, size_t index,
                            const std::vector<size_t>& subset) {
    // The rolling image has every epoch write applied; this state keeps only
    // `subset`. Epoch writes land on fresh record-area sectors (the log is
    // append-only and slots are single-write epochs), so "not applied" means
    // "still zero" — zero the complement, check, and re-apply.
    std::vector<size_t> zeroed;
    size_t subset_pos = 0;
    int64_t state_extent = extent_before_epoch_;
    for (size_t i = state.base; i < state.gen_k; ++i) {
      if (ops_[i].kind != DiskOpKind::kSectorWrite) {
        continue;
      }
      FTX_CHECK_GE(ops_[i].offset, kLogStartOffset);
      if (subset_pos < subset.size() && subset[subset_pos] == i) {
        ++subset_pos;
        state_extent = std::max(state_extent, ops_[i].offset + kSectorBytes);
        continue;
      }
      WriteSector(ops_[i].offset, zero_sector_);
      zeroed.push_back(i);
    }
    StateOutcome out = Check(state, index, state_extent);
    for (size_t i : zeroed) {
      WriteSector(ops_[i].offset, ops_[i].sector());
    }
    return out;
  }

  void NoteEpochBegin() { extent_before_epoch_ = record_extent_; }

  size_t prefix() const { return prefix_; }

 private:
  void ApplySector(const DiskOp& op) {
    if (op.kind != DiskOpKind::kSectorWrite) {
      return;
    }
    WriteSector(op.offset, op.sector());
    if (op.offset >= kLogStartOffset) {
      record_extent_ = std::max(record_extent_, op.offset + kSectorBytes);
    }
  }

  // All image mutation funnels through here so the mismatch set stays true.
  void WriteSector(int64_t offset, const uint8_t* data) {
    std::memcpy(image_.data() + offset, data, static_cast<size_t>(kSectorBytes));
    if (offset < kLogStartOffset) {
      return;  // slot sectors are checked by decoding them, not by layout
    }
    const int64_t rel = offset - kLogStartOffset;
    bool matches;
    // Explored writes stay inside the encoded records unless every record
    // is encoded, so past them the layout holds zeros.
    if (rel >= static_cast<int64_t>(ctx_.canonical->size())) {
      matches = std::all_of(data, data + kSectorBytes, [](uint8_t b) { return b == 0; });
    } else {
      matches = std::memcmp(data, ctx_.canonical->data() + rel,
                            static_cast<size_t>(kSectorBytes)) == 0;
    }
    if (matches) {
      mismatched_.erase(offset);
    } else {
      mismatched_.insert(offset);
    }
  }

  StateOutcome Check(const CrashState& state, size_t index, int64_t state_extent) {
    StateOutcome out;
    const int64_t committed = (*ctx_.committed_at)[state.base];
    auto violate = [&](const std::string& why) {
      out.survivor_class = 3;
      out.violation = Describe(state, index, why);
    };

    CommitSlot slot;
    const bool have_slot = ftx_store::SelectCommitSlot(image_, &slot);
    const int64_t m = have_slot ? slot.sequence : -1;
    out.survivor = m;

    // (b) Save-work invariant.
    const int64_t inflight = InflightWindowEnd(ctx_, committed);
    if (m < committed || (m != committed && m != inflight) || m >= ctx_.num_records) {
      violate("survivor " + std::to_string(m) + " outside {" + std::to_string(committed) +
              ", " + std::to_string(inflight) + "}");
      return out;
    }
    out.survivor_class = m < 0 ? 0 : (m == committed ? 1 : 2);

    int64_t tail_from = kLogStartOffset;
    if (have_slot) {
      // (c) No frankenstate: the slot must be one the run issued, and every
      // record-area sector below its log_end must match the canonical
      // layout byte for byte (empty mismatch set below log_end). Given
      // that, a from-scratch decode necessarily yields exactly the
      // canonical records [start_sequence, m] — the bytes are the same.
      if (!SlotMatchesIssued(ctx_, slot)) {
        violate("slot framing {start_seq=" + std::to_string(slot.start_sequence) +
                ", seq=" + std::to_string(m) + "} was never issued");
        return out;
      }
      auto first_bad = mismatched_.begin();
      if (first_bad != mismatched_.end() && *first_bad < slot.log_end) {
        violate("committed sector at offset " + std::to_string(*first_bad) +
                " differs from canonical commit bytes");
        return out;
      }
      tail_from = slot.log_end;
    }

    // (d) Tail classification over the state's own extent (framing rejects
    // partial records in O(1); CRC only runs when a record fully landed).
    // Under group commit an interrupted window can leave several intact
    // uncommitted records, but only as a sequence-contiguous prefix of the
    // window's canonical records — the walk stops at the first framing or
    // CRC failure, and any intact record out of canonical order is a hole.
    int64_t cursor = tail_from;
    int64_t next = m + 1;
    while (state_extent > cursor) {
      ftx_store::RedoRecord tail;
      int64_t rel_next = 0;
      ftx_store::DecodeStatus status = ftx_store::DecodeRecordSpan(
          image_.data() + cursor, state_extent - cursor, 0, &tail, &rel_next);
      if (status != ftx_store::DecodeStatus::kOk) {
        break;
      }
      out.tail_seen = true;
      const std::string why = CheckTailRecord(ctx_, tail, next);
      if (!why.empty()) {
        violate(why);
        return out;
      }
      cursor += rel_next;
      ++next;
    }
    return out;
  }

  const CheckContext& ctx_;
  const std::vector<DiskOp>& ops_;
  ftx::Bytes image_;
  size_t prefix_ = 0;
  std::set<int64_t> mismatched_;  // record-area sector offsets != canonical
  int64_t record_extent_ = kLogStartOffset;
  int64_t extent_before_epoch_ = kLogStartOffset;
  uint8_t prev_sector_[kSectorBytes] = {};
  uint8_t zero_sector_[kSectorBytes] = {};
};

}  // namespace

ftx_obs::Json TortureReport::ToJsonRow() const {
  ftx_obs::Json row = ftx_obs::Json::Object();
  row.Set("workload", workload);
  row.Set("protocol", protocol);
  row.Set("scale", scale);
  row.Set("seed", static_cast<int64_t>(seed));
  row.Set("processes", num_processes);
  row.Set("batch", batch_records);
  row.Set("commits", commits);
  row.Set("journal_ops", journal_ops);
  row.Set("explored_ops", explored_ops);
  row.Set("prefix_states", prefix_states);
  row.Set("torn_states", torn_states);
  row.Set("reorder_states", reorder_states);
  row.Set("crash_states", crash_states);
  row.Set("survivor_committed", survivor_committed);
  row.Set("survivor_inflight", survivor_inflight);
  row.Set("survivor_none", survivor_none);
  row.Set("tail_records_seen", tail_records_seen);
  row.Set("blackbox_states", blackbox_states);
  row.Set("replays", replays);
  row.Set("replays_consistent", replays_consistent);
  row.Set("replays_skipped_pre_initial", replays_skipped_pre_initial);
  row.Set("replays_skipped_same_step", replays_skipped_same_step);
  row.Set("violations", violations);
  row.Set("ok", ok());
  if (audited) {
    ftx_obs::Json audit = ftx_obs::Json::Object();
    audit.Set("schema_version", ftx_causal::kCausalAuditSchemaVersion);
    audit.Set("violations", audit_violations);
    audit.Set("events", audit_events);
    audit.Set("incidents_total", audit_incidents);
    ftx_obs::Json dumps = ftx_obs::Json::Array();
    for (const std::string& dump : audit_incident_dumps) {
      dumps.Push(dump);
    }
    audit.Set("incident_dumps", std::move(dumps));
    row.Set("audit", audit);
  }
  std::string joined;
  for (const std::string& d : violation_diagnostics) {
    if (!joined.empty()) {
      joined += "; ";
    }
    joined += d;
  }
  row.Set("violation_diagnostics", joined);
  return row;
}

namespace {

// Phases 3 and 4 over the traced run's journal `ops` and record `chain`,
// both read in place. Folds the state counts and verdicts into `report` and
// returns every distinct survivor sequence.
std::set<int64_t> CheckCrashStates(
    const TortureSpec& spec, const std::vector<DiskOp>& ops, const std::vector<RedoRecord>& chain,
    ftx::TrialPool* pool, TortureReport* report,
    const std::function<void(const std::string&)>& record_violation_dump) {
  // Depth cap: explore only the ops of the first max_commit_windows
  // commits (every op carries its commit's sequence).
  size_t explored_end = ops.size();
  if (spec.max_commit_windows > 0) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].sequence >= spec.max_commit_windows) {
        explored_end = i;
        break;
      }
    }
  }
  report->explored_ops = static_cast<int64_t>(explored_end);

  // Canonical on-disk layout: records append contiguously from
  // kLogStartOffset, so the expected committed bytes for survivor m are a
  // prefix of this concatenation. Every record gets its end offset, but only
  // the records whose sectors the explored ops write get bytes: no check
  // reads past them, and a depth-capped exploration reaches few records.
  int64_t explored_extent = 0;  // record-area bytes the explored ops write
  for (size_t i = 0; i < explored_end; ++i) {
    if (ops[i].kind == DiskOpKind::kSectorWrite && ops[i].offset >= kLogStartOffset) {
      explored_extent = std::max(explored_extent, ops[i].offset + kSectorBytes - kLogStartOffset);
    }
  }
  std::vector<int64_t> record_end;
  record_end.reserve(chain.size());
  size_t encoded_records = 0;
  for (const RedoRecord& record : chain) {
    const int64_t begin = record_end.empty() ? 0 : record_end.back();
    if (begin < explored_extent) {
      ++encoded_records;
    }
    record_end.push_back(begin + ftx_store::EncodedRecordBytes(record));
  }
  const int64_t encoded_bytes = encoded_records == 0 ? 0 : record_end[encoded_records - 1];
  ftx::Bytes canonical;
  canonical.reserve(static_cast<size_t>(encoded_bytes));
  for (size_t i = 0; i < encoded_records; ++i) {
    const ftx::Bytes encoded = EncodeRecord(chain[i]);
    ftx::AppendRaw(&canonical, encoded.data(), encoded.size());
  }
  FTX_CHECK_EQ(static_cast<int64_t>(canonical.size()), encoded_bytes);

  // committed_at[c] = the checkpoint durable after the first c ops: the
  // highest sequence with both of its sync barriers in the prefix. Counted
  // per sequence (not barriers/2) so an odd barrier can never skew the
  // count. Both barriers of a group-commit window carry the window's *last*
  // sequence, so under batching this jumps straight from one window end to
  // the next — mid-window sequences are never reported durable. window_ends
  // collects those completed-window last sequences (sorted, deduped) for the
  // in-flight survivor bound.
  std::vector<int64_t> committed_at(ops.size() + 1, -1);
  std::vector<int64_t> window_ends;
  {
    int64_t committed = -1;
    int64_t barrier_seq = -1;
    int barrier_count = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == DiskOpKind::kBarrier) {
        if (ops[i].sequence != barrier_seq) {
          barrier_seq = ops[i].sequence;
          barrier_count = 0;
        }
        if (++barrier_count == 2) {
          committed = std::max(committed, barrier_seq);
          if (window_ends.empty() || window_ends.back() < barrier_seq) {
            window_ends.push_back(barrier_seq);
          }
        }
      }
      committed_at[i + 1] = committed;
    }
  }

  // Slot tuples the run issued, decoded from the slot-area writes in the
  // trace. The log writes one slot per window and never rewrites one, but a
  // sequence issued with several tuples would match any of them.
  std::map<int64_t, std::vector<CommitSlot>> issued_slots;
  for (const DiskOp& op : ops) {
    if (op.kind == DiskOpKind::kSectorWrite && op.offset < kLogStartOffset) {
      CommitSlot slot;
      FTX_CHECK_MSG(
          ftx_store::DecodeCommitSlot(op.sector(), kSectorBytes, &slot),
          "traced slot write does not decode");
      issued_slots[slot.sequence].push_back(slot);
    }
  }

  // Phase 3: enumerate crash states. All randomness derives from
  // (spec.seed, op index), so the state list — and therefore the whole
  // report — is identical for any pool size. Reorder subsets are re-derived
  // at check time rather than stored (the epochs can hold thousands of
  // sector writes).
  std::vector<CrashState> states;
  states.push_back(CrashState{});  // the empty disk (crash before any write)
  {
    size_t epoch_begin = 0;
    size_t epoch_writes = 0;
    for (size_t k = 1; k <= explored_end; ++k) {
      const DiskOp& op = ops[k - 1];
      if (op.kind == DiskOpKind::kBarrier) {
        epoch_begin = k;
        epoch_writes = 0;
        CrashState prefix;
        prefix.gen_k = k;
        prefix.base = k;
        states.push_back(prefix);
        continue;
      }

      CrashState prefix;
      prefix.gen_k = k;
      prefix.base = k;
      states.push_back(prefix);

      ftx::Rng torn_rng =
          ftx::Rng(ftx::DeriveTrialSeed(spec.seed, static_cast<uint64_t>(k))).Fork(1);
      for (int v = 0; v < kTornVariants; ++v) {
        CrashState torn;
        torn.kind = v % 2 == 0 ? CrashState::Kind::kTorn : CrashState::Kind::kTornJunk;
        torn.gen_k = k;
        torn.base = k - 1;
        torn.torn_cut = 1 + static_cast<size_t>(
                                torn_rng.NextBounded(static_cast<uint64_t>(kSectorBytes - 1)));
        torn.junk_seed = torn_rng.NextU64();
        states.push_back(torn);
      }

      ++epoch_writes;
      // The unsynced epoch now holds `epoch_writes` sector writes (all of
      // [epoch_begin, k)'s writes plus this one); a crash exposes any
      // subset of them, so sample strict, non-trivial subsets.
      if (epoch_writes >= 2) {
        for (int v = 0; v < kReorderVariants; ++v) {
          CrashState reorder;
          reorder.kind = CrashState::Kind::kReorder;
          reorder.gen_k = k;
          reorder.base = epoch_begin;
          reorder.reorder_variant = v;
          states.push_back(reorder);
        }
      }
    }
  }

  for (const CrashState& state : states) {
    switch (state.kind) {
      case CrashState::Kind::kPrefix:
        ++report->prefix_states;
        break;
      case CrashState::Kind::kTorn:
      case CrashState::Kind::kTornJunk:
        ++report->torn_states;
        break;
      case CrashState::Kind::kReorder:
        ++report->reorder_states;
        break;
    }
  }
  report->crash_states = static_cast<int64_t>(states.size());

  // Window plan: one unit of parallel work per commit window (the ops
  // sharing one sequence number). States were generated in op order, so a
  // window owns a contiguous state range.
  struct Window {
    size_t k_begin = 1;       // first op index (1-based prefix) in range
    size_t k_end = 0;         // last op index in range (inclusive)
    size_t state_begin = 0;
    size_t state_end = 0;
  };
  std::vector<Window> windows;
  for (size_t k = 1; k <= explored_end; ++k) {
    if (windows.empty() || ops[k - 1].sequence != ops[windows.back().k_begin - 1].sequence) {
      Window w;
      w.k_begin = k;
      windows.push_back(w);
    }
    windows.back().k_end = k;
  }
  {
    size_t cursor = 0;
    for (Window& w : windows) {
      w.state_begin = cursor;
      while (cursor < states.size() && states[cursor].gen_k <= w.k_end) {
        ++cursor;
      }
      w.state_end = cursor;
    }
    FTX_CHECK_EQ(cursor, states.size());
  }

  CheckContext ctx;
  ctx.ops = &ops;
  ctx.canonical = &canonical;
  ctx.record_end = &record_end;
  ctx.num_records = report->commits;
  ctx.committed_at = &committed_at;
  ctx.window_ends = &window_ends;
  ctx.issued_slots = &issued_slots;

  // Phase 4: check every state, one parallel task per commit window, each
  // with a rolling image. A seeded handful of states per window (plus the
  // window's first and last) additionally run the full black-box decode
  // and must agree with the incremental verdict.
  std::vector<std::vector<StateOutcome>> window_outcomes = ftx::RunSharded(
      *pool, static_cast<int64_t>(windows.size()), spec.seed, [&](int64_t wi, uint64_t) {
        const Window& w = windows[static_cast<size_t>(wi)];
        std::vector<StateOutcome> outcomes(w.state_end - w.state_begin);

        std::set<size_t> blackbox;
        if (w.state_end > w.state_begin) {
          blackbox.insert(w.state_begin);
          blackbox.insert(w.state_end - 1);
          ftx::Rng sample(ftx::DeriveTrialSeed(spec.seed, 0x9e00000 + static_cast<uint64_t>(wi)));
          for (int s = 0; s < 6; ++s) {
            blackbox.insert(w.state_begin +
                            static_cast<size_t>(sample.NextBounded(
                                static_cast<uint64_t>(w.state_end - w.state_begin))));
          }
        }

        RollingChecker checker(ctx, w.k_begin, w.k_end);
        // Reorder subsets for the op index currently being processed.
        size_t subsets_k = 0;
        std::vector<std::vector<size_t>> subsets;

        for (size_t si = w.state_begin; si < w.state_end; ++si) {
          const CrashState& state = states[si];
          while (checker.prefix() < state.gen_k) {
            if (ops[checker.prefix()].kind == DiskOpKind::kBarrier) {
              checker.Advance();
              checker.NoteEpochBegin();
            } else {
              checker.Advance();
            }
          }

          StateOutcome out;
          const std::vector<size_t>* subset = nullptr;
          switch (state.kind) {
            case CrashState::Kind::kPrefix:
              out = checker.CheckPrefix(state, si);
              break;
            case CrashState::Kind::kTorn:
            case CrashState::Kind::kTornJunk:
              out = checker.CheckTorn(state, si);
              break;
            case CrashState::Kind::kReorder:
              if (subsets_k != state.gen_k) {
                subsets = DeriveReorderSubsets(ops, spec.seed, state.gen_k, state.base);
                subsets_k = state.gen_k;
              }
              subset = &subsets[static_cast<size_t>(state.reorder_variant)];
              out = checker.CheckReorder(state, si, *subset);
              break;
          }

          if (blackbox.count(si) != 0) {
            out.blackbox = true;
            static const std::vector<size_t> kNoSubset;
            StateOutcome reference_out =
                CheckStateBlackBox(ctx, state, si, subset != nullptr ? *subset : kNoSubset);
            if (reference_out.survivor_class == 3 && out.survivor_class != 3) {
              out = reference_out;  // the end-to-end decoder found a violation
              out.blackbox = true;
            } else if (reference_out.survivor != out.survivor ||
                       reference_out.survivor_class != out.survivor_class ||
                       reference_out.tail_seen != out.tail_seen) {
              out.survivor_class = 3;
              out.violation = Describe(
                  state, si,
                  "incremental and black-box decodes disagree (survivor " +
                      std::to_string(out.survivor) + " vs " +
                      std::to_string(reference_out.survivor) + ")");
            }
          }
          outcomes[si - w.state_begin] = std::move(out);
        }
        return outcomes;
      });

  std::set<int64_t> survivors;
  for (const std::vector<StateOutcome>& window : window_outcomes) {
    for (const StateOutcome& outcome : window) {
      survivors.insert(outcome.survivor);
      if (outcome.tail_seen) {
        ++report->tail_records_seen;
      }
      if (outcome.blackbox) {
        ++report->blackbox_states;
      }
      switch (outcome.survivor_class) {
        case 0:
          ++report->survivor_none;
          break;
        case 1:
          ++report->survivor_committed;
          break;
        case 2:
          ++report->survivor_inflight;
          break;
        default:
          ++report->violations;
          if (report->violation_diagnostics.size() < 5) {
            report->violation_diagnostics.push_back(outcome.violation);
          }
          record_violation_dump(outcome.violation);
          break;
      }
    }
  }

  return survivors;
}

}  // namespace

TortureReport ExploreCommitPath(const TortureSpec& spec, ftx::TrialPool* pool) {
  std::unique_ptr<ftx::TrialPool> serial;
  if (pool == nullptr) {
    serial = std::make_unique<ftx::TrialPool>(1);
    pool = serial.get();
  }

  TortureReport report;
  report.workload = spec.workload;
  report.protocol = spec.protocol;
  report.seed = spec.seed;
  report.scale = spec.scale > 0
                     ? spec.scale
                     : ftx_apps::DefaultScale(spec.workload, /*full_scale=*/false);
  report.batch_records = spec.batch_records > 1 ? spec.batch_records : 1;

  // Group-commit policy applied to every recoverable run of the exploration
  // (traced and replayed alike, so the replay timeline reproduces the
  // traced one). Captured by value: replay lambdas outlive this frame's
  // locals on the shard workers.
  const int64_t batch_records = report.batch_records;
  auto apply_batch = [batch_records](ftx::ComputationOptions* o) {
    o->group_commit.max_records = batch_records;
  };

  ftx::RunSpec base;
  base.workload = spec.workload;
  base.scale = report.scale;
  base.seed = spec.seed;
  base.protocol = spec.protocol;
  base.store = ftx::StoreKind::kDisk;
  base.tweak_options = apply_batch;

  // Phase 1: failure-free baseline — the consistency oracle's reference.
  ftx::RunSpec reference_spec = base;
  reference_spec.mode = ftx_dc::RuntimeMode::kBaseline;
  ftx::RunOutput reference = ftx::RunExperiment(reference_spec);

  // Phase 2: the traced run. Machine 0's redo log journals every disk
  // write, stamped with the simulated clock; the journal never changes a
  // simulated quantity, so this run's timeline is identical to an
  // unjournaled one. Declared first, the journal outlives the run.
  ftx_store::WriteJournal journal;
  ftx::RunSpec traced_spec = base;
  traced_spec.mode = ftx_dc::RuntimeMode::kRecoverable;
  traced_spec.audit = spec.audit;
  std::unique_ptr<ftx::Computation> traced = ftx::BuildComputation(traced_spec);
  journal.SetClock([sim = &traced->sim()]() { return sim->Now(); });
  traced->redo_log(0)->AttachJournal(&journal);
  // Phases 3-4 read the sector bytes of the explored windows' records and
  // of the commit slots alone, and phase 5 installs only survivors among
  // those records, so past the depth cap the log keeps no record payload
  // and the journal no record bytes (without a cap, every record keeps
  // both).
  if (spec.max_commit_windows > 0) {
    traced->redo_log(0)->KeepPayloadsBelow(spec.max_commit_windows);
  }
  ftx::ComputationResult traced_result = traced->Run();
  FTX_CHECK_MSG(traced_result.all_done, "torture trace run did not complete");
  report.num_processes = traced->num_processes();
  ftx_causal::CausalAudit* audit = traced->audit();
  if (audit != nullptr) {
    report.audited = true;
    report.audit_violations = audit->violations();
    report.audit_events = audit->total_appended();
  }
  // Records a flight dump of the traced run's causal tail for a torture
  // violation found in a later (offline) phase. Called only from the
  // single-threaded fold loops of phases 4 and 5 — never from sharded
  // workers.
  auto record_violation_dump = [&report, audit](const std::string& diagnostic) {
    if (audit == nullptr) {
      return;
    }
    const size_t retained_before = audit->incidents().size();
    audit->RecordIncident("torture violation: " + diagnostic, std::nullopt);
    ++report.audit_incidents;
    const auto& incidents = audit->incidents();
    if (incidents.size() > retained_before && report.audit_incident_dumps.size() < 5) {
      report.audit_incident_dumps.push_back(incidents.back().dump);
    }
  };

  // Phases 3-4 read the traced run's journal and record chain in place;
  // nothing they hand to phase 5 points into the traced run.
  std::vector<ftx::TimePoint> commit_time;
  std::set<int64_t> survivors;
  {
    const std::vector<DiskOp>& ops = journal.ops();
    const std::vector<RedoRecord>& chain = traced->redo_log(0)->records();
    report.commits = static_cast<int64_t>(chain.size());
    report.journal_ops = static_cast<int64_t>(ops.size());
    FTX_CHECK_MSG(report.commits >= 2, "torture needs a multi-commit run");
    commit_time.resize(chain.size());
    for (const DiskOp& op : ops) {
      if (op.sequence >= 0 && op.sequence < report.commits &&
          commit_time[static_cast<size_t>(op.sequence)] == ftx::TimePoint()) {
        commit_time[static_cast<size_t>(op.sequence)] = op.time;
      }
    }
    survivors = CheckCrashStates(spec, ops, chain, pool, &report, record_violation_dump);
  }

  if (!spec.replay) {
    return report;
  }

  // Phase 5: replay recovery from every distinct survivor checkpoint. The
  // emulation kills process 0 one nanosecond after the step that produced
  // commit m (commits within a step share the step's instant), installs the
  // survivor's records as the redo log recovery reads, and demands a
  // consistent, complete run.
  std::vector<int64_t> replay_survivors;
  for (int64_t m : survivors) {
    if (m < 0) {
      // Crash before commit 0's slot landed. Commit 0 happens inside
      // Initialize(), before the event loop, so there is no instant at
      // which a scheduled failure could observe this state; the decode
      // phase has already verified it.
      ++report.replays_skipped_pre_initial;
      continue;
    }
    bool same_step_successor = false;
    for (int64_t later = m + 1; later < report.commits; ++later) {
      if (commit_time[static_cast<size_t>(later)] == commit_time[static_cast<size_t>(m)]) {
        same_step_successor = true;
      } else {
        break;
      }
    }
    if (same_step_successor && report.num_processes > 1) {
      // A later commit in the same step already released retained messages
      // to peers; rewinding the log below that commit would fake a crash
      // the network has already contradicted. Single-process workloads
      // re-derive the lost outputs deterministically, so they replay.
      ++report.replays_skipped_same_step;
      continue;
    }
    replay_survivors.push_back(m);
  }

  // Every replay installs a prefix of the traced chain: copy the longest one
  // once, then free the traced run so the replays reuse its memory. It stays
  // alive only for its audit, which records the replays' violation dumps.
  std::vector<RedoRecord> survivor_chain;
  if (!replay_survivors.empty()) {
    const std::vector<RedoRecord>& chain = traced->redo_log(0)->records();
    survivor_chain.assign(chain.begin(), chain.begin() + replay_survivors.back() + 1);
  }
  if (audit == nullptr) {
    traced.reset();
  }

  struct ReplayOutcome {
    bool consistent = false;
    bool completed = false;
    std::string diagnostic;
  };
  std::vector<ReplayOutcome> replays = ftx::RunSharded(
      *pool, static_cast<int64_t>(replay_survivors.size()), spec.seed,
      [&](int64_t i, uint64_t) {
        FTX_PROF_SCOPE("torture.survivor_replay");
        const int64_t m = replay_survivors[static_cast<size_t>(i)];
        ftx::RunSpec replay_spec = base;
        replay_spec.mode = ftx_dc::RuntimeMode::kRecoverable;
        std::unique_ptr<ftx::Computation> computation = ftx::BuildComputation(replay_spec);
        // Recovery installs the survivor's records, which replace every one
        // this run appends before the kill, and nothing recovers this run
        // again: its own records need no payload.
        computation->redo_log(0)->KeepPayloadsBelow(0);

        const ftx::TimePoint kill_at =
            commit_time[static_cast<size_t>(m)] + ftx::Nanoseconds(1);
        const ftx::Duration recovery_delay = ftx::Milliseconds(1);
        computation->ScheduleStopFailure(0, kill_at, recovery_delay);
        // Swap in the survivor's log between the kill and the recovery it
        // schedules (same instant ordering is by insertion, and this event
        // lands strictly earlier anyway).
        computation->sim().ScheduleAt(kill_at + recovery_delay / 2, [&computation, m,
                                                                    &survivor_chain]() {
          computation->redo_log(0)->RestoreForRecovery(std::vector<RedoRecord>(
              survivor_chain.begin(), survivor_chain.begin() + m + 1));
        });

        ftx::ComputationResult result = computation->Run();
        ftx::RunOutput recovered = ftx::Collect(*computation, result);
        ftx_rec::ConsistencyResult consistency = ftx_rec::CheckConsistentRecovery(
            reference.outputs, recovered.outputs, computation->num_processes(),
            /*require_complete=*/true);

        ReplayOutcome outcome;
        outcome.consistent = consistency.consistent;
        outcome.completed = result.all_done;
        if (!consistency.consistent) {
          outcome.diagnostic = consistency.diagnostic;
        } else if (!result.all_done) {
          outcome.diagnostic = "recovered run did not complete";
        }
        return outcome;
      });

  for (size_t i = 0; i < replays.size(); ++i) {
    ++report.replays;
    if (replays[i].consistent && replays[i].completed) {
      ++report.replays_consistent;
    } else {
      ++report.violations;
      const std::string diagnostic = "replay survivor=" +
                                     std::to_string(replay_survivors[i]) + ": " +
                                     replays[i].diagnostic;
      if (report.violation_diagnostics.size() < 5) {
        report.violation_diagnostics.push_back(diagnostic);
      }
      record_violation_dump(diagnostic);
    }
  }
  return report;
}

}  // namespace ftx_torture
