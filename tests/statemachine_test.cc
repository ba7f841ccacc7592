// Tests for the theory substrate: vector clocks, traces + happens-before,
// and the state-machine graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/causal/critical_path.h"
#include "src/protocol/script_replay.h"
#include "src/statemachine/graph.h"
#include "src/statemachine/random_model.h"
#include "src/statemachine/trace.h"
#include "src/statemachine/trace_format.h"
#include "src/statemachine/vector_clock.h"

namespace {

using ftx_sm::EventKind;
using ftx_sm::EventRef;
using ftx_sm::Trace;
using ftx_sm::VectorClock;

// --- VectorClock ---

TEST(VectorClock, TickIncrementsOwnComponent) {
  VectorClock clock(3);
  clock.Tick(1);
  clock.Tick(1);
  EXPECT_EQ(clock.Get(0), 0);
  EXPECT_EQ(clock.Get(1), 2);
}

TEST(VectorClock, MergeTakesMaximum) {
  VectorClock a(3);
  a.Set(0, 5);
  a.Set(1, 1);
  VectorClock b(3);
  b.Set(0, 2);
  b.Set(2, 7);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get(0), 5);
  EXPECT_EQ(a.Get(1), 1);
  EXPECT_EQ(a.Get(2), 7);
}

TEST(VectorClock, HappensBeforeIsStrict) {
  VectorClock a(2);
  a.Set(0, 1);
  VectorClock b = a;
  EXPECT_FALSE(ftx_sm::HappensBefore(a, b));  // equal clocks
  b.Set(1, 1);
  EXPECT_TRUE(ftx_sm::HappensBefore(a, b));
  EXPECT_FALSE(ftx_sm::HappensBefore(b, a));
}

TEST(VectorClock, ConcurrentClocks) {
  VectorClock a(2);
  a.Set(0, 1);
  VectorClock b(2);
  b.Set(1, 1);
  EXPECT_TRUE(ftx_sm::Concurrent(a, b));
  EXPECT_FALSE(ftx_sm::HappensBefore(a, b));
  EXPECT_FALSE(ftx_sm::HappensBefore(b, a));
}

TEST(VectorClock, GrowsOnDemand) {
  VectorClock clock;
  clock.Set(5, 3);
  EXPECT_EQ(clock.Get(5), 3);
  EXPECT_EQ(clock.Get(2), 0);
  EXPECT_EQ(clock.Get(9), 0);
}

// --- Trace happens-before ---

TEST(Trace, ProgramOrderIsHappensBefore) {
  Trace trace(1);
  EventRef a = trace.Append(0, EventKind::kInternal);
  EventRef b = trace.Append(0, EventKind::kInternal);
  EXPECT_TRUE(trace.EventHappensBefore(a, b));
  EXPECT_FALSE(trace.EventHappensBefore(b, a));
  EXPECT_FALSE(trace.EventHappensBefore(a, a));
}

TEST(Trace, MessageCreatesCrossProcessEdge) {
  Trace trace(2);
  EventRef before_send = trace.Append(0, EventKind::kTransientNd);
  EventRef send = trace.Append(0, EventKind::kSend, /*message_id=*/7);
  EventRef recv = trace.Append(1, EventKind::kReceive, /*message_id=*/7);
  EventRef after_recv = trace.Append(1, EventKind::kVisible);

  EXPECT_TRUE(trace.EventHappensBefore(before_send, recv));
  EXPECT_TRUE(trace.EventHappensBefore(send, after_recv));
  EXPECT_TRUE(trace.CausallyPrecedes(before_send, after_recv));
}

TEST(Trace, IndependentProcessesAreConcurrent) {
  Trace trace(2);
  EventRef a = trace.Append(0, EventKind::kInternal);
  EventRef b = trace.Append(1, EventKind::kInternal);
  EXPECT_FALSE(trace.EventHappensBefore(a, b));
  EXPECT_FALSE(trace.EventHappensBefore(b, a));
}

TEST(Trace, NoBackwardEdgeFromReceive) {
  Trace trace(2);
  trace.Append(0, EventKind::kSend, 1);
  trace.Append(1, EventKind::kReceive, 1);
  EventRef later_on_sender = trace.Append(0, EventKind::kInternal);
  EventRef recv_side = trace.Append(1, EventKind::kInternal);
  // The sender's post-send events do not precede the receiver's events.
  EXPECT_FALSE(trace.EventHappensBefore(later_on_sender, recv_side));
}

TEST(Trace, FirstCommitAfterFindsNextCommit) {
  Trace trace(1);
  trace.Append(0, EventKind::kInternal);             // 0
  trace.Append(0, EventKind::kCommit);               // 1
  trace.Append(0, EventKind::kTransientNd);          // 2
  trace.Append(0, EventKind::kCommit);               // 3

  auto commit = trace.FirstCommitAfter(0, 0);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->index, 1);
  commit = trace.FirstCommitAfter(0, 1);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->index, 3);
  EXPECT_FALSE(trace.FirstCommitAfter(0, 3).has_value());
}

TEST(Trace, LastCommitAtOrBefore) {
  Trace trace(1);
  trace.Append(0, EventKind::kCommit);       // 0
  trace.Append(0, EventKind::kInternal);     // 1
  trace.Append(0, EventKind::kCommit);       // 2
  trace.Append(0, EventKind::kInternal);     // 3

  auto commit = trace.LastCommitAtOrBefore(0, 3);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->index, 2);
  commit = trace.LastCommitAtOrBefore(0, 1);
  ASSERT_TRUE(commit.has_value());
  EXPECT_EQ(commit->index, 0);
}

TEST(Trace, FaultActivationMarking) {
  Trace trace(1);
  EventRef e = trace.Append(0, EventKind::kInternal);
  EXPECT_FALSE(trace.event(e).fault_activation);
  trace.MarkFaultActivation(e);
  EXPECT_TRUE(trace.event(e).fault_activation);
}

TEST(Trace, DuplicateReceiveOfSameMessageAllowed) {
  // Reexecution after rollback re-receives a redelivered message: the trace
  // records both receive events against the same send.
  Trace trace(2);
  trace.Append(0, EventKind::kSend, 5);
  trace.Append(1, EventKind::kReceive, 5);
  trace.Append(1, EventKind::kReceive, 5);  // redelivery
  EXPECT_EQ(trace.NumEvents(1), 2);
}

// --- Trace storage: interned labels, paged send pairing, 32-bit fields ---

// Labels point into the owning Trace's pool, so a Trace moves but never
// copies.
static_assert(!std::is_copy_constructible_v<Trace>);
static_assert(!std::is_copy_assignable_v<Trace>);
static_assert(std::is_move_constructible_v<Trace>);

// Every label of the trace, in (process, index) order.
std::vector<std::string> AllLabels(const Trace& trace) {
  std::vector<std::string> labels;
  for (ftx_sm::ProcessId p = 0; p < trace.num_processes(); ++p) {
    for (const ftx_sm::TraceEvent& ev : trace.ProcessEvents(p)) {
      labels.emplace_back(ev.label);
    }
  }
  return labels;
}

TEST(Trace, LabelsCompareByContentAndReadAsStrings) {
  Trace trace(2);
  trace.Append(0, EventKind::kSend, 9, false, "2pc");
  trace.Append(1, EventKind::kReceive, 9, true, std::string("2pc"));
  trace.Append(1, EventKind::kCommit);
  const ftx_sm::TraceEvent& send = trace.event(EventRef{0, 0});
  const ftx_sm::TraceEvent& recv = trace.event(EventRef{1, 0});
  const ftx_sm::TraceEvent& commit = trace.event(EventRef{1, 1});
  EXPECT_TRUE(send.label == "2pc");
  EXPECT_TRUE(send.label == recv.label);
  EXPECT_FALSE(send.label == commit.label);
  EXPECT_TRUE(commit.label.empty());
  EXPECT_EQ(std::string(send.label), "2pc");
  EXPECT_EQ(std::string_view(commit.label), "");

  // A label re-appended into another trace is interned in that trace's pool
  // and still compares equal to the original.
  Trace other(2);
  other.Append(0, EventKind::kSend, 9, false, send.label);
  EXPECT_TRUE(other.event(EventRef{0, 0}).label == send.label);
}

TEST(Trace, LabelsSurviveMovesOfTheTraceAndOfAReplayResult) {
  auto source = std::make_unique<Trace>(3);
  source->Append(0, EventKind::kTransientNd, -1, false, "flip");
  source->Append(0, EventKind::kSend, 4, false, "request");
  source->Append(1, EventKind::kReceive, 4, true, "request");
  source->Append(2, EventKind::kCrash, -1, false,
                 "an assertion message longer than any small-string buffer");
  source->Append(1, EventKind::kCommit, -1, false, "", /*atomic_group=*/3);
  const std::string text = ftx_sm::FormatTrace(*source);
  const std::vector<std::string> labels = AllLabels(*source);

  Trace moved(std::move(*source));
  source.reset();
  EXPECT_EQ(ftx_sm::FormatTrace(moved), text);
  EXPECT_EQ(AllLabels(moved), labels);

  Trace assigned(1);
  {
    Trace temporary = std::move(moved);
    assigned = std::move(temporary);
  }
  EXPECT_EQ(ftx_sm::FormatTrace(assigned), text);
  EXPECT_EQ(AllLabels(assigned), labels);
  // The moved trace keeps interning into the pool it took over.
  assigned.Append(0, EventKind::kVisible, -1, false, "flip");
  EXPECT_EQ(std::string(assigned.event(EventRef{0, 2}).label), "flip");

  // A 2PC protocol's replay labels its coordination events "2pc".
  ftx::Rng rng(11);
  ftx_sm::RandomTraceOptions options;
  options.num_processes = 3;
  options.events_per_process = 30;
  const std::vector<ftx_sm::ScriptedEvent> script = ftx_sm::MakeRandomScript(&rng, options);
  auto replay = std::make_unique<ftx_proto::ScriptReplayResult>(
      ftx_proto::ReplayScript(script, options.num_processes, "cpv-2pc"));
  const std::string replay_text = ftx_sm::FormatTrace(replay->trace);
  const std::vector<std::string> replay_labels = AllLabels(replay->trace);
  ASSERT_NE(std::count(replay_labels.begin(), replay_labels.end(), "2pc"), 0);

  ftx_proto::ScriptReplayResult kept = std::move(*replay);
  replay.reset();
  EXPECT_EQ(ftx_sm::FormatTrace(kept.trace), replay_text);
  EXPECT_EQ(AllLabels(kept.trace), replay_labels);
}

TEST(Trace, SendPairingIsExactAcrossMixedIdPatterns) {
  // The id patterns the pairing map serves: small sparse ids (unit tests),
  // the network's counter from 0, the coordinator's from 1e15, the script
  // replayer's from 2^40, plus a few isolated ids far from every run.
  ftx::Rng rng(2024);
  std::set<int64_t> ids;
  while (ids.size() < 300) {
    ids.insert(static_cast<int64_t>(rng.NextBounded(100000)));
  }
  for (int64_t i = 0; i < 3000; ++i) {
    ids.insert(i);
    ids.insert(int64_t{1000000000000000} + i);
    ids.insert((int64_t{1} << 40) + i);
  }
  for (int i = 0; i < 20; ++i) {
    ids.insert(static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 62)));
  }
  ids.insert(std::numeric_limits<int64_t>::max());
  std::vector<int64_t> order(ids.begin(), ids.end());
  rng.Shuffle(&order);

  // Every fourth id stays unsent; the rest are sent in shuffled order by
  // random processes, and received (by another random process) some time
  // after the send.
  constexpr int kProcesses = 6;
  Trace trace(kProcesses);
  std::map<int64_t, EventRef> sent;
  std::vector<int64_t> unsent;
  std::vector<int64_t> in_flight;
  for (size_t i = 0; i < order.size(); ++i) {
    const int64_t id = order[i];
    if (i % 4 == 3) {
      unsent.push_back(id);
      continue;
    }
    const auto sender = static_cast<ftx_sm::ProcessId>(rng.NextBounded(kProcesses));
    sent[id] = trace.Append(sender, EventKind::kSend, id, false, "send");
    in_flight.push_back(id);
    while (!in_flight.empty() && rng.NextBounded(3) == 0) {
      const size_t pick = rng.NextBounded(in_flight.size());
      const auto receiver = static_cast<ftx_sm::ProcessId>(rng.NextBounded(kProcesses));
      const EventRef recv = trace.Append(receiver, EventKind::kReceive, in_flight[pick]);
      EXPECT_TRUE(trace.HappensBeforeOrEqual(sent[in_flight[pick]], recv));
      in_flight[pick] = in_flight.back();
      in_flight.pop_back();
    }
  }

  for (const auto& [id, ref] : sent) {
    const std::optional<EventRef> found = trace.SendOfMessage(id);
    ASSERT_TRUE(found.has_value()) << id;
    EXPECT_EQ(*found, ref) << id;
    EXPECT_EQ(trace.event(ref).message_id, id);
  }
  for (int64_t id : unsent) {
    EXPECT_FALSE(trace.SendOfMessage(id).has_value()) << id;
  }
  EXPECT_FALSE(trace.SendOfMessage(-1).has_value());
  EXPECT_FALSE(trace.SendOfMessage(int64_t{1000000000000000} + 3000).has_value());
  EXPECT_FALSE(trace.SendOfMessage((int64_t{1} << 40) - 1).has_value());
}

// --- Trace log: one append-order log, views built on first read ---

// What a test appended, kept apart from the Trace under test.
struct Appended {
  EventKind kind = EventKind::kInternal;
  int64_t message_id = -1;
  bool logged = false;
  std::string label;
  int64_t atomic_group = -1;
  bool fault_activation = false;
};

// The reference a test builds alongside a Trace: every appended event per
// process, in execution order.
using ReferenceTrace = std::vector<std::vector<Appended>>;

bool SameEvent(const ftx_sm::TraceEvent& ev, ftx_sm::ProcessId p, int64_t index,
               const Appended& want) {
  return ev.process == p && ev.index == index && ev.kind == want.kind &&
         ev.message_id == want.message_id && ev.logged == want.logged &&
         ev.label == want.label && ev.atomic_group == want.atomic_group &&
         ev.fault_activation == want.fault_activation;
}

// Every read of the trace agrees with the reference.
void ExpectMatchesReference(const Trace& trace, const ReferenceTrace& ref) {
  int64_t total = 0;
  for (ftx_sm::ProcessId p = 0; p < trace.num_processes(); ++p) {
    const auto& want = ref[static_cast<size_t>(p)];
    const auto n = static_cast<int64_t>(want.size());
    total += n;
    ASSERT_EQ(trace.NumEvents(p), n) << "process " << p;
    const std::vector<ftx_sm::TraceEvent>& view = trace.ProcessEvents(p);
    ASSERT_EQ(static_cast<int64_t>(view.size()), n) << "process " << p;
    for (int64_t i = 0; i < n; ++i) {
      const Appended& expected = want[static_cast<size_t>(i)];
      ASSERT_TRUE(SameEvent(view[static_cast<size_t>(i)], p, i, expected))
          << "view of process " << p << " at " << i;
      ASSERT_TRUE(SameEvent(trace.event(EventRef{p, i}), p, i, expected))
          << "event " << p << ":" << i;
    }
    // `last` is the newest commit at or before i, `next` the first after it.
    std::optional<EventRef> last;
    for (int64_t i = -1; i <= n; ++i) {
      if (i >= 0 && i < n && want[static_cast<size_t>(i)].kind == EventKind::kCommit) {
        last = EventRef{p, i};
      }
      std::optional<EventRef> next;
      for (int64_t j = i + 1; j < n && !next; ++j) {
        if (want[static_cast<size_t>(j)].kind == EventKind::kCommit) {
          next = EventRef{p, j};
        }
      }
      ASSERT_EQ(trace.FirstCommitAfter(p, i), next)
          << "first commit of process " << p << " after " << i;
      ASSERT_EQ(trace.LastCommitAtOrBefore(p, i), last)
          << "last commit of process " << p << " at or before " << i;
    }
  }
  ASSERT_EQ(trace.TotalEvents(), total);
}

// Appends random events (every kind, labels, atomic groups, send/receive
// pairs) to a trace and to its reference.
class RandomAppender {
 public:
  // Message ids count up from `first_message`.
  RandomAppender(Trace* trace, ReferenceTrace* ref, uint64_t seed, int64_t first_message = 0)
      : trace_(trace), ref_(ref), rng_(seed), next_message_(first_message) {}

  EventRef AppendOne() {
    static constexpr const char* kLabels[] = {"", "2pc", "keystroke", "frame"};
    const auto p = static_cast<ftx_sm::ProcessId>(rng_.NextBounded(ref_->size()));
    Appended a;
    a.label = kLabels[rng_.NextBounded(4)];
    switch (rng_.NextBounded(6)) {
      case 0:
        a.kind = EventKind::kInternal;
        break;
      case 1:
        a.kind = EventKind::kCommit;
        a.atomic_group = rng_.NextBounded(2) == 0 ? -1 : next_group_++;
        break;
      case 2:
        a.kind = EventKind::kSend;
        a.message_id = next_message_++;
        sent_.push_back(a.message_id);
        break;
      case 3:
        if (!sent_.empty()) {
          a.kind = EventKind::kReceive;
          a.message_id = sent_[rng_.NextBounded(sent_.size())];
          a.logged = rng_.NextBounded(2) == 0;
          break;
        }
        [[fallthrough]];
      case 4:
        a.kind = EventKind::kTransientNd;
        a.logged = rng_.NextBounded(2) == 0;
        break;
      default:
        a.kind = EventKind::kVisible;
        break;
    }
    const EventRef ref =
        trace_->Append(p, a.kind, a.message_id, a.logged, a.label, a.atomic_group);
    auto& events = (*ref_)[static_cast<size_t>(p)];
    EXPECT_EQ(ref, (EventRef{p, static_cast<int64_t>(events.size())}));
    events.push_back(std::move(a));
    return ref;
  }

 private:
  Trace* trace_;
  ReferenceTrace* ref_;
  ftx::Rng rng_;
  int64_t next_message_;
  int64_t next_group_ = 0;
  std::vector<int64_t> sent_;
};

TEST(TraceLog, EveryReadMatchesAReferenceAcrossChunkBoundaries) {
  constexpr int kProcesses = 5;
  constexpr auto kChunk = static_cast<int>(Trace::kLogChunkEvents);
  Trace trace(kProcesses);
  ReferenceTrace ref(kProcesses);
  RandomAppender appender(&trace, &ref, 17);
  // A read folds the log, so the appends between two reads decide which
  // chunk boundaries they cross: runs of a few appends, runs that end on
  // either side of a boundary, and one run that crosses three.
  const std::vector<int> runs = {1,         2,         3,     kChunk - 1, 1, 5, kChunk,
                                 kChunk + 1, 4,         7,     3 * kChunk + 1,
                                 2,         2 * kChunk, 1, 6};
  // Rotate which read comes first, so each kind of read is seen folding:
  // its answer depends on the events the run appended.
  int read = 0;
  for (int run : runs) {
    std::vector<int64_t> before;
    for (ftx_sm::ProcessId p = 0; p < kProcesses; ++p) {
      before.push_back(trace.NumEvents(p));
    }
    EventRef last;
    for (int i = 0; i < run; ++i) {
      last = appender.AppendOne();
    }
    const ftx_sm::ProcessId p = last.process;
    const std::vector<Appended>& want = ref[static_cast<size_t>(p)];
    std::optional<EventRef> first_new_commit;
    std::optional<EventRef> last_commit;
    for (int64_t i = 0; i < static_cast<int64_t>(want.size()); ++i) {
      if (want[static_cast<size_t>(i)].kind == EventKind::kCommit) {
        last_commit = EventRef{p, i};
        if (i >= before[static_cast<size_t>(p)] && !first_new_commit) {
          first_new_commit = last_commit;
        }
      }
    }
    switch (read++ % 4) {
      case 0:
        ASSERT_EQ(trace.ProcessEvents(p).size(), want.size());
        break;
      case 1:
        ASSERT_TRUE(SameEvent(trace.event(last), p, last.index, want.back()));
        break;
      case 2:
        ASSERT_EQ(trace.FirstCommitAfter(p, before[static_cast<size_t>(p)] - 1), first_new_commit);
        break;
      default:
        ASSERT_EQ(trace.LastCommitAtOrBefore(p, last.index), last_commit);
        break;
    }
    ExpectMatchesReference(trace, ref);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(trace.TotalEvents(), 7 * kChunk);
}

TEST(TraceLog, ObserverSeesTheEventTheFoldedViewHolds) {
  constexpr int kProcesses = 3;
  constexpr auto kChunk = static_cast<int>(Trace::kLogChunkEvents);
  Trace trace(kProcesses, ftx_sm::TraceOptions{.record_clocks = false});
  ReferenceTrace ref(kProcesses);
  RandomAppender appender(&trace, &ref, 5);
  std::vector<ftx_sm::TraceEvent> seen;
  std::vector<const ftx_sm::TraceEvent*> addresses;
  trace.SetAppendObserver(
      [&](EventRef at, const ftx_sm::TraceEvent& ev, const VectorClock&) {
        EXPECT_EQ(at, (EventRef{ev.process, ev.index}));
        seen.push_back(ev);
        addresses.push_back(&ev);
      });
  for (int i = 0; i < 2 * kChunk + 10; ++i) {
    appender.AppendOne();
  }
  // Until a read folds the log, every event the observer saw stays where it
  // was, across the chunk boundaries the appends crossed; after the fold
  // the view holds the same event.
  auto appended = [&ref](const ftx_sm::TraceEvent& ev) -> const Appended& {
    return ref[static_cast<size_t>(ev.process)][static_cast<size_t>(ev.index)];
  };
  for (size_t i = 0; i < seen.size(); ++i) {
    const ftx_sm::TraceEvent& ev = seen[i];
    ASSERT_TRUE(SameEvent(ev, ev.process, ev.index, appended(ev))) << "event " << i;
    ASSERT_TRUE(SameEvent(*addresses[i], ev.process, ev.index, appended(ev))) << "event " << i;
  }
  for (const ftx_sm::TraceEvent& ev : seen) {
    ASSERT_TRUE(SameEvent(trace.event(EventRef{ev.process, ev.index}), ev.process, ev.index,
                          appended(ev)))
        << ev.process << ":" << ev.index;
  }
  ExpectMatchesReference(trace, ref);
}

TEST(TraceLog, FaultActivationMarksLoggedAndFoldedEvents) {
  Trace trace(2);
  // The newest logged event, as Runtime::MarkFaultActivation marks it.
  trace.Append(0, EventKind::kInternal);
  const EventRef newest = trace.Append(1, EventKind::kInternal, -1, false, "fault-activation");
  trace.MarkFaultActivation(newest);
  EXPECT_TRUE(trace.event(newest).fault_activation);
  EXPECT_FALSE(trace.event(EventRef{0, 0}).fault_activation);

  // An event a read has already folded.
  const EventRef later = trace.Append(0, EventKind::kCommit);
  trace.Append(1, EventKind::kVisible);
  EXPECT_FALSE(trace.event(later).fault_activation);
  trace.MarkFaultActivation(EventRef{0, 0});
  EXPECT_TRUE(trace.event(EventRef{0, 0}).fault_activation);

  // A logged event that is no longer the newest.
  const EventRef older = trace.Append(0, EventKind::kInternal);
  trace.Append(1, EventKind::kInternal);
  trace.MarkFaultActivation(older);
  EXPECT_TRUE(trace.event(older).fault_activation);

  int64_t marked = 0;
  for (ftx_sm::ProcessId p = 0; p < trace.num_processes(); ++p) {
    for (const ftx_sm::TraceEvent& ev : trace.ProcessEvents(p)) {
      marked += ev.fault_activation ? 1 : 0;
    }
  }
  EXPECT_EQ(marked, 3);
  EXPECT_EQ(trace.FirstCommitAfter(0, 0), later);
}

TEST(TraceLog, AMovedTraceKeepsItsUnfoldedEventsAndLabels) {
  constexpr int kProcesses = 4;
  constexpr auto kChunk = static_cast<int>(Trace::kLogChunkEvents);
  auto source = std::make_unique<Trace>(kProcesses);
  ReferenceTrace ref(kProcesses);
  {
    RandomAppender appender(source.get(), &ref, 23);
    for (int i = 0; i < kChunk + 100; ++i) {
      appender.AppendOne();
    }
  }
  // A label no other event carries, interned by the source alone.
  source->Append(3, EventKind::kCrash, -1, false,
                 "an assertion message longer than any small-string buffer");
  ref[3].push_back(Appended{.kind = EventKind::kCrash,
                            .label = "an assertion message longer than any small-string buffer"});

  Trace moved(std::move(*source));
  source.reset();
  ExpectMatchesReference(moved, ref);

  // Events appended after the fold, then moved again unread.
  RandomAppender appender(&moved, &ref, 29, /*first_message=*/1000000);
  for (int i = 0; i < 300; ++i) {
    appender.AppendOne();
  }
  Trace assigned(1);
  assigned = std::move(moved);
  ExpectMatchesReference(assigned, ref);
}

TEST(TraceDeathTest, ReceiveWithoutRecordedSendAborts) {
  Trace trace(2);
  trace.Append(0, EventKind::kSend, 41);
  EXPECT_DEATH(trace.Append(1, EventKind::kReceive, 42),
               "receive of message 42 with no recorded send");
}

TEST(TraceDeathTest, DuplicateSendAborts) {
  Trace trace(2);
  trace.Append(0, EventKind::kSend, 1000000000000000);
  EXPECT_DEATH(trace.Append(1, EventKind::kSend, 1000000000000000),
               "duplicate send of message 1000000000000000");
}

TEST(TraceDeathTest, MessageEventsRequireANonNegativeId) {
  Trace trace(2);
  EXPECT_DEATH(trace.Append(0, EventKind::kSend, -1), "send events require a message id");
  EXPECT_DEATH(trace.Append(0, EventKind::kReceive, -1), "receive events require a message id");
}

TEST(TraceDeathTest, AtomicGroupBeyond32BitsAborts) {
  Trace trace(1);
  const int64_t max_group = std::numeric_limits<int32_t>::max();
  EXPECT_EQ(trace.event(trace.Append(0, EventKind::kCommit, -1, false, "", max_group))
                .atomic_group,
            max_group);
  EXPECT_DEATH(trace.Append(0, EventKind::kCommit, -1, false, "", max_group + 1),
               "atomic group 2147483648 does not fit in 32 bits");
}

TEST(TraceDeathTest, EventIndexBeyond32BitsAborts) {
  // Append narrows every event index through NarrowEventField; 2^31 events
  // of one process are too many to append in a test, so the check is pinned
  // on the narrowing itself.
  EXPECT_EQ(ftx_sm::NarrowEventField(std::numeric_limits<int32_t>::max(), "event index"),
            std::numeric_limits<int32_t>::max());
  EXPECT_DEATH(ftx_sm::NarrowEventField(int64_t{1} << 31, "event index"),
               "event index 2147483648 does not fit in 32 bits");
}

TEST(CriticalPathPairing, TaintedSendsInBothIdRangesAreCountedExactly) {
  // Network ids count from 0 and coordination ids from 1e15; the tracker's
  // pairing map holds both. p0 crashes, then sends in both ranges: each is
  // a tainted send. p1 stays clean: its sends are not recorded.
  constexpr int64_t kCoordBase = 1000000000000000;
  int64_t now = 0;
  int time_reads = 0;
  ftx_causal::CriticalPathTracker tracker(3, [&now, &time_reads]() {
    ++time_reads;
    return now;
  });
  auto event = [](ftx_sm::ProcessId p, EventKind kind, int64_t id) {
    ftx_sm::TraceEvent ev;
    ev.process = p;
    ev.kind = kind;
    ev.message_id = id;
    return ev;
  };
  int64_t index = 0;
  for (int64_t i = 0; i < 2500; ++i) {
    tracker.OnTraceEvent(EventRef{1, index++}, event(1, EventKind::kSend, 100000 + i));
    tracker.OnTraceEvent(EventRef{1, index++}, event(1, EventKind::kCommit, -1));
  }
  EXPECT_EQ(time_reads, 0);  // nothing tainted: no event records a time
  EXPECT_EQ(tracker.tainted_messages(), 0);

  now = 100;
  tracker.OnCrash(0);
  constexpr int64_t kNetworkSends = 3000;
  constexpr int64_t kCoordSends = 2100;
  for (int64_t i = 0; i < kNetworkSends; ++i) {
    now = 200 + i;
    tracker.OnTraceEvent(EventRef{0, i}, event(0, EventKind::kSend, 2 * i));
  }
  for (int64_t i = 0; i < kCoordSends; ++i) {
    now = 10000 + i;
    tracker.OnTraceEvent(EventRef{0, kNetworkSends + i},
                         event(0, EventKind::kSend, kCoordBase + i));
  }
  // A repeated send id keeps its first send site.
  now = 20000;
  tracker.OnTraceEvent(EventRef{0, kNetworkSends + kCoordSends},
                       event(0, EventKind::kSend, kCoordBase));
  EXPECT_EQ(tracker.tainted_messages(), kNetworkSends + kCoordSends);

  // p2 receives one untainted message and then a coordination message that
  // p0 sent at 10000 + 7: that send is its first-taint edge.
  now = 30000;
  tracker.OnTraceEvent(EventRef{2, 0}, event(2, EventKind::kReceive, 100001));
  tracker.OnTraceEvent(EventRef{2, 1}, event(2, EventKind::kReceive, 2 * 2999 + 1));
  EXPECT_EQ(tracker.tainted_processes(), 1);
  tracker.OnTraceEvent(EventRef{2, 2}, event(2, EventKind::kReceive, kCoordBase + 7));
  now = 30500;
  tracker.OnTraceEvent(EventRef{2, 3}, event(2, EventKind::kCommit, -1));
  EXPECT_EQ(tracker.tainted_processes(), 2);
  EXPECT_EQ(tracker.tainted_messages(), kNetworkSends + kCoordSends);

  const ftx_causal::CriticalPathTracker::Path path = tracker.Extract();
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.root_pid, 0);
  EXPECT_EQ(path.last_pid, 2);
  EXPECT_EQ(path.totals_ns.at("message"), 30000 - (10000 + 7));
}

// --- StateMachineGraph ---

TEST(Graph, AddStatesAndEdges) {
  ftx_sm::StateMachineGraph graph;
  ftx_sm::StateId s0 = graph.AddState();
  ftx_sm::StateId s1 = graph.AddState();
  ftx_sm::EdgeId e = graph.AddEdge(s0, s1, EventKind::kInternal, "go");
  EXPECT_EQ(graph.num_states(), 2);
  EXPECT_EQ(graph.num_edges(), 1);
  EXPECT_EQ(graph.edge(e).label, "go");
  ASSERT_EQ(graph.OutEdges(s0).size(), 1u);
  EXPECT_TRUE(graph.OutEdges(s1).empty());
}

TEST(Graph, ValidDeterminismLabels) {
  ftx_sm::StateMachineGraph graph;
  graph.EnsureStates(4);
  graph.AddEdge(0, 1, EventKind::kTransientNd);
  graph.AddEdge(0, 2, EventKind::kFixedNd);
  graph.AddEdge(1, 3, EventKind::kInternal);
  std::string diagnostic;
  EXPECT_TRUE(graph.ValidateDeterminismLabels(&diagnostic)) << diagnostic;
}

TEST(Graph, InvalidDeterminismLabelsDetected) {
  ftx_sm::StateMachineGraph graph;
  graph.EnsureStates(3);
  graph.AddEdge(0, 1, EventKind::kInternal);  // deterministic...
  graph.AddEdge(0, 2, EventKind::kTransientNd);  // ...but state 0 branches
  std::string diagnostic;
  EXPECT_FALSE(graph.ValidateDeterminismLabels(&diagnostic));
  EXPECT_FALSE(diagnostic.empty());
}

TEST(Graph, CrashEdgeDoesNotCountTowardBranching) {
  ftx_sm::StateMachineGraph graph;
  graph.EnsureStates(3);
  graph.AddEdge(0, 1, EventKind::kInternal);
  graph.AddEdge(0, 2, EventKind::kCrash);  // exogenous
  std::string diagnostic;
  EXPECT_TRUE(graph.ValidateDeterminismLabels(&diagnostic)) << diagnostic;
}

TEST(TraceFormat, RendersEventsAndFlags) {
  Trace trace(2);
  trace.Append(0, EventKind::kTransientNd, -1, false, "flip");
  trace.Append(0, EventKind::kSend, 3);
  trace.Append(1, EventKind::kReceive, 3, /*logged=*/true, "recv");
  auto activation = trace.Append(1, EventKind::kInternal);
  trace.MarkFaultActivation(activation);
  trace.Append(1, EventKind::kCommit, -1, false, "", /*atomic_group=*/2);

  std::string text = ftx_sm::FormatTrace(trace);
  EXPECT_NE(text.find("transient_nd"), std::string::npos);
  EXPECT_NE(text.find("m=3"), std::string::npos);
  EXPECT_NE(text.find("[logged]"), std::string::npos);
  EXPECT_NE(text.find("[FAULT-ACTIVATION]"), std::string::npos);
  EXPECT_NE(text.find("[round 2]"), std::string::npos);
  EXPECT_NE(text.find("\"flip\""), std::string::npos);
}

TEST(TraceFormat, FiltersAndTruncates) {
  Trace trace(2);
  for (int i = 0; i < 10; ++i) {
    trace.Append(0, EventKind::kInternal);
    trace.Append(1, EventKind::kVisible);
  }
  ftx_sm::TraceFormatOptions options;
  options.process = 1;
  options.include_internal = false;
  options.max_events = 3;
  std::string text = ftx_sm::FormatTrace(trace, options);
  EXPECT_EQ(text.find("p0#"), std::string::npos);
  EXPECT_NE(text.find("truncated"), std::string::npos);
  // Exactly 3 rendered lines plus the truncation marker.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(TraceFormat, SummaryCountsByKind) {
  Trace trace(1);
  trace.Append(0, EventKind::kTransientNd);
  trace.Append(0, EventKind::kVisible);
  trace.Append(0, EventKind::kVisible);
  trace.Append(0, EventKind::kCommit);
  std::string summary = ftx_sm::SummarizeTrace(trace);
  EXPECT_NE(summary.find("4 events"), std::string::npos);
  EXPECT_NE(summary.find("transient 1"), std::string::npos);
  EXPECT_NE(summary.find("visible 2"), std::string::npos);
  EXPECT_NE(summary.find("commit 1"), std::string::npos);
}

TEST(EventKinds, Classification) {
  EXPECT_TRUE(ftx_sm::IsNonDeterministic(EventKind::kTransientNd));
  EXPECT_TRUE(ftx_sm::IsNonDeterministic(EventKind::kFixedNd));
  EXPECT_TRUE(ftx_sm::IsNonDeterministic(EventKind::kReceive));
  EXPECT_FALSE(ftx_sm::IsNonDeterministic(EventKind::kSend));
  EXPECT_FALSE(ftx_sm::IsNonDeterministic(EventKind::kVisible));
  EXPECT_FALSE(ftx_sm::IsNonDeterministic(EventKind::kCommit));

  EXPECT_TRUE(ftx_sm::IsTransientNonDeterministic(EventKind::kTransientNd));
  EXPECT_TRUE(ftx_sm::IsTransientNonDeterministic(EventKind::kReceive));
  EXPECT_FALSE(ftx_sm::IsTransientNonDeterministic(EventKind::kFixedNd));
}

}  // namespace
