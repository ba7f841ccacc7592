// Per-application tests: determinism, functional correctness against
// reference models, and event-mix sanity for the Fig. 8 workloads.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "src/apps/magic.h"
#include "src/apps/nvi.h"
#include "src/apps/postgres.h"
#include "src/apps/treadmarks.h"
#include "src/apps/workloads.h"
#include "src/apps/xpilot.h"
#include "src/core/computation.h"
#include "src/core/experiment.h"

namespace {

ftx::RunOutput RunWorkload(const std::string& workload, int scale, uint64_t seed,
                   const std::string& protocol = "cbndvs") {
  ftx::RunSpec spec;
  spec.workload = workload;
  spec.scale = scale;
  spec.seed = seed;
  spec.protocol = protocol;
  return ftx::RunExperiment(spec);
}

// --- determinism: same seed, same visible stream ---

TEST(Apps, DeterministicWorkloads) {
  for (const char* workload : {"nvi", "magic", "postgres", "treadmarks"}) {
    int scale = workload == std::string("treadmarks") ? 4 : 60;
    ftx::RunOutput a = RunWorkload(workload, scale, 5);
    ftx::RunOutput b = RunWorkload(workload, scale, 5);
    ASSERT_TRUE(a.result.all_done) << workload;
    ASSERT_EQ(a.outputs.size(), b.outputs.size()) << workload;
    for (size_t i = 0; i < a.outputs.size(); ++i) {
      EXPECT_EQ(a.outputs.events()[i].payload, b.outputs.events()[i].payload)
          << workload << " visible " << i;
    }
  }
}

TEST(Apps, DifferentSeedsDiverge) {
  ftx::RunOutput a = RunWorkload("nvi", 60, 5);
  ftx::RunOutput b = RunWorkload("nvi", 60, 6);
  bool any_diff = a.outputs.size() != b.outputs.size();
  for (size_t i = 0; !any_diff && i < a.outputs.size(); ++i) {
    any_diff = a.outputs.events()[i].payload != b.outputs.events()[i].payload;
  }
  EXPECT_TRUE(any_diff);
}

// --- nvi ---

TEST(Nvi, BufferMatchesSimpleGapBufferModel) {
  // Replay the same script against a trivial string-based reference.
  const int keys = 300;
  std::vector<ftx::Bytes> script = ftx_apps::Nvi::MakeScript(77, keys);

  std::string reference;
  size_t cursor = 0;
  for (const ftx::Bytes& key : script) {
    if (key.size() == 1 && key[0] >= 0x20) {
      reference.insert(reference.begin() + static_cast<int64_t>(cursor),
                       static_cast<char>(key[0]));
      ++cursor;
    } else if (key.size() == 2) {
      switch (key[1]) {
        case 'L':
          cursor = cursor > 0 ? cursor - 1 : 0;
          break;
        case 'R':
          cursor = std::min(cursor + 1, reference.size());
          break;
        case 'D':
          if (cursor > 0) {
            reference.erase(reference.begin() + static_cast<int64_t>(cursor) - 1);
            --cursor;
          }
          break;
        case 'N':
          reference.insert(reference.begin() + static_cast<int64_t>(cursor), '\n');
          ++cursor;
          break;
        default:
          break;
      }
    }
  }

  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = keys;
  spec.seed = 77;
  auto computation = ftx::BuildComputation(spec);
  computation->Run();
  std::string buffer = ftx_apps::Nvi::BufferContents(computation->runtime(0));
  EXPECT_EQ(buffer, reference);
}

TEST(Nvi, EventMixMatchesFig8aShape) {
  // One loggable input per keystroke, visibles ≈ keystrokes (+status lines),
  // almost no unloggable ND: cand-log commit counts collapse.
  ftx::RunOutput cand = RunWorkload("nvi", 500, 3, "cand");
  ftx::RunOutput cand_log = RunWorkload("nvi", 500, 3, "cand-log");
  EXPECT_GT(cand.checkpoints, 450);
  EXPECT_LT(cand_log.checkpoints, 10);
}

TEST(Nvi, IntegrityCheckCleanOnHealthyRun) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 100;
  auto computation = ftx::BuildComputation(spec);
  computation->Run();
  EXPECT_TRUE(computation->app(0).CheckIntegrity(computation->runtime(0)).ok());
}

// --- magic ---

TEST(Magic, PaintsCells) {
  ftx::RunSpec spec;
  spec.workload = "magic";
  spec.scale = 30;
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_GT(ftx_apps::Magic::PaintedCells(computation->runtime(0)), 10000);
  EXPECT_TRUE(computation->app(0).CheckIntegrity(computation->runtime(0)).ok());
}

// Packs one magic command token: opcode, three reserved bytes, then x, y,
// w, h and layer as int32 (the layout Magic::Step reads).
ftx::Bytes MagicCommand(char opcode, int32_t x, int32_t y, int32_t w, int32_t h, int32_t layer) {
  ftx::Bytes token = {static_cast<uint8_t>(opcode), 0, 0, 0};
  for (int32_t field : {x, y, w, h, layer}) {
    ftx::AppendValue(&token, field);
  }
  return token;
}

TEST(Magic, PaintOpcodesMatchPinnedLayout) {
  // Each opcode of Magic::Step's paint loop, an opcode outside the four
  // (which fills empty cells, as 'F' does), row widths below, at and above
  // the loop's 16-cell block and the CRC kernels' 64- and 256-byte
  // thresholds, and a rectangle clamped at the 1024-cell grid's corner. The
  // pins were taken from the per-cell loop this one replaced.
  struct Paint {
    char opcode;
    int32_t x, y, w, h, layer;
  };
  const Paint paints[] = {
      {'P', 10, 10, 40, 30, 3},       {'W', 5, 20, 16, 12, 2},
      {'E', 20, 15, 7, 9, 0},         {'F', 0, 0, 100, 50, 5},
      {'W', 90, 40, 33, 20, 6},       {'Q', 8, 8, 70, 5, 4},
      {'P', 1000, 1010, 100, 40, 1},  {'F', 1, 1, 17, 1, 7},
      {'E', 0, 45, 64, 3, 0},         {'W', 995, 1000, 63, 30, 5},
      {'P', 300, 300, 1, 1, 2},       {'F', 990, 990, 50, 50, 3},
  };
  std::vector<ftx::Bytes> script;
  for (const Paint& paint : paints) {
    script.push_back(ftx::Bytes{'k'});
    script.push_back(MagicCommand(paint.opcode, paint.x, paint.y, paint.w, paint.h, paint.layer));
  }

  ftx_apps::MagicOptions options;
  options.think_time = ftx::Duration();
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::make_unique<ftx_apps::Magic>(options));
  ftx::Computation computation(ftx::ComputationOptions(), std::move(apps));
  computation.SetInputScript(0, std::move(script));
  ASSERT_TRUE(computation.Run().all_done);

  ftx_dc::Runtime& runtime = computation.runtime(0);
  EXPECT_EQ(ftx_apps::Magic::PaintedCells(runtime), 6525);
  EXPECT_EQ(runtime.segment().Checksum(), 0x4b9b6611u);

  // Each redraw is 'R', the command count (int64), the painted region's CRC
  // (uint32) and the running count of cells touched (int64).
  struct Redraw {
    uint32_t region_crc;
    int64_t cells_touched;
  };
  const Redraw pinned[] = {
      {0x296d724f, 1200}, {0x0e74110a, 1392}, {0xa66359f1, 1455}, {0x10bcdca1, 6455},
      {0x83230486, 7115}, {0x6ecf06e4, 7465}, {0x71a32922, 7801}, {0x8f6b5d84, 7818},
      {0xf5a0f415, 8010}, {0xc9c925ab, 8706}, {0x8b4d1797, 8707}, {0x6f88542d, 9863},
  };
  const std::vector<ftx::Bytes> redraws = computation.recorder().PayloadsOf(0);
  ASSERT_EQ(redraws.size(), std::size(pinned));
  for (size_t i = 0; i < redraws.size(); ++i) {
    ASSERT_EQ(redraws[i].size(), 21u) << i;
    EXPECT_EQ(redraws[i][0], 'R') << i;
    size_t offset = 1;
    int64_t count = 0;
    Redraw redraw{};
    ASSERT_TRUE(ftx::ReadValue(redraws[i], &offset, &count));
    ASSERT_TRUE(ftx::ReadValue(redraws[i], &offset, &redraw.region_crc));
    ASSERT_TRUE(ftx::ReadValue(redraws[i], &offset, &redraw.cells_touched));
    EXPECT_EQ(count, static_cast<int64_t>(i) + 1);
    EXPECT_EQ(redraw.region_crc, pinned[i].region_crc) << "redraw " << i;
    EXPECT_EQ(redraw.cells_touched, pinned[i].cells_touched) << "redraw " << i;
  }
}

TEST(Magic, CommandsDirtyManyPages) {
  ftx::RunOutput out = RunWorkload("magic", 30, 3, "cpvs");
  const auto& stats = out.result.per_process[0];
  // The big dirty footprint behind magic's DC-disk overheads.
  EXPECT_GT(stats.pages_committed / std::max<int64_t>(stats.commits, 1), 100);
}

TEST(Magic, UnloggableNdKeepsCandLogHigh) {
  ftx::RunOutput cand = RunWorkload("magic", 40, 3, "cand");
  ftx::RunOutput cand_log = RunWorkload("magic", 40, 3, "cand-log");
  // Logging halves-ish CAND's commits but cannot remove the
  // timeofday/select events (Fig. 8b's shape).
  EXPECT_GT(cand_log.checkpoints, cand.checkpoints / 4);
  EXPECT_LT(cand_log.checkpoints, cand.checkpoints);
}

// --- postgres ---

TEST(Postgres, MatchesReferenceMapModel) {
  const int queries = 600;
  std::vector<ftx::Bytes> script = ftx_apps::Postgres::MakeScript(91, queries, 300);

  // Reference: a plain std::map executing the same script.
  std::map<int64_t, int64_t> reference;
  for (const ftx::Bytes& token : script) {
    struct Q {
      uint8_t op;
      int64_t key;
      int64_t value;
    } q{};
    std::memcpy(&q, token.data(), sizeof(Q) <= token.size() ? sizeof(Q) : token.size());
    switch (q.op) {
      case 'I':
        reference[q.key] = q.value;
        break;
      case 'U':
        if (reference.count(q.key)) {
          reference[q.key] += q.value;
        }
        break;
      case 'D':
        reference.erase(q.key);
        break;
      default:
        break;
    }
  }

  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.scale = queries;
  spec.seed = 91;
  auto computation = ftx::BuildComputation(spec);
  computation->SetInputScript(0, script);  // exactly the reference's script
  computation->Run();

  auto& env = computation->runtime(0);
  EXPECT_EQ(ftx_apps::Postgres::TupleCount(env), static_cast<int64_t>(reference.size()));
  for (const auto& [key, value] : reference) {
    EXPECT_EQ(ftx_apps::Postgres::Lookup(env, key), value) << "key " << key;
  }
  EXPECT_TRUE(computation->app(0).CheckIntegrity(env).ok());
}

class PostgresProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PostgresProperty, IntegrityHoldsAcrossSeeds) {
  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.scale = 300;
  spec.seed = GetParam();
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_TRUE(computation->app(0).CheckIntegrity(computation->runtime(0)).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostgresProperty, ::testing::Range<uint64_t>(1, 9));

// --- xpilot ---

TEST(Xpilot, RunsAtFullSpeedUnderDiscountChecking) {
  ftx::RunSpec spec;
  spec.workload = "xpilot";
  spec.scale = 150;
  spec.protocol = "cbndvs";
  ftx::OverheadRow row = ftx::MeasureOverhead(spec);
  EXPECT_NEAR(row.recoverable_fps, 15.0, 1.0);
}

TEST(Xpilot, CandDegradesOnDisk) {
  ftx::RunSpec spec;
  spec.workload = "xpilot";
  spec.scale = 100;
  spec.protocol = "cand";
  spec.store = ftx::StoreKind::kDisk;
  ftx::OverheadRow row = ftx::MeasureOverhead(spec);
  EXPECT_LT(row.recoverable_fps, 2.0);  // the paper's "0 fps"
}

TEST(Xpilot, ClientsRenderServerFrames) {
  ftx::RunSpec spec;
  spec.workload = "xpilot";
  spec.scale = 80;
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(ftx_apps::XpilotServer::FramesRun(computation->runtime(0)), 80);
  for (int c = 1; c <= 3; ++c) {
    EXPECT_GT(ftx_apps::XpilotClient::FramesRendered(computation->runtime(c)), 60);
  }
}

// --- treadmarks ---

TEST(TreadMarks, AllProcessesCompleteAllIterations) {
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.scale = 6;
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(ftx_apps::TreadMarks::IterationsDone(computation->runtime(p)), 6);
  }
}

TEST(TreadMarks, BodiesEvolve) {
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.scale = 4;
  auto c1 = ftx::BuildComputation(spec);
  c1->Run();
  uint32_t after4 = ftx_apps::TreadMarks::OwnBodiesChecksum(c1->runtime(0));

  spec.scale = 8;
  auto c2 = ftx::BuildComputation(spec);
  c2->Run();
  uint32_t after8 = ftx_apps::TreadMarks::OwnBodiesChecksum(c2->runtime(0));
  EXPECT_NE(after4, after8);  // the N-body system actually integrates
}

TEST(TreadMarks, TwoPcCollapsesCommitCount) {
  ftx::RunOutput cpvs = RunWorkload("treadmarks", 5, 3, "cpvs");
  ftx::RunOutput two_pc = RunWorkload("treadmarks", 5, 3, "cpv-2pc");
  // Fig. 8d's headline: visibles are rare, so coordinated commits win by
  // orders of magnitude.
  EXPECT_GT(cpvs.checkpoints, two_pc.checkpoints * 20);
}

TEST(TreadMarks, DsmTrafficDominatesEvents) {
  ftx::RunOutput out = RunWorkload("treadmarks", 5, 3, "cpvs");
  int64_t sends = 0;
  int64_t receives = 0;
  for (const auto& stats : out.result.per_process) {
    sends += stats.sends;
    receives += stats.receives;
  }
  EXPECT_GT(sends, 4 * 5 * 20);  // page requests + replies + barrier
  EXPECT_GT(receives, 4 * 5 * 20);
}

TEST(TreadMarks, ScalesToEightProcesses) {
  ftx_apps::TreadMarksOptions options;
  options.num_processes = 8;
  options.bodies = 512;
  options.iterations = 3;
  options.tree_work = ftx::Milliseconds(2);
  options.force_work = ftx::Milliseconds(4);

  ftx::ComputationOptions computation_options;
  computation_options.protocol = "cpvs";
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  for (int p = 0; p < 8; ++p) {
    apps.push_back(std::make_unique<ftx_apps::TreadMarks>(options));
  }
  ftx::Computation computation(computation_options, std::move(apps));
  computation.ScheduleStopFailure(5, ftx::TimePoint() + ftx::Milliseconds(60));
  auto result = computation.Run();
  ASSERT_TRUE(result.all_done);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(ftx_apps::TreadMarks::IterationsDone(computation.runtime(p)), 3) << p;
  }
}

TEST(Apps, ProtocolChoiceNeverChangesDeterministicOutput) {
  // The protocol decides WHEN to commit, never WHAT the application does:
  // visible streams must be identical across protocols (failure-free).
  ftx::RunOutput reference = RunWorkload("magic", 25, 9, "commit-all");
  for (const char* protocol : {"cand", "cbndvs-log", "hypervisor", "optimistic-log"}) {
    ftx::RunOutput out = RunWorkload("magic", 25, 9, protocol);
    ASSERT_EQ(out.outputs.size(), reference.outputs.size()) << protocol;
    for (size_t i = 0; i < out.outputs.size(); ++i) {
      EXPECT_EQ(out.outputs.events()[i].payload, reference.outputs.events()[i].payload)
          << protocol << " visible " << i;
    }
  }
}

// --- workload factory ---

TEST(Workloads, FactoryKnowsAllNames) {
  for (const std::string& name : ftx_apps::WorkloadNames()) {
    ftx_apps::WorkloadSetup setup = ftx_apps::MakeWorkload(name, 4, 1);
    EXPECT_FALSE(setup.apps.empty()) << name;
    EXPECT_EQ(setup.apps.size(), setup.scripts.size()) << name;
    EXPECT_GT(ftx_apps::DefaultScale(name, false), 0);
    EXPECT_GT(ftx_apps::DefaultScale(name, true), ftx_apps::DefaultScale(name, false) / 100);
  }
}

}  // namespace
